"""Euclid ladder, quotient-ladder arrangement, word recursion, rotation tools."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from mechwords import (
    arrange,
    canonical_rotation,
    check_balance,
    euclid_trace,
    mechanical_word,
    rotation_equivalent,
    smith_ladder,
    smith_quotients,
    symbol_stages,
    to_bits,
)

ARRANGE_23_10 = "ABBABABABABBABABABBABAB"
# 29-letter block of the (87, 36) arrangement, printed here with its
# grouping collapsed: ABBABAB ABBAB ABBAB ABBABAB ABBAB
BLOCK_87_36 = "ABBABAB" "ABBAB" "ABBAB" "ABBABAB" "ABBAB"
SMITH_1_3_3 = "BABABABBABABABBABABABBA"


def coprime_pairs(n_max):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            if math.gcd(n, k) == 1:
                yield n, k


def test_euclid_trace_23_10():
    assert euclid_trace(23, 10) == ([2, 3, 3], [3, 1, 0])


def test_euclid_trace_87_36():
    assert euclid_trace(87, 36) == ([2, 2, 2, 2], [15, 6, 3, 0])


def test_euclid_trace_divisible_and_short():
    # one exact division when k divides n, two when the remainder does
    assert euclid_trace(6, 3) == ([2], [0])
    assert euclid_trace(10, 4) == ([2, 2], [2, 0])


@pytest.mark.parametrize("n, k", [(5, 6), (5, 0), (0, 1), (-3, 1)])
def test_euclid_trace_rejects(n, k):
    with pytest.raises(ValueError):
        euclid_trace(n, k)


def test_euclid_trace_step_identities():
    for n in range(2, 121):
        for k in range(1, n):
            quotients, remainders = euclid_trace(n, k)
            r = [n, k] + remainders
            assert len(r) == len(quotients) + 2
            for j, q in enumerate(quotients):
                assert r[j] == q * r[j + 1] + r[j + 2]
                assert 0 <= r[j + 2] < r[j + 1]
            d = math.gcd(n, k)
            assert r[-1] == 0 and r[-2] == d
            assert quotients == euclid_trace(n // d, k // d)[0]


def test_arrange_golden():
    assert arrange(23, 10) == ARRANGE_23_10
    assert arrange(87, 36) == BLOCK_87_36 * 3
    assert BLOCK_87_36.count("A") == 12
    assert arrange(6, 3) == "ABABAB"
    assert arrange(2, 1) == "AB"
    assert arrange(5, 4) == "ABAAA"


def test_arrange_length_and_weight():
    for n in range(2, 301):
        for k in range(1, n):
            word = arrange(n, k)
            assert len(word) == n
            assert word.count("A") == k


def test_arrange_matches_stage_pipeline():
    # both outputs of the one substitution kernel, byte for byte against the
    # symbol-by-symbol oracle, coprime or not
    for n in range(2, 400):
        for k in range(1, n):
            stages = naive.stages_reference(n, k)
            assert symbol_stages(n, k) == stages, (n, k)
            assert arrange(n, k) == naive.arrange_reference(n, k, stages), (n, k)


@pytest.mark.parametrize("n, k", [(5, 0), (4, 6)])
def test_arrange_rejects(n, k):
    with pytest.raises(ValueError):
        arrange(n, k)


def test_symbol_stages_23_10():
    assert symbol_stages(23, 10) == ["+--", "+-++", "+---+--+--"]


def test_symbol_stages_87_36():
    stages = symbol_stages(87, 36)
    assert [len(s) for s in stages] == [6, 9, 15, 21, 36]
    assert stages[0] == "+-+-+-"
    assert stages[2] == "+--+-" * 3
    assert stages[4] == "+--+-+-+--+-" * 3


def test_symbol_stages_obey_ladder_identities():
    # over r = [n, k] + remainders, the seed stage holds r[-3] symbols, r[-2]
    # of them pluses; going back down the ladder, level h (from len(r)-2 to 3)
    # adds a promotion stage of r[h] + r[h-1] symbols and a padded stage of
    # r[h-2], both with r[h-1] pluses
    for n in range(2, 300):
        for k in range(1, n):
            quotients, remainders = euclid_trace(n, k)
            r = [n, k] + remainders
            stages = symbol_stages(n, k)
            if len(quotients) == 1:
                assert stages == []
                continue
            expected = [(r[-3], r[-2])]
            for h in range(len(r) - 2, 2, -1):
                expected += [(r[h] + r[h - 1], r[h - 1]), (r[h - 2], r[h - 1])]
            assert [(len(s), s.count("+")) for s in stages] == expected, (n, k)


def test_symbol_stages_match_reference():
    # deep quotient lists at n up to 10^5, beyond the exhaustive range above:
    # Fibonacci neighbours (every quotient 1, the deepest ladders) alone and
    # doubled, huge quotients, then six pairs of mixed depth, two with gcd > 1
    pairs = [(75025, 46368), (2 * 46368, 2 * 28657), (99991, 2), (99999, 99998),
             (100000, 38200), (77777, 30011), (65536, 40503), (99000, 61182),
             (87381, 33377), (54321, 12345)]
    for n, k in pairs:
        stages = naive.stages_reference(n, k)
        assert symbol_stages(n, k) == stages, (n, k)
        assert arrange(n, k) == naive.arrange_reference(n, k, stages), (n, k)


def test_symbol_stages_divisible_case_is_empty():
    assert symbol_stages(6, 3) == []
    assert symbol_stages(9, 1) == []


def test_smith_quotients_golden():
    assert smith_quotients(23, 10) == [1, 3, 3]
    assert smith_quotients(7, 3) == [1, 3]
    assert smith_quotients(5, 1) == [4]
    # the recursion's word closed up as A...B is the mechanical word
    assert "A" + smith_ladder(smith_quotients(7, 3))[-1][:-2] + "B" == "ABABABB"
    assert "A" + smith_ladder(smith_quotients(2, 1))[-1][:-2] + "B" == "AB"


def test_smith_quotients_rejects():
    with pytest.raises(ValueError, match=r"n and k not coprime \(gcd 3\)"):
        smith_quotients(6, 3)
    for n, k in [(3, 7), (3, 0), (5, 5)]:
        with pytest.raises(ValueError):
            smith_quotients(n, k)


def test_smith_word_golden():
    assert smith_ladder([1, 3, 3])[-1] == SMITH_1_3_3
    assert smith_ladder([1])[-1] == "BA"
    assert smith_ladder([2, 2])[-1] == "BBABBAB"
    # a zero first quotient is what a leading decrement produces
    assert smith_ladder([0])[-1] == "A"
    assert smith_ladder([0, 2])[-1] == "AAB"


def test_smith_ladder():
    assert smith_ladder([1, 3, 3]) == ["BA", "BABABAB", SMITH_1_3_3]


def test_smith_word_rejects():
    with pytest.raises(ValueError):
        smith_ladder([])
    with pytest.raises(ValueError):
        smith_ladder([-1])
    with pytest.raises(ValueError):
        smith_ladder([1, 0])


def test_smith_length_and_weight():
    # on the continued-fraction quotients of coprime p/q the recursion builds
    # a word of length p + q and weight q
    for p, q in coprime_pairs(60):
        word = smith_ladder(euclid_trace(p, q)[0])[-1]
        assert len(word) == p + q
        assert word.count("A") == q


def test_builders_in_digits_are_to_bits_of_letters():
    # each builder seeded with (1, 0) builds letter for letter to_bits of its
    # (A, B) build; the mechanical word is also held to the ceiling formula,
    # and the Smith word to its length and weight
    for n in range(1, 61):
        for k in range(1, n + 1):
            letters = mechanical_word(n, k)
            assert letters == naive.ceiling_word(n, k), (n, k)
            assert mechanical_word(n, k, alphabet="01") == to_bits(letters), (n, k)
            assert arrange(n, k, alphabet="01") == to_bits(arrange(n, k)), (n, k)
    for n, k in [(1, 1), *coprime_pairs(60)]:
        quotients = smith_quotients(n, k)
        ladder = smith_ladder(quotients, alphabet="01")
        assert ladder == [to_bits(w) for w in smith_ladder(quotients)], (n, k)
        assert len(ladder[-1]) == n and ladder[-1].count("1") == k, (n, k)


@settings(deadline=None)
@given(st.integers(1, 10**5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_builders_in_digits_at_large_n(pair):
    n, k = pair
    digits = mechanical_word(n, k, alphabet="01")
    assert digits == to_bits(mechanical_word(n, k))
    assert len(digits) == n and digits.count("1") == k
    assert arrange(n, k, alphabet="01") == to_bits(arrange(n, k))
    if math.gcd(n, k) == 1:
        quotients = smith_quotients(n, k)
        assert smith_ladder(quotients, alphabet="01") == list(map(to_bits, smith_ladder(quotients)))


@pytest.mark.parametrize("alphabet", ["", "ab", "10", "BA", "AB ", "0 1", "AB01", "A", "1"])
def test_builders_reject_other_alphabets(alphabet):
    for build in (lambda: mechanical_word(7, 3, alphabet=alphabet),
                  lambda: mechanical_word(4, 4, alphabet=alphabet),
                  lambda: arrange(7, 3, alphabet=alphabet),
                  lambda: smith_ladder([1, 3, 3], alphabet=alphabet)):
        with pytest.raises(ValueError, match=f"^alphabet must be 'AB' or '01', got {alphabet!r}$"):
            build()


@pytest.mark.parametrize("word, expected", [
    ("BAB", ("ABB", 1)),
    ("ABAB", ("ABAB", 0)),
    ("BBBA", ("ABBB", 3)),
])
def test_canonical_rotation_golden(word, expected):
    assert canonical_rotation(word) == expected


def test_canonical_rotation_empty():
    with pytest.raises(ValueError):
        canonical_rotation("")


def test_canonical_rotation_matches_enumeration():
    for n in range(1, 11):
        for word in naive.all_words(n):
            canon, shift = canonical_rotation(word)
            assert (canon, shift) == naive.min_rotation(word)
            assert canon == word[shift:] + word[:shift]
            # idempotent
            assert canonical_rotation(canon) == (canon, 0)


@given(st.text(alphabet="AB", min_size=1, max_size=200))
def test_canonical_rotation_matches_enumeration_random(word):
    assert canonical_rotation(word) == naive.min_rotation(word)


@pytest.mark.parametrize("n, k", [
    (1, 1), (7, 3), (12, 10), (30, 12), (1000, 381), (99_991, 38_197),
    (100_000, 38_198), (100_000, 38_195), (100_000, 100_000),
])
def test_canonical_rotation_of_rotated_mechanical_words(n, k):
    # mechanical_word(n, k) is its own least rotation and repeats every
    # n/gcd(n, k) letters, so the word rotated left by c comes back at the
    # smallest shift -c mod that period (gcd 1, 2, 5 and n above)
    word = mechanical_word(n, k)
    period = n // math.gcd(n, k)
    for c in sorted({0, 1, period - 1, n // 3, n // 2 + 1, n - 1}):
        rotated = word[c:] + word[:c]
        assert canonical_rotation(rotated) == (word, -c % period), (n, k, c)


def test_canonical_rotation_keeps_no_table():
    # the scan holds word + word and its result, 3 bytes per letter; a table
    # of one list slot per letter of word + word alone would be 16
    n = 200_000
    word = mechanical_word(n, 76_393)
    word = word[n // 3:] + word[:n // 3]
    tracemalloc.start()
    try:
        canonical_rotation(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def test_rotation_equivalent_examples():
    assert rotation_equivalent(SMITH_1_3_3, ARRANGE_23_10)
    assert rotation_equivalent("AB", "BA")
    assert not rotation_equivalent("AAB", "ABB")
    for pair in [("", ""), ("", "A"), ("A", "")]:
        with pytest.raises(ValueError):
            rotation_equivalent(*pair)
    assert not rotation_equivalent("A", "AA")


def test_rotation_equivalent_matches_canonical_forms():
    words = [w for n in range(1, 7) for w in naive.all_words(n)]
    for w1 in words:
        for w2 in words:
            expected = (len(w1) == len(w2)
                        and canonical_rotation(w1)[0] == canonical_rotation(w2)[0])
            assert rotation_equivalent(w1, w2) == expected


@given(st.text(alphabet="AB", min_size=1, max_size=40),
       st.integers(0, 39), st.integers(0, 39))
def test_rotation_equivalent_is_equivalence(word, i, j):
    i, j = i % len(word), j % len(word)
    r1 = word[i:] + word[:i]
    r2 = word[j:] + word[:j]
    assert rotation_equivalent(word, word)
    assert rotation_equivalent(word, r1) and rotation_equivalent(r1, word)
    assert rotation_equivalent(r1, r2)


def test_three_way_equivalence():
    # full n <= 200 range runs in the acceptance suite
    for n, k in coprime_pairs(80):
        built = arrange(n, k)
        from_recursion = smith_ladder(smith_quotients(n, k))[-1]
        mechanical = mechanical_word(n, k)
        assert rotation_equivalent(built, from_recursion)
        assert rotation_equivalent(built, mechanical)
        assert rotation_equivalent(from_recursion, mechanical)


def test_non_coprime_arrangement_is_periodic():
    for n in range(2, 81):
        for k in range(1, n):
            d = math.gcd(n, k)
            if d == 1:
                continue
            word = arrange(n, k)
            prefix = word[:n // d]
            assert word == prefix * d
            assert prefix == arrange(n // d, k // d)


def test_non_coprime_arrangement_is_balanced():
    for n in range(2, 41):
        for k in range(1, n):
            if math.gcd(n, k) == 1:
                continue
            word = arrange(n, k)
            for m in range(1, n + 1):
                assert check_balance(word, m)


def test_recurrence_reconstruct():
    assert naive.from_quotients([2, 3, 3]) == (23, 10)
    assert naive.from_quotients([2]) == (2, 1)
    assert naive.from_quotients([2, 3]) == (7, 3)


def test_recurrence_round_trip():
    # n <= 500 runs in the acceptance suite
    for n, k in coprime_pairs(200):
        assert naive.from_quotients(euclid_trace(n, k)[0]) == (n, k)
