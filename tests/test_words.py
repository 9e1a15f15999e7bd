"""Word primitives: parsing, mechanical words, balance."""

import itertools
from math import gcd

import pytest

import naive
from mechwords import check_balance, mechanical_word, parse_word, to_bits
from mechwords.words import _window_weights


# mechanical-word periods frozen after recomputation from the prefix-count
# characterization (prefix of length m holds ceil(k*m/n) letters A)
MECHANICAL_GOLDEN = {
    (1, 1): "A",
    (23, 10): "ABABABABBABABABBABABABB",
    (7, 3): "ABABABB",
    (4, 2): "ABAB",
    (4, 3): "AAAB",
    (10, 3): "ABBABBABBB",
}


def test_parse_word():
    assert parse_word("ABBA") == "ABBA"
    with pytest.raises(ValueError, match="^word must be non-empty$"):
        parse_word("")
    for bad in ("ab", "A B", "01", "AXB"):
        with pytest.raises(ValueError):
            parse_word(bad)
    # a long word whose only bad letter comes last is still caught, and the
    # message lists the sorted set of bad letters
    for bad, letters in ((("AB" * 50_000)[:-1] + "x", ["x"]), ("bAaBb", ["a", "b"])):
        with pytest.raises(ValueError) as excinfo:
            parse_word(bad)
        assert str(excinfo.value) == (
            f"invalid letter(s) {letters}: words use only 'A' and 'B'")


def test_to_bits():
    assert to_bits("ABBAB") == "10010"
    with pytest.raises(ValueError, match="^word must be non-empty$"):
        to_bits("")


def test_mechanical_word_golden():
    for (n, k), expected in MECHANICAL_GOLDEN.items():
        assert mechanical_word(n, k) == expected


@pytest.mark.parametrize("n, k", [(1, 0), (3, 4), (0, 0), (5, -1)])
def test_mechanical_word_rejects_bad_slope(n, k):
    with pytest.raises(ValueError):
        mechanical_word(n, k)


def test_mechanical_word_prefix_counts():
    # prefix of length m holds exactly ceil(k*m/n) letters A
    for n in range(1, 301):
        for k in range(1, n + 1):
            word = mechanical_word(n, k)
            counts = itertools.accumulate(c == "A" for c in word)
            assert all(running == -(-k * m // n)
                       for m, running in enumerate(counts, 1)), (n, k)


def test_mechanical_word_weight_length_and_gcd_structure():
    for n in range(1, 201):
        for k in range(1, n + 1):
            word = mechanical_word(n, k)
            assert len(word) == n
            assert word.count("A") == k
            d = gcd(n, k)
            assert word == mechanical_word(n // d, k // d) * d


def test_check_balance_examples():
    assert check_balance("ABABABB", 2)
    result = check_balance("AABB", 2)
    assert not result
    assert (result.start, result.weight, result.low, result.high) == (0, 2, 1, 1)
    assert check_balance("A", 5)
    assert check_balance("A", 5).low == check_balance("A", 5).high == 5


def test_check_balance_rejects_bad_input():
    with pytest.raises(ValueError):
        check_balance("", 2)
    with pytest.raises(ValueError):
        check_balance("AB", 0)


def test_check_balance_agrees_with_enumeration():
    for n in range(1, 9):
        for word in naive.all_words(n):
            for m in range(1, 2 * n + 1):
                assert bool(check_balance(word, m)) == naive.balance_ok(word, m)


def test_check_balance_reports_first_violation():
    # window lengths up to 2n, so windows longer than the word wrap around it;
    # the window kernel's weights match the sliced windows value by value
    for n in range(2, 8):
        for word in naive.all_words(n):
            for m in range(1, 2 * n + 1):
                result = check_balance(word, m)
                profile = naive.windows(word, m)
                assert _window_weights(word, m) == profile
                violating = [s for s, w in enumerate(profile)
                             if not result.low <= w <= result.high]
                if result.ok:
                    assert not violating
                    continue
                assert result.start == violating[0]
                assert result.weight == profile[result.start]


def test_mechanical_words_are_balanced():
    # full range n <= 200 runs in the acceptance suite via an independent
    # enumeration; this keeps the library path itself exercised
    for n in range(1, 49):
        for k in range(1, n + 1):
            word = mechanical_word(n, k)
            for m in range(1, 2 * n + 1):
                assert check_balance(word, m)
