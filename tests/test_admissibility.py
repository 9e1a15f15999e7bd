"""Window profiles, the nt <= ks criterion, complement restatement, discrepancy."""

import json
import random

import pytest

import naive
from mechwords import (
    AdmissibilityQuery,
    WindowReport,
    admissibility,
    criterion,
    discrepancy,
    is_admissible,
    mechanical_window,
    mechanical_word,
    rotation_equivalent,
    window_weight_profile,
)
from mechwords.admissibility import _two_valued
from mechwords.cli import main
from mechwords.words import to_bits


@pytest.mark.parametrize("word, m, expected", [
    ("ABAB", 2, [1, 1, 1, 1]),
    ("AABB", 2, [2, 1, 0, 1]),
    # both frozen from direct enumeration of the circular windows
    ("ABBAB", 3, [1, 1, 1, 2, 1]),
    ("ABABA", 3, [2, 1, 2, 2, 2]),
])
def test_window_weight_profile(word, m, expected):
    assert window_weight_profile(word, m) == expected


def test_window_weight_profile_matches_enumeration():
    for n in range(1, 11):
        for word in naive.all_words(n):
            for m in range(1, n + 1):
                assert window_weight_profile(word, m) == naive.windows(word, m)


@pytest.mark.parametrize("m", [0, 5, -1])
def test_window_weight_profile_range(m):
    with pytest.raises(ValueError):
        window_weight_profile("ABAB", m)


def test_profile_minimum_takes_smallest_start():
    for word, m, expected in [("ABAB", 1, (1, 0)), ("AAABBBBBBB", 6, (3, 0))]:
        profile = window_weight_profile(word, m)
        low = min(profile)
        assert (profile.index(low), low) == naive.lightest_window(word, m) == expected


def test_empty_word_is_rejected_before_the_window():
    for call in (lambda: window_weight_profile("", 1), lambda: is_admissible("", 1, 0),
                 lambda: discrepancy("", 1)):
        with pytest.raises(ValueError, match="^word must be non-empty$"):
            call()
    # letters are checked before emptiness and before the window length
    with pytest.raises(ValueError, match="invalid letter"):
        window_weight_profile("ABX", 0)


def two_valued(word, s):
    # _two_valued on a word over {A, B}, given its digits and first window
    return _two_valued(to_bits(word), word.count("A"), s, word.count("A", 0, s))


def check_two_valued(word, s, weights):
    # _two_valued gives the profile exactly when its weights differ by at most
    # one, with top 1 and the first lightest window as its start
    result = two_valued(word, s)
    if max(weights) - min(weights) > 1:
        assert result is None, (word, s)
        return False
    start, low, top, excess = result
    assert len(excess) == len(word) and set(excess) <= {0, 1} and top == 1
    assert [low + e for e in excess] == weights, (word, s)
    assert start == weights.index(min(weights)), (word, s)
    return True


def test_two_valued_iff_profile_is_two_valued():
    # every word with n <= 12 (k = 0, k == n, s == n and n | k*s among them),
    # then every mechanical word with n <= 40 (gcd(n, k) > 1 among them)
    for n in range(1, 13):
        for word in naive.all_words(n):
            for s in range(1, n + 1):
                check_two_valued(word, s, naive.windows(word, s))
    for n in range(13, 41):
        for k in range(1, n + 1):
            word = mechanical_word(n, k)
            for s in range(1, n + 1):
                assert check_two_valued(word, s, naive.windows(word, s)), (n, k, s)


def test_two_valued_on_one_swap_words():
    # a mechanical word with one A and one B exchanged; both outcomes occur
    rng = random.Random(27)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 3000)
        word = list(mechanical_word(n, rng.randint(1, n - 1)))
        i = rng.choice([j for j, c in enumerate(word) if c == "A"])
        j = rng.choice([j for j, c in enumerate(word) if c == "B"])
        word[i], word[j] = "B", "A"
        word = "".join(word)
        s = rng.randint(1, n)
        outcomes.add(check_two_valued(word, s, naive.windows(word, s)))
    assert outcomes == {False, True}


def test_two_valued_seed_test_rejects_before_parsing(monkeypatch):
    # a first window out of low..low + 1 is refused without packing the word
    parsed = []
    monkeypatch.setattr(admissibility, "int", lambda digits, base: parsed.append(digits)
                        or int(digits, base), raising=False)
    assert two_valued("AABBBBBB", 2) is None and parsed == []
    assert two_valued("BBAAAAAA", 2) is None and parsed == []
    word = mechanical_word(8, 3)
    _, low, _, excess = two_valued(word, 4)
    assert [low + e for e in excess] == naive.windows(word, 4) and parsed == [to_bits(word)]


def test_plan_windows_is_the_mechanical_words_profile(capsys, monkeypatch):
    # plan's certificate with no CLI: every weight as low + its excess byte,
    # the first lightest window as start, and top 1; the word plan prints,
    # in either alphabet, is the ceiling formula's
    for n in range(1, 15):
        for k in range(1, n + 1):
            letters = naive.ceiling_word(n, k)
            for s in range(1, n + 1):
                query = AdmissibilityQuery(n, k, s, 0)
                weights = naive.windows(letters, s)
                start, low, top, excess = admissibility._plan_windows(query)
                assert [low + e for e in excess] == weights, query
                assert (start, top) == (naive.lightest_window(letters, s)[0], 1), query
            for alphabet, word in (("AB", letters), ("01", to_bits(letters))):
                argv = ["plan", str(n), str(k), "1", "0", "--alphabet", alphabet]
                assert main([*argv, "--format", "machine"]) == 0, argv
                assert json.loads(capsys.readouterr().out)["word"] == word, argv
    # a profile the kernel refuses is a fault of the program
    monkeypatch.setattr(admissibility, "_two_valued", lambda bits, k, s, head: None)
    message = r"^the length-3 window profile of mechanical_word\(10, 4\) is not two-valued$"
    with pytest.raises(RuntimeError, match=message):
        admissibility._plan_windows(AdmissibilityQuery(10, 4, 3, 1))


def ceiling_weights(n, k, m, starts):
    # window weights of the slope-k/n word from the ceiling formula alone:
    # the window from i holds ceil(k*(i+m)/n) - ceil(k*i/n) letters A
    return [-(-k * (i + m) // n) + (k * i // -n) for i in starts]


def test_two_valued_matches_ceiling_formula_at_large_n():
    # mechanical words, every other one rotated left by a random cut r, which
    # moves the window from i + r of the word to start i
    rng = random.Random(20)
    for index, n in enumerate([2 * 10**5] + [rng.randint(1, 2 * 10**5) for _ in range(24)]):
        k, s = rng.randint(1, n), rng.randint(1, n)
        r = rng.randrange(n) if index % 2 else 0
        word = mechanical_word(n, k)
        _, low, _, excess = two_valued(word[r:] + word[:r], s)
        assert [low + e for e in excess] == ceiling_weights(n, k, s, range(r, r + n)), (
            n, k, s, r)


def test_mechanical_window_matches_ceiling_formula():
    for n in range(1, 50):
        for k in range(1, n + 1):
            prefix = [-(-k * i // n) for i in range(3 * n + 1)]
            for m in range(1, 2 * n + 1):
                weights = [prefix[i + m] - prefix[i] for i in range(n)]
                low = min(weights)
                assert mechanical_window(n, k, m) == WindowReport(
                    weights.index(low), m, low), (n, k, m)


def test_mechanical_window_matches_enumeration():
    for n in range(1, 21):
        for k in range(1, n + 1):
            word = mechanical_word(n, k)
            for m in range(1, 2 * n + 1):
                weights = naive.windows(word, m)
                low = min(weights)
                assert mechanical_window(n, k, m) == WindowReport(
                    weights.index(low), m, low), (n, k, m)


# consecutive Fibonacci numbers: every Euclid quotient is 1, the deepest descent
FIB_87, FIB_88 = 679891637638612258, 1100087778366101931


@pytest.mark.parametrize("n, k, m", [
    (10**18 + 9, 381966011250105151, 333333333333333333),
    (10**18 + 9, 2, (10**18 + 8) // 2),   # lightest window starts near n/2
    (10**18 + 9, 10**18 + 8, 10**18 + 10),
    (10**18 + 9, 3, 7),
    (FIB_88, FIB_87, 12345),
    (FIB_88, FIB_87, FIB_87),
    (FIB_88, FIB_88 - FIB_87, 10**17 + 3),
])
def test_mechanical_window_at_huge_n(n, k, m):
    window = mechanical_window(n, k, m)
    assert window.length == m and window.weight == k * m // n
    assert 0 <= window.start < n
    assert ceiling_weights(n, k, m, [window.start]) == [window.weight]
    # no earlier start among the first few thousand is as light
    earlier = range(min(window.start, 5000))
    assert window.weight not in ceiling_weights(n, k, m, earlier)


@pytest.mark.parametrize("n, k, m", [(5, 0, 2), (5, 6, 2), (5, 2, 0), (0, 0, 1), (5, -1, 2)])
def test_mechanical_window_rejects_outside_domain(n, k, m):
    with pytest.raises(ValueError):
        mechanical_window(n, k, m)


def test_is_admissible_examples():
    # the witness of either answer is the lightest window
    assert is_admissible("ABABABB", 5, 2) is True
    assert naive.lightest_window("ABABABB", 5) == (1, 2)
    assert is_admissible("AAABBBBBBB", 6, 2) is False
    assert naive.lightest_window("AAABBBBBBB", 6) == (3, 0)
    assert is_admissible("AB", 1, 0) is True


def test_is_admissible_rejects_negative_quota():
    with pytest.raises(ValueError):
        is_admissible("ABAB", 2, -1)


def test_query_validation():
    AdmissibilityQuery(10, 3, 6, 2)
    AdmissibilityQuery(4, 3, 2, 1)
    # k == n and s == n are inside the domain and answer like any other cell
    for (n, k, s, t), word in [((4, 4, 2, 1), "AAAA"), ((4, 2, 4, 1), "ABAB")]:
        assert criterion(AdmissibilityQuery(n, k, s, t))
        assert mechanical_word(n, k) == word and naive.admissible(word, s, t)
    assert criterion(AdmissibilityQuery(4, 2, 4, 3)) is False
    for n, k, s, t in [(4, 5, 2, 1), (4, 0, 2, 1), (4, 2, 5, 1),
                       (4, 2, 0, 1), (4, 2, 2, -1), (0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            AdmissibilityQuery(n, k, s, t)


def test_criterion_examples():
    assert criterion(AdmissibilityQuery(10, 3, 6, 2)) is False  # 20 > 18
    assert criterion(AdmissibilityQuery(7, 3, 5, 2)) is True    # 14 <= 15
    assert criterion(AdmissibilityQuery(6, 3, 2, 1)) is True    # 6 <= 6, boundary
    assert criterion(AdmissibilityQuery(6, 3, 2, 0)) is True    # t = 0 is vacuous
    # quotas beyond k or s resolve to "not admissible" without special cases
    assert criterion(AdmissibilityQuery(6, 3, 2, 4)) is False
    assert criterion(AdmissibilityQuery(6, 5, 2, 3)) is False


def test_construct_admissible():
    # an admissible arrangement is built as: the criterion, then the
    # mechanical word of slope k/n, which is t-admissible whenever it holds
    assert criterion(AdmissibilityQuery(7, 3, 5, 2))
    assert mechanical_word(7, 3) == "ABABABB"
    assert criterion(AdmissibilityQuery(10, 3, 6, 2)) is False
    assert criterion(AdmissibilityQuery(4, 3, 2, 1))
    word = mechanical_word(4, 3)
    assert rotation_equivalent(word, "ABAA")
    assert is_admissible(word, 2, 1)


def test_construct_admissible_is_sound_small():
    # the mechanical word is t-admissible exactly when n*t <= k*s: it works
    # whenever an arrangement exists, and none exists otherwise
    for n in range(2, 11):
        for k in range(1, n):
            word = mechanical_word(n, k)
            for s in range(1, n):
                for t in range(0, min(k, s) + 1):
                    query = AdmissibilityQuery(n, k, s, t)
                    assert naive.admissible(word, s, t) is criterion(query), query


@pytest.mark.parametrize("n, k, s, t", [
    (500, 201, 350, 140),   # 70000 <= 70350
    (499, 7, 400, 5),       # 2495 <= 2800
    (360, 77, 240, 51),     # 18360 <= 18480
])
def test_construct_admissible_spot_checks_large(n, k, s, t):
    assert criterion(AdmissibilityQuery(n, k, s, t))
    assert is_admissible(mechanical_word(n, k), s, t)


def complement_holds(word, s, t):
    # the complement restatement: every (n-s)-window holds at most k-t letters A
    n = len(word)
    return max(window_weight_profile(word, n - s)) <= word.count("A") - t


def test_complement_check_examples():
    assert complement_holds("ABABABB", 5, 2) is True
    assert complement_holds("AAABBBBBBB", 6, 2) is False
    assert complement_holds("AB", 1, 1) is is_admissible("AB", 1, 1)


def test_complement_check_equals_is_admissible():
    # the two restatements agree on every configuration
    for n in range(2, 13):
        for word in naive.all_words(n):
            k = word.count("A")
            for s in range(1, n):
                for t in range(0, k + 1):
                    assert complement_holds(word, s, t) is is_admissible(word, s, t)


def test_rotation_invariance():
    for n in range(1, 10):
        for word in naive.all_words(n):
            for s in range(1, n + 1):
                verdicts = {is_admissible(rot, s, 1) for rot in naive.rotations(word)}
                assert len(verdicts) == 1
                # the naive enumeration agrees, up to a quota past every window
                for t in range(s + 2):
                    assert is_admissible(word, s, t) is naive.admissible(word, s, t)
                values = {discrepancy(rot, s) for rot in naive.rotations(word)}
                assert len(values) == 1


@pytest.mark.parametrize("word, m, expected", [
    ("ABAB", 2, 0),
    ("AABB", 2, 2),
])
def test_discrepancy_examples(word, m, expected):
    assert discrepancy(word, m) == expected


def test_discrepancy_names_its_window_length():
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.4, got 5$"):
        discrepancy("ABAB", 5)
    with pytest.raises(ValueError, match="invalid letter"):
        discrepancy("ABX", 5)


def test_discrepancy_mechanical_23_10():
    assert discrepancy(mechanical_word(23, 10), 7) == 1


def test_discrepancy_matches_enumeration():
    for n in range(1, 11):
        for word in naive.all_words(n):
            for m in range(1, n + 1):
                expected = max(abs(2 * w - m) for w in naive.windows(word, m))
                assert discrepancy(word, m) == expected


def test_discrepancy_bound_small():
    # mechanical arrangements meet m - 2*floor(m*k/n) whenever k <= n/2;
    # the full n <= 120 range runs in the acceptance suite
    for n in range(1, 41):
        for k in range(1, n // 2 + 1):
            word = mechanical_word(n, k)
            for m in range(1, n + 1):
                assert discrepancy(word, m) <= m - 2 * (m * k // n)
