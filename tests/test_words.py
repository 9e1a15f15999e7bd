"""Word primitives: parsing, mechanical words, balance."""

import random
from math import gcd

import numpy as np
import pytest

import naive
from mechwords import check_balance, mechanical_word, parse_word, to_bits
from mechwords.words import (
    _DROP4, _LOW4, _PEAK4, _PREFIX4, _SUM4, _interleaved, _lifted, _lightest_window,
    _merged, _window_weights)


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
            assert mechanical_word(n, k) == naive.ceiling_word(n, k), (n, k)


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


def lightest_window(word, s):
    # the kernel on a word over {A, B}, given its digits and first window;
    # without levels asked for it gives neither top nor levels
    start, weight, top, levels = _lightest_window(to_bits(word), s, word.count("A", 0, s))
    assert top is None and levels is None
    return start, weight


def test_lightest_window_matches_enumeration_on_every_small_word():
    # one to three 4-step keys and every s; on ties the first start wins
    for n in range(1, 13):
        for word in naive.all_words(n):
            for s in range(1, n + 1):
                assert lightest_window(word, s) == naive.lightest_window(word, s), (word, s)


def test_lightest_window_at_every_residue_mod_64():
    # n = 64q + r for every r, so every count of zero steps that pads the last
    # 64-step block is met; s at both ends and drawn
    rng = random.Random(29)
    for r in range(64):
        for q in (0, 1, 2, 5):
            n = 64 * q + r
            if n == 0:
                continue
            word = "".join(rng.choice("AB") for _ in range(n))
            for s in {1, n, rng.randint(1, n), rng.randint(1, n)}:
                assert lightest_window(word, s) == naive.lightest_window(word, s), (n, s)


def test_lightest_window_on_runs_that_fill_the_lanes():
    # A^a B^b, a single A, all A and all B: s spots apart a long run of B
    # meets a run of A, so a 64-step block can step +1 (or -1) at every step,
    # its sum reaching +64 (or -64) and its low -63, the ends of the lanes
    sums = set()
    for n in (64, 127, 128, 192, 256, 300, 513):
        for a in (0, 1, n // 3, n // 2, n - 1, n):
            word = "A" * a + "B" * (n - a)
            for s in {1, 2, n // 3 or 1, n // 2 or 1, n - 1 or 1, n}:
                weights = naive.windows(word, s)
                assert lightest_window(word, s) == naive.lightest_window(word, s), (n, a, s)
                sums.update((weights + weights)[i + 64] - weights[i] for i in range(0, n, 64))
    assert {-64, 64} <= sums


def test_lightest_window_matches_prefix_sums_at_1e5():
    rng = random.Random(30)
    n = 10**5
    word = "".join(rng.choice("AB") for _ in range(n))
    for s in (1, 2, 63, 64, 65, rng.randint(1, n), n // 2, n - 1, n):
        assert lightest_window(word, s) == naive.lightest_window_by_prefix_sums(word, s), s


def byte_lanes(*blocks):
    return [np.frombuffer(block, np.uint8).astype(np.int64) for block in blocks]


@pytest.mark.parametrize("sums4, lows4", [(_SUM4, _LOW4), (_DROP4, _PEAK4)],
                         ids=["sum-low", "drop-peak"])
def test_merged_on_every_lane_pair(sums4, lows4):
    # every (sum, low) pair, stored plus 64, that a block can hold at 4 steps,
    # then at 8, 16 and 32, built upward from the 4-step tables and kept as
    # sum * 256 + low: every ordered pair of them is one pair of lanes of a
    # single _merged call, and each merged lane must be the block rule's. No
    # word is built, so lanes that no word meets are checked too
    sums, lows = byte_lanes(sums4, lows4)
    codes = np.unique(sums * 256 + lows)
    counts = []
    for _ in range(4):
        a, b = np.repeat(codes, len(codes)), np.tile(codes, len(codes))
        sa, la, sb, lb = a >> 8, a & 255, b >> 8, b & 255
        counts.append(len(a))
        sums, lows = _merged(np.stack([sa, sb], axis=1).astype(np.uint8).tobytes(),
                             np.stack([la, lb], axis=1).astype(np.uint8).tobytes())
        sums, lows = byte_lanes(sums, lows)
        assert (sums == sa + sb - 64).all() and (lows == np.minimum(la, sa + lb - 64)).all()
        codes = np.unique(sums * 256 + lows)
    assert counts == [324, 2704, 28224, 350464]


def test_lifted_on_every_lane_pair():
    # every (lane, byte) pair the levels path adds: a lane holds a weight
    # minus the lightest, 0..1023 up to the cap, and a byte the sum of a block
    # of at most 32 steps or a prefix p_j, plus 64, so 32..96; a level is never
    # negative, so only pairs with lane + byte >= 64 occur. One _lifted call
    # takes them all, and each lane must be lane + byte - 64. No word is built,
    # so pairs that no word meets are checked too
    assert set(b"".join(_PREFIX4)) == set(range(61, 68))
    rel, byte = (grid.ravel() for grid in np.meshgrid(np.arange(1024), np.arange(32, 97)))
    kept = rel + byte >= 64
    rel, byte = rel[kept], byte[kept]
    assert len(rel) == 66032
    lanes = rel.astype(">u2").tobytes()
    (lifted,) = _lifted(lanes, byte.astype(np.uint8).tobytes())
    assert (np.frombuffer(lifted, ">u2") == rel + byte - 64).all()
    # the last step's layout: four byte strings, 16-bit lane by lane
    strings = (lanes, lifted, lifted[::-1], lanes[::-1])
    assert _interleaved(*strings) == b"".join(
        string[i:i + 2] for i in range(0, len(lanes), 2) for string in strings)


def window_levels(word, s):
    # the kernel on a word over {A, B} with levels asked for, its levels read
    # as ints; None in their place past its cap
    start, low, top, levels = _lightest_window(
        to_bits(word), s, word.count("A", 0, s), leveled=True)
    if levels is None:
        return low, top, start, None
    if top >= 256:
        levels = [256 * band + level for band, level in zip(levels[0::2], levels[1::2])]
    return low, top, start, list(levels)


def check_levels(word, s, weights):
    low = min(weights)
    assert window_levels(word, s) == (
        low, max(weights) - low, weights.index(low), [w - low for w in weights]), (word, s)


def test_window_levels_match_enumeration_on_every_small_word():
    # one to three 4-step blocks, every residue of n mod 4, and every s
    for n in range(1, 11):
        for word in naive.all_words(n):
            for s in range(1, n + 1):
                check_levels(word, s, naive.windows(word, s))


def test_window_levels_at_every_residue_mod_64():
    # every count of zero steps that pads the last 64-step block, whose
    # windows the levels must drop
    rng = random.Random(30)
    for r in range(64):
        for q in (1, 2, 5):
            n = 64 * q + r
            word = "".join(rng.choice("AB") for _ in range(n))
            for s in {1, n, rng.randint(1, n)}:
                check_levels(word, s, naive.windows(word, s))


def test_window_levels_at_the_band_edges():
    # A^a B^b with s = a <= b spans exactly a levels: one band to 255, two
    # from 256, and the cap at 4 bands; the same with its first letter moved
    # to the end, which starts the lightest window inside a block, and with
    # a random tail
    rng = random.Random(31)
    for span in (255, 256, 257, 511, 512, 513, 767, 768, 769, 1022, 1023):
        for b in (span, span + 3):
            base = "A" * span + "B" * b
            tail = "".join(rng.choice("AB") for _ in range(rng.randint(1, 7)))
            for word in (base, base[1:] + base[0], base + tail):
                weights = naive.windows_by_prefix_sums(word, span).tolist()
                check_levels(word, span, weights)
                assert window_levels(word, span)[1] == max(weights) - min(weights) >= span - 1
    # past the cap: the lightest window, at the first B, and top, but no levels
    for span in (1024, 1025, 2000):
        assert window_levels("A" * span + "B" * span, span) == (0, span, span, None)


def test_window_levels_match_prefix_sums_at_1e5():
    # random words at about 10**5, n mod 4 in 0..3: spans of about 100 to a
    # few hundred levels, one band or two
    rng = random.Random(32)
    for n in (10**5, 10**5 + 1, 10**5 + 2, 10**5 - 1):
        word = "".join(rng.choice("AB") for _ in range(n))
        for s in (rng.randint(1, n), n // 2):
            weights = naive.windows_by_prefix_sums(word, s)
            low = int(weights.min())
            result = window_levels(word, s)
            assert result[:3] == (low, int(weights.max()) - low, int(weights.argmin())), (n, s)
            assert result[3] == (weights - low).tolist(), (n, s)
