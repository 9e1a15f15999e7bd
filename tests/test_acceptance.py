"""Acceptance sweeps, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every check is exact (zero tolerance); expected values come from independent
enumeration, never from the code paths under test.
"""

import json
from contextlib import contextmanager
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import naive
from mechwords import (
    AdmissibilityQuery,
    arrange,
    brute_force_exists,
    criterion,
    discrepancy,
    euclid_trace,
    mechanical_word,
    oracle,
    rotation_equivalent,
    smith_ladder,
    smith_quotients,
    words,
)
from mechwords.cli import main


@contextmanager
def criterion_line(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def window_weights_by_length(word, max_m):
    """All circular window weights by independent prefix-sum enumeration.

    Returns an int32 array W with W[m-1, start] = weight of the length-m
    window at `start`, for m = 1..max_m (max_m may reach 2n; the word is
    tripled so every read is a plain slice). Row `start` of a sliding view
    over the prefix sums holds prefix[start:start + max_m + 1], so each
    weight is one subtraction and no index array is built.
    """
    n = len(word)
    # a leading B gives the prefix sums their initial 0
    is_a = np.frombuffer(("B" + word * 3).encode(), np.uint8) == ord("A")
    prefix = np.cumsum(is_a, dtype=np.int32)
    rows = sliding_window_view(prefix, max_m + 1)[:n]
    return (rows[:, 1:] - rows[:, :1]).T


def test_1_criterion_equals_exhaustive_search():
    with criterion_line("1 criterion-vs-oracle grid n<=16"):
        cells = 0
        for n in range(2, 17):
            if n == 13:
                assert cells == 2222  # the n <= 12 grid of `verify`
            for k in range(1, n):
                for s in range(1, n):
                    for t in range(0, min(k, s) + 1):
                        query = AdmissibilityQuery(n, k, s, t)
                        assert brute_force_exists(query).exists == criterion(query), \
                            f"mismatch at {query}"
                        cells += 1
        assert cells == 6680


def test_2_balance_bounds_full_range():
    with criterion_line("2 balance bounds n<=200, m<=2n"):
        for n in range(1, 201):
            ms = np.arange(1, 2 * n + 1)
            for k in range(1, n + 1):
                weights = window_weights_by_length(mechanical_word(n, k), 2 * n)
                low = (ms * k) // n
                high = -((-ms * k) // n)
                assert (weights.min(axis=1) >= low).all(), (n, k)
                assert (weights.max(axis=1) <= high).all(), (n, k)


def test_3_golden_arrangement_23_10():
    with criterion_line("3 golden example (23, 10)"):
        assert arrange(23, 10) == "ABBABABABABBABABABBABAB"
        assert euclid_trace(23, 10) == ([2, 3, 3], [3, 1, 0])


def test_4_golden_arrangement_87_36():
    with criterion_line("4 golden example (87, 36)"):
        word = arrange(87, 36)
        block = word[:29]
        assert word == block * 3
        assert len(block) == 29 and block.count("A") == 12
        assert block == "ABBABAB" "ABBAB" "ABBAB" "ABBABAB" "ABBAB"
        quotients, remainders = euclid_trace(87, 36)
        assert quotients == [2, 2, 2, 2]
        # the gcd is the last nonzero remainder
        assert remainders[-2:] == [3, 0]


def test_5_three_way_equivalence():
    with criterion_line("5 three-way equivalence, coprime n<=200"):
        pairs = 0
        for n in range(2, 201):
            for k in range(1, n):
                if gcd(n, k) != 1:
                    continue
                built = arrange(n, k)
                from_recursion = smith_ladder(smith_quotients(n, k))[-1]
                mechanical = mechanical_word(n, k)
                assert rotation_equivalent(built, from_recursion), (n, k)
                assert rotation_equivalent(built, mechanical), (n, k)
                assert rotation_equivalent(from_recursion, mechanical), (n, k)
                # closed up as A...B, the recursion's word has the ceiling
                # formula's prefix counts: ceil(k*i/n) letters A in i letters
                closed = "A" + from_recursion[:-2] + "B"
                assert closed == naive.ceiling_word(n, k), (n, k)
                assert closed == mechanical, (n, k)
                pairs += 1
        assert pairs == sum(1 for n in range(2, 201) for k in range(1, n)
                            if gcd(n, k) == 1)


def test_6_motivating_instance(capsys):
    with criterion_line("6 motivating instance (10, 3, 6, 2)"):
        code = main(["plan", "10", "3", "6", "2"])
        out = capsys.readouterr().out
        assert code == 2
        assert "nt = 20 > ks = 18" in out
        code = main(["plan", "10", "3", "6", "2", "--format", "machine"])
        record = json.loads(capsys.readouterr().out)
        assert code == 2
        assert record["verdict"] == "impossible"
        assert (record["nt"], record["ks"]) == (20, 18)
        result = brute_force_exists(AdmissibilityQuery(10, 3, 6, 2))
        assert not result.exists
        assert result.instances_checked == 12  # C(10, 3)/10 necklaces


def test_7_discrepancy_bound():
    with criterion_line("7 discrepancy closed form all k, bound k<=n/2, n<=120"):
        above_bound = 0  # k > n/2: window lengths whose value exceeds the bound
        for n in range(1, 121):
            ms = np.arange(1, n + 1)
            for k in range(1, n + 1):
                weights = window_weights_by_length(mechanical_word(n, k), n)
                disc = np.abs(2 * weights - ms[:, None]).max(axis=1)
                low, high = (ms * k) // n, -((-ms * k) // n)
                closed = np.maximum(np.abs(2 * low - ms), np.abs(2 * high - ms))
                assert (disc == closed).all(), (n, k)
                bound = ms - 2 * low
                if 2 * k <= n:
                    assert (disc <= bound).all(), (n, k)
                else:
                    above_bound += int((disc > bound).sum())
        # the library's own operation agrees with the enumeration
        for n in range(1, 41):
            for k in range(1, n + 1):
                word = mechanical_word(n, k)
                weights = window_weights_by_length(word, n)
                ms = np.arange(1, n + 1)
                disc = np.abs(2 * weights - ms[:, None]).max(axis=1)
                for m in range(1, n + 1):
                    assert discrepancy(word, m) == disc[m - 1]
        print(f"\n  (k > n/2 regime: {above_bound} window lengths exceed "
              "m - 2*floor(m*k/n); the exact closed form holds there too)")


def test_8_non_coprime_periodicity():
    with criterion_line("8 non-coprime periodicity n<=150"):
        for n in range(2, 151):
            for k in range(1, n):
                d = gcd(n, k)
                if d == 1:
                    continue
                word = arrange(n, k)
                prefix = word[:n // d]
                assert word == prefix * d, (n, k)
                assert prefix == arrange(n // d, k // d), (n, k)


def test_9_recurrence_round_trip():
    with criterion_line("9 recurrence round trip, coprime n<=500"):
        for n in range(2, 501):
            for k in range(1, n):
                if gcd(n, k) == 1:
                    quotients = euclid_trace(n, k)[0]
                    assert naive.from_quotients(quotients) == (n, k)


def test_10_mechanical_necklace_is_the_only_all_window_optimum():
    with criterion_line("10 mechanical necklace unique optimum for every s, n<=18"):
        def optimal_everywhere(word, windows):
            n, k = len(word), word.count("A")
            return all(min(windows(word, s)) >= k * s // n for s in range(1, n + 1))

        necklaces = 0
        for n in range(1, 19):
            for k in range(1, n + 1):
                weight_k = list(oracle._necklaces(n, k))
                necklaces += len(weight_k)
                found = [word for word in weight_k
                         if optimal_everywhere(word, words._window_weights)]
                assert found == [mechanical_word(n, k)], (n, k, found)
        assert necklaces == 31219
        # an independent reference for n <= 12: every word that is its own
        # least rotation stands for its necklace, and windows come by slicing
        for n in range(1, 13):
            optimal = {}
            for word in naive.all_words(n):
                if ("A" in word and naive.min_rotation(word)[0] == word
                        and optimal_everywhere(word, naive.windows)):
                    optimal.setdefault(word.count("A"), []).append(word)
            assert optimal == {k: [mechanical_word(n, k)] for k in range(1, n + 1)}, n
