"""Brute-force existence search, the necklace enumerator, the pigeonhole certificate, and verify's sweeps."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from math import comb, gcd

import pytest

import naive
from mechwords import (
    AdmissibilityQuery,
    OracleResult,
    brute_force_exists,
    check_balance,
    criterion,
    is_admissible,
    mechanical_word,
    rotation_equivalent,
)
from mechwords import oracle
from mechwords.oracle import _necklaces, verify_sweeps


def test_motivating_instance_has_no_arrangement():
    result = brute_force_exists(AdmissibilityQuery(10, 3, 6, 2))
    assert result == OracleResult(False, None, 12)  # C(10, 3)/10 necklaces


def test_small_admissible_instance():
    result = brute_force_exists(AdmissibilityQuery(7, 3, 5, 2))
    assert result.exists
    # lexicographic enumeration makes the first witness deterministic: the
    # fifth of the C(7, 3)/7 = 5 necklaces
    assert result.witness == "ABABABB"
    assert result.instances_checked == 5
    assert rotation_equivalent(result.witness, "ABABABB")


def test_tight_quota_is_impossible():
    result = brute_force_exists(AdmissibilityQuery(4, 2, 2, 2))
    assert result == OracleResult(False, None, 2)  # AABB and ABAB


def test_cap_guards_blowup():
    with pytest.raises(ValueError, match="above the brute-force cap 20"):
        brute_force_exists(AdmissibilityQuery(21, 2, 11, 1))
    # n = 20 is the largest size the search takes; 20*1 <= 2*10
    result = brute_force_exists(AdmissibilityQuery(20, 2, 10, 1))
    assert result.exists and result.instances_checked == 10


def test_necklaces_obey_burnside():
    # one least rotation per rotation class: (1/n) sum over d | gcd(n, k) of
    # phi(d) C(n/d, k/d) words, strictly increasing
    for n in range(1, 19):
        for k in range(0, n + 1):
            words = list(_necklaces(n, k))
            g = gcd(n, k)
            total = sum(naive.totient(d) * comb(n // d, k // d)
                        for d in range(1, g + 1) if g % d == 0)
            assert len(words) * n == total, (n, k)
            assert all(a < b for a, b in zip(words, words[1:])), (n, k)
            assert all(len(w) == n and w.count("A") == k for w in words), (n, k)
            if n <= 12:
                assert all(w == naive.min_rotation(w)[0] for w in words), (n, k)


def test_matches_combination_search():
    # exists and witness byte for byte against the plain C(n, k) walk
    for n in range(2, 13):
        for k in range(1, n):
            for s in range(1, n):
                for t in range(0, min(k, s) + 1):
                    result = brute_force_exists(AdmissibilityQuery(n, k, s, t))
                    assert (result.exists, result.witness) == \
                        naive.first_admissible(n, k, s, t), (n, k, s, t)


def grid_cells(sizes):
    return [(n, k, s, t) for n in sizes for k in range(1, n) for s in range(1, n)
            for t in range(0, min(k, s) + 1)]


def test_necklaces_are_cached():
    # the grid's queries on one pair walk one tuple: a second call builds
    # nothing, and the next pair replaces it, so one pair's tuple is kept
    first = _necklaces(12, 5)
    assert _necklaces(12, 5) is first
    _necklaces(12, 6)
    assert _necklaces(12, 5) is not first and _necklaces(12, 5) == first


def test_cached_necklaces_answer_in_any_order():
    # queries share the last pair's necklaces; a seeded shuffle interleaves
    # pairs, so most queries start from a fresh buffer and the rest resume one
    cells = grid_cells(range(2, 13))
    _necklaces.cache_clear()
    in_order = {cell: brute_force_exists(AdmissibilityQuery(*cell)) for cell in cells}
    random.Random(10).shuffle(cells)
    for cell in cells:
        result = brute_force_exists(AdmissibilityQuery(*cell))
        assert result == in_order[cell], cell
        assert (result.exists, result.witness) == naive.first_admissible(*cell), cell


def test_cached_necklaces_are_thread_safe():
    # four threads read one pair's buffer at once, in grid order, with the
    # interpreter switching threads as often as it can
    cells = grid_cells((14, 15))
    serial = [brute_force_exists(AdmissibilityQuery(*cell)) for cell in cells]
    _necklaces.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(brute_force_exists, AdmissibilityQuery(*cell))
                       for cell in cells]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_first_hit_reads_one_necklace():
    # a trivial quota stops at the first of the 9,252 necklaces of (20, 10)
    _necklaces.cache_clear()
    try:
        result = brute_force_exists(AdmissibilityQuery(20, 10, 10, 0))
    finally:
        _necklaces.cache_clear()
    assert result == OracleResult(True, "A" * 10 + "B" * 10, 1)


def test_agrees_with_criterion_on_grid():
    # n <= 16 runs in the acceptance suite
    for n in range(2, 10):
        for k in range(1, n):
            for s in range(1, n):
                for t in range(0, min(k, s) + 1):
                    query = AdmissibilityQuery(n, k, s, t)
                    assert brute_force_exists(query).exists == criterion(query)


def test_witness_is_always_valid():
    for n in range(2, 10):
        for k in range(1, n):
            for s in range(1, n):
                for t in range(0, min(k, s) + 1):
                    result = brute_force_exists(AdmissibilityQuery(n, k, s, t))
                    if result.exists:
                        assert is_admissible(result.witness, s, t)
                        assert result.witness.count("A") == k
                    else:
                        assert result.witness is None


def pigeonhole_bound(word, s):
    # the n window weights sum to k*s (each letter A lies in s windows), so
    # the minimum window weighs at most the average, floor(k*s/n)
    return word.count("A") * s // len(word)


def test_pigeonhole_witness_examples():
    assert naive.lightest_window("AAABBBBBBB", 6) == (3, 0)
    assert naive.lightest_window("ABABAB", 2)[1] == pigeonhole_bound("ABABAB", 2) == 1
    assert naive.lightest_window(mechanical_word(10, 3), 6) == (4, 1)  # weight = floor(18/10)


def test_pigeonhole_bound_holds_everywhere():
    for n in range(2, 11):
        for word in naive.all_words(n):
            for s in range(1, n):
                assert naive.lightest_window(word, s)[1] <= pigeonhole_bound(word, s)


def test_pigeonhole_certifies_impossibility():
    # whenever n*t > k*s the minimum window drops below t for every word:
    # it is a concrete certificate that no arrangement works
    for n in range(2, 10):
        for k in range(1, n):
            for s in range(1, n):
                for t in range(0, min(k, s) + 1):
                    if n * t <= k * s:
                        continue
                    for word in naive.words_of_weight(n, k):
                        assert pigeonhole_bound(word, s) < t
                        assert naive.lightest_window(word, s)[1] < t


def stub_grid(monkeypatch):
    # every grid cell agrees without a query, a search or the criterion, so
    # a sweep spends its time on the words
    monkeypatch.setattr(oracle, "AdmissibilityQuery", lambda *cell: cell)
    monkeypatch.setattr(oracle, "brute_force_exists", lambda cell: OracleResult(True, None, 0))
    monkeypatch.setattr(oracle, "criterion", lambda cell: True)


def naive_balance_failures(word):
    # verify's line for each length m <= 2n at which the word leaves
    # floor(m*k/n)..ceil(m*k/n), from the first such window by slicing
    n, k = len(word), word.count("A")
    lines = []
    for m in range(1, 2 * n + 1):
        if not naive.balance_ok(word, m):
            low, high = m * k // n, -(-m * k // n)
            start, weight = next((i, w) for i, w in enumerate(naive.windows(word, m))
                                 if not low <= w <= high)
            lines.append(f"m={m}: window at start {start} has weight {weight}, "
                         f"bounds [{low}, {high}]")
    return lines


def test_verify_sweeps_balance_failures_match_naive_balance(monkeypatch):
    # every word over {A, B} with n <= 10, all weights, stands in for
    # mechanical_word(n, k); each verify_sweeps(10) carries the next word of
    # length n in each slot (n, k), and its balance lines must be those of
    # naive.balance_ok, whether or not the word is on the ceiling list
    stub_grid(monkeypatch)
    pending = {n: list(naive.all_words(n)) for n in range(1, 11)}
    while any(pending.values()):
        carried = {(n, k): pending[n].pop() for n in pending for k in range(1, n + 1)
                   if pending[n]}
        monkeypatch.setattr(oracle, "mechanical_word",
                            lambda n, k: carried.get((n, k), mechanical_word(n, k)))
        counts, failures = verify_sweeps(10)
        assert counts["balance_checks"] == sum(2 * n * n for n in range(1, 11))
        found = {}
        for line in failures:
            if line.startswith("balance "):
                slot, rest = line.removeprefix("balance ").split(" m=", 1)
                found.setdefault(slot, []).append(f"m={rest}")
        expected = {f"n={n} k={k}": lines for (n, k), word in carried.items()
                    if (lines := naive_balance_failures(word))}
        assert found == expected


def test_verify_sweeps_never_scans_a_word_on_the_ceiling_list(monkeypatch):
    # every mechanical word is on the list, so the balance sweep passes
    # without one scan
    def scanned(*args):
        raise RuntimeError("scanned")

    stub_grid(monkeypatch)
    monkeypatch.setattr(oracle, "check_balance", scanned)
    counts, failures = verify_sweeps(40)
    assert failures == []
    assert counts["balance_checks"] == sum(2 * n * n for n in range(1, 41))


def test_verify_sweeps_scans_an_off_list_word_at_every_length(monkeypatch):
    # a rotation by one letter is balanced but off the list unless k = n, so
    # it is scanned at m = 1..2n, in order, with no balance failure
    lengths = {}

    def recorded(word, m):
        lengths.setdefault(word, []).append(m)
        return check_balance(word, m)

    stub_grid(monkeypatch)
    monkeypatch.setattr(oracle, "check_balance", recorded)
    rotated = {(n, k): mechanical_word(n, k)[1:] + mechanical_word(n, k)[:1]
               for n in range(1, 21) for k in range(1, n + 1)}
    monkeypatch.setattr(oracle, "mechanical_word", lambda n, k: rotated[n, k])
    counts, failures = verify_sweeps(20)
    assert not any(line.startswith("balance ") for line in failures)
    assert lengths == {rotated[n, k]: list(range(1, 2 * n + 1))
                       for n in range(1, 21) for k in range(1, n)}
    assert counts["balance_checks"] == sum(2 * n * n for n in range(1, 21))


def test_verify_sweeps_refuses_empty_range(monkeypatch):
    # an n_max below 1 would sweep nothing and pass; it is refused before the
    # first grid cell or word, and 1 itself runs
    def swept(*args):
        raise RuntimeError("swept")

    monkeypatch.setattr(oracle, "mechanical_word", swept)
    for n_max in (0, -3):
        with pytest.raises(ValueError, match=f"^n_max must be positive, got {n_max}$"):
            verify_sweeps(n_max)
    with pytest.raises(RuntimeError, match="swept"):
        verify_sweeps(1)


def test_grid_walks_to_each_columns_boundary(monkeypatch):
    # a stub search whose answer falls as t grows, its boundary drawn up to
    # two quotas either side of floor(k*s/n): verify's criterion lines must
    # be those of asking the stub on every cell, so the walk finds a boundary
    # above the bound and one below it, down to no quota at all
    rng = random.Random(33)
    columns = [(n, k, s) for n in range(2, 13) for k in range(1, n) for s in range(1, n)]
    boundary = {(n, k, s): max(-1, min(min(k, s), k * s // n + rng.choice((-2, -1, 0, 1, 2))))
                for n, k, s in columns}
    assert {boundary[n, k, s] - k * s // n for n, k, s in columns} == {-2, -1, 0, 1, 2}

    def search(query):
        if not 0 <= query.t <= min(query.k, query.s):
            raise ValueError(f"quota out of range: {query}")
        return OracleResult(query.t <= boundary[query.n, query.k, query.s], None, 0)

    monkeypatch.setattr(oracle, "brute_force_exists", search)
    expected = [f"criterion n={n} k={k} s={s} t={t}" for n, k, s, t in grid_cells(range(2, 13))
                if search(AdmissibilityQuery(n, k, s, t)).exists
                != criterion(AdmissibilityQuery(n, k, s, t))]
    counts, failures = verify_sweeps(12)
    assert [line for line in failures if line.startswith("criterion ")] == expected
    assert counts["oracle_cells"] == len(grid_cells(range(2, 13)))


def test_grid_asks_the_search_twice_per_column(monkeypatch):
    # where the theorem holds, each column (n, k, s) is settled by a witness
    # at floor(k*s/n) and an exhaustive miss one quota above: 2 * 506 calls
    asked = []
    search = oracle.brute_force_exists

    def recorded(query):
        result = search(query)
        asked.append((query.n, query.k, query.s, query.t, result.exists))
        return result

    monkeypatch.setattr(oracle, "brute_force_exists", recorded)
    counts, failures = verify_sweeps(12)
    assert failures == []
    assert len(asked) == 1012
    assert asked == [(n, k, s, k * s // n + up, not up)
                     for n in range(2, 13) for k in range(1, n) for s in range(1, n)
                     for up in (0, 1)]
