"""The one input domain: every layer and the CLI take and refuse the same values.

Pairs need 1 <= k <= n, windows 1 <= s <= n, quotas t >= 0. The edge cells
k == n (the all-A word) and s == n (the whole circle as one window) are
answered like any other cell, checked here against the independent searches
of `naive`.
"""

import json

import pytest

import naive
from mechwords import (
    AdmissibilityQuery,
    arrange,
    brute_force_exists,
    check_balance,
    criterion,
    euclid_trace,
    is_admissible,
    mechanical_window,
    mechanical_word,
    smith_quotients,
    symbol_stages,
)
from mechwords.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n, k", [(5, 0), (5, 6), (0, 1), (-3, 1)])
def test_bad_pair_refused_alike_everywhere(capsys, n, k):
    message = f"slope k/n needs 0 < k <= n, got k={k}, n={n}"
    calls = [
        lambda: mechanical_word(n, k),
        lambda: mechanical_window(n, k, 1),
        lambda: euclid_trace(n, k),
        lambda: arrange(n, k),
        lambda: symbol_stages(n, k),
        lambda: smith_quotients(n, k),
        lambda: AdmissibilityQuery(n, k, 1, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message
    for argv in (["generate", n, k], ["plan", n, k, 1, 0], ["discrepancy", n, k, 1]):
        assert run(capsys, *map(str, argv)) == (1, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("word, s, t, message", [
    ("", 1, -1, "word must be non-empty"),
    ("", 0, 0, "word must be non-empty"),
    ("AXB", 9, -1, "invalid letter(s) ['X']: words use only 'A' and 'B'"),
    ("AB", 3, -1, "s must be in 1..2, got 3"),
    ("AB", 0, 0, "s must be in 1..2, got 0"),
    ("AB", 1, -1, "t must be non-negative"),
])
def test_bad_check_refused_alike_in_library_and_cli(capsys, word, s, t, message):
    # arguments are checked in the order given, so both report the first error
    with pytest.raises(ValueError) as excinfo:
        is_admissible(word, s, t)
    assert str(excinfo.value) == message
    assert run(capsys, "check", word, str(s), str(t)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("m", [0, -1, -10**20])
def test_bad_factor_length_refused_alike(m):
    # a factor length of the periodic word is any m >= 1; both library calls
    # that take one refuse the rest with one message, after their pair or
    # word. No CLI command reaches either check
    for call in (lambda: mechanical_window(7, 3, m), lambda: check_balance("ABABABB", m)):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == f"factor length must be positive, got {m}"
    with pytest.raises(ValueError, match="^slope k/n needs 0 < k <= n, got k=0, n=7$"):
        mechanical_window(7, 0, m)
    with pytest.raises(ValueError, match="^word must be non-empty$"):
        check_balance("", m)


def test_full_pair_constructions_answer():
    assert euclid_trace(5, 5) == ([1], [0])
    assert arrange(5, 5) == "AAAAA"
    assert symbol_stages(5, 5) == []
    assert mechanical_word(5, 5) == "AAAAA"
    with pytest.raises(ValueError, match=r"^n and k not coprime \(gcd 5\)$"):
        smith_quotients(5, 5)
    assert smith_quotients(1, 1) == [0]


def edge_cells(n_max):
    for n in range(2, n_max + 1):
        for k in range(1, n + 1):
            for s in range(1, n + 1):
                if k == n or s == n:
                    # one quota past min(k, s), so impossible cells occur too
                    for t in range(0, min(k, s) + 2):
                        yield n, k, s, t


def test_edge_cells_match_exhaustive_search(capsys):
    cells = 0
    for n, k, s, t in edge_cells(10):
        cells += 1
        query = AdmissibilityQuery(n, k, s, t)
        result = brute_force_exists(query)
        assert result.exists == criterion(query), (n, k, s, t)
        assert (result.exists, result.witness) == naive.first_admissible(n, k, s, t)
        code, out, _ = run(capsys, "plan", *map(str, (n, k, s, t)), "--format", "machine")
        record = json.loads(out)
        if not result.exists:
            assert (code, record["verdict"]) == (2, "impossible")
            continue
        profile = naive.windows(record["word"], s)
        assert code == 0 and record["word"] == mechanical_word(n, k)
        assert record["profile"] == profile
        assert record["witness_weight"] == min(profile) >= t
        assert record["witness_start"] == profile.index(min(profile))
    assert cells == 582


def test_generate_full_pair_prints_all_a(capsys):
    for n in range(1, 11):
        for method in ("mechanical", "euclid", "smith"):
            for flags in ([], ["--canonical"]):
                code, out, err = run(capsys, "generate", str(n), str(n),
                                     "--method", method, *flags)
                if method == "smith" and n > 1:
                    assert (code, err) == (1, f"error: n and k not coprime (gcd {n})\n")
                else:
                    assert (code, out) == (0, "A" * n + "\n"), (n, method, flags)
