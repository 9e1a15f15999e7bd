"""Tests of the benchmark itself: python3 -m pytest perfbench

The checker is held against brute-force definitions, a short seeded run of
every workload must pass all checks, corrupted output must be caught, and the
traced run must count the same work on every pass.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from itertools import product
from math import ceil, gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mechwords import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _mechanical(n, k):
    return "".join("A" if ceil(k * (i + 1) / n) > ceil(k * i / n) else "B" for i in range(n))


def _respond(argv):
    _, status, out, err = run.execute(cli, argv)
    return status, out, err


# --- the checker against brute force ----------------------------------------

def test_mechanical_bytes_is_the_ceiling_formula():
    for n in range(1, 40):
        for k in range(1, n + 1):
            assert checker.mechanical_bytes(n, k).decode() == _mechanical(n, k)
    n, k = 200_003, 77_777  # spans several chunks
    word = checker.mechanical_bytes(n, k)
    assert word.count(b"A") == k and word[-70_000:].decode() == _mechanical(n, k)[-70_000:]


def test_mechanical_word_is_its_own_least_rotation():
    for n in range(1, 30):
        for k in range(1, n + 1):
            word = _mechanical(n, k)
            assert word == min(word[i:] + word[:i] for i in range(n))


def test_window_weights_and_discrepancy_closed_form():
    for n in range(1, 25):
        for k in range(1, n):
            word = _mechanical(n, k)
            for m in range(1, n + 1):
                direct = [(word + word)[i:i + m].count("A") for i in range(n)]
                weights = checker.window_weights(word.encode(), m)
                assert weights.tolist() == direct
                assert checker.discrepancy_closed_form(n, k, m) == max(abs(2 * w - m) for w in direct)


def test_verify_counts_by_enumeration():
    for n_max in (1, 2, 5, 12, 13, 20):
        pairs = sum(1 for n in range(2, n_max + 1) for k in range(1, n) if gcd(n, k) == 1)
        cells = sum(min(k, s) + 1 for n in range(2, min(n_max, 12) + 1)
                    for k, s in product(range(1, n), repeat=2))
        balance = sum(2 * n for n in range(1, n_max + 1) for _ in range(1, n + 1))
        assert checker.verify_counts(n_max) == {
            "equivalence_pairs": pairs, "oracle_cells": cells, "balance_checks": balance}


# --- a short seeded run -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_passes_every_check(name):
    workload = workloads.WORKLOADS[name]
    cycle = [slot.make(0.5, random.Random(7)) for slot in workload.slots]
    outcomes = run.Outcomes(checker.check)
    for argv in cycle:
        outcomes.record(argv, *_respond(argv))
    assert (outcomes.attempted, outcomes.failed) == (len(cycle), 0), outcomes.examples


def test_inputs_follow_the_seed():
    for workload in (workloads.GENERATE, workloads.PLAN, workloads.VERIFY):
        first = workloads.build_passes(workload, seed=3)
        assert first == workloads.build_passes(workload, seed=3)
        assert first != workloads.build_passes(workload, seed=4)
        assert len(first) == workload.passes
        assert all(len(p) == workload.visits * len(workload.slots) for p in first)


def test_request_sizes_cover_their_range():
    sizes = {}
    generate = workloads.build_passes(workloads.GENERATE, seed=1)
    assert generate[0] != generate[1]
    for argv in generate[0]:
        n, k = int(argv[1]), int(argv[2])
        assert 1 <= k < n
        sizes.setdefault(" ".join(argv[3:]), []).append(n)
    for label, ns in sizes.items():
        hi = 10**4 if "--verbose" in label else 10**6
        assert 10**3 <= min(ns) and max(ns) <= hi and max(ns) / min(ns) > (hi / 10**3) ** (5 / 7)
    verify = sorted(int(argv[1]) for argv in workloads.build_passes(workloads.VERIFY, seed=1)[0])
    assert len(set(verify)) == 9 and 8 <= verify[0] <= 12 and 44 <= verify[-1] <= 48
    for workload in workloads.WORKLOADS.values():
        assert workload.visits * len(workload.slots) % 2 == 1, workload.name


# --- corrupted output is caught -----------------------------------------------

def test_swapped_letters_fail_the_check():
    for argv in (["generate", "1009", "400"], ["generate", "1009", "400", "--method", "euclid"],
                 ["generate", "1009", "400", "--method", "smith"], ["plan", "1009", "400", "300", "100"]):
        status, out, err = _respond(argv)
        assert checker.check(argv, status, out, err) is None
        i = out.index("AB")
        assert checker.check(argv, status, out[:i] + "BA" + out[i + 2:], err) is not None


def test_wrong_witness_fails_the_check():
    word = checker.mechanical_bytes(3001, 1234).decode()
    word = word[1000:] + word[:1000]
    argv = ["check", word, "700", "280"]
    status, out, err = _respond(argv)
    assert checker.check(argv, status, out, err) is None
    start = out.split("start ")[1].split(",")[0]
    bad = out.replace(f"start {start},", f"start {int(start) + 1},")
    assert checker.check(argv, status, bad, err) is not None
    assert checker.check(argv, 1 - status, out, err) is not None


class _CorruptingCli:
    """Answers like the real CLI, but every other word it prints has two letters swapped."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = cli.main(argv)
        self.calls += 1
        out = buffer.getvalue()
        if self.calls % 2 == 0:
            i = out.index("AB")
            out = out[:i] + "BA" + out[i + 2:]
        sys.stdout.write(out)
        return status


def test_corrupted_output_raises_failed_ratio():
    requests = [["generate", str(n), "17", "--method", "mechanical"] for n in range(1000, 1010)]
    outcomes = run.Outcomes(checker.check)
    run.timed_run(_CorruptingCli(), workloads.GENERATE, [requests], outcomes, seconds=0.5)
    assert outcomes.attempted >= 2
    assert outcomes.failed == outcomes.attempted // 2


# --- the traced run -------------------------------------------------------------

def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    requests = [["verify", "9"], ["plan", "5000", "1234", "777", "150", "--format", "machine"],
                ["generate", "4000", "1001", "--method", "smith", "--canonical"],
                ["check", "ABABBABBAC", "3", "1"]]
    outcomes = run.Outcomes(checker.check)
    metrics = run.traced_run(cli, requests, outcomes, 0.0,
                             tmp_path / "trace.jsonl")
    assert outcomes.failed == 0, outcomes.examples
    assert cli.main.__module__ == "mechwords.cli" and not hasattr(cli.main, "__wrapped__")
    assert metrics["trace.requests"][0] == 4
    assert 0.9 < metrics["trace.accounted_share"][0] <= 1.0
    assert metrics["words.errors"][0] == 1 and metrics["cli.errors"][0] == 1
    assert metrics["admissibility.windows_scanned"][0] > 2 * 5000
    assert metrics["oracle.instances_checked"][0] > 0
    again = run.traced_run(cli, requests, run.Outcomes(checker.check), 0.0,
                           tmp_path / "again.jsonl")
    for name, (value, unit) in metrics.items():
        if unit in ("count", "bytes"):
            assert again[name][0] == value, name
    lines = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    aggregated = [line for line in lines if "path" in line]
    assert aggregated and sum(line["calls"] for line in aggregated) > len(lines)
    roots = [line for line in lines if line.get("parent") is None and "span" in line]
    assert [line["name"] for line in roots] == ["cli.main"] * 4


def test_tracer_wraps_cross_layer_imports():
    import mechwords.oracle as oracle

    original = oracle.is_admissible
    tracer = Tracer()
    tracer.install()
    try:
        assert oracle.is_admissible is not original
        assert cli._HANDLERS["plan"] is cli.cmd_plan and hasattr(cli.cmd_plan, "__wrapped__")
    finally:
        tracer.uninstall()
    assert oracle.is_admissible is original


# --- the contract -----------------------------------------------------------------

def _result(*args):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_result_line_has_every_metric():
    timed = _result("--workload", "check", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert set(timed) == {"correct", "attempted", "failed", "metrics"}
    assert timed["correct"] and timed["failed"] == 0
    assert set(timed["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in timed["metrics"].values())
    traced = _result("--workload", "check", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in {**timed["metrics"], **traced["metrics"]}.items():
        assert metric["unit"] == units[name]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([*SPEC["command"], "--workload", "check", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0 and "{" not in done.stdout


def test_predictions_match_the_benchmark():
    table = json.loads((HERE / "predictions.json").read_text())
    assert set(table["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in table["workloads"].items():
        workload = workloads.WORKLOADS[name]
        assert entry["slots_per_cycle"] == workloads.describe(workload)
        assert entry["tail_percentile"] == workload.tail_pct
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    for row in table["predictions"]:
        assert set(row["layer_metrics"]) <= layer_names
        assert row["moves"] in e2e_names
        assert set(row["on"]) | set(row["unchanged_on"]) <= set(table["workloads"])
