"""Benchmark of the `mechwords` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
One client in one process and one thread drives `mechwords.cli.main(argv)` in
a closed loop with stdout and stderr captured: the next request starts when
the previous one has returned and its output has been checked by `checker`,
which shares no code with `src/`. Inputs come from `--seed` and are built
before timing starts (see `workloads`). Runs are made of whole passes, each
holding the same sizes of work.

--trace 0 cycles through the workload's passes until S seconds have gone and
reports the end-to-end metrics. The speed of a shared host drifts by 15-30 % within
minutes, more than any bound worth keeping, so every time it reports is
scaled to a fixed machine speed: after each request a fixed interpreter-bound
loop runs for about 5 % of the request's time, and the request's time is
multiplied by the loop's nominal time over its measured time. The loop's
speed follows the program's to within about 3 % per pass, where raw pass
times wander by 9 %.

--trace 1 alternates untraced and traced runs of the first pass for S
seconds and reports the per-layer metrics of that pass, plus the tracing
overhead against the untraced runs, all unscaled. Spans are written to `.bench_trace/` in the
checkout.

`--workload all` runs every workload in turn, each in its own process, and
prints one table. The last line of stdout is always one JSON object.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = 15
REFERENCE_NS = 360_000   # median time of reference() on the host the bounds were set on
REFERENCE_SHARE = 0.05
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import mechwords.cli as cli
cli.build_parser()
elapsed = time.perf_counter() - start
print(repr(elapsed), cli.__file__)
"""


def reference() -> int:
    """A fixed interpreter-bound loop: a ceiling-formula word and a window scan."""
    letters = []
    prev = 0
    for i in range(1, 1001):
        cur = (389 * i + 999) // 1000
        letters.append("A" if cur > prev else "B")
        prev = cur
    word = "".join(letters)
    weight = word[:233].count("A")
    for start in range(1, 1000):
        weight += (word[(start + 232) % 1000] == "A") - (word[start - 1] == "A")
    return weight


def speed_factor(busy_ns: float) -> float:
    """Nominal over measured time of reference(), run for REFERENCE_SHARE of busy_ns."""
    calls = spent = 0
    while not calls or spent < busy_ns * REFERENCE_SHARE:
        start = time.perf_counter_ns()
        reference()
        spent += time.perf_counter_ns() - start
        calls += 1
    return calls * REFERENCE_NS / spent


def execute(cli, argv):
    """Run one request; returns (ns, exit status or raised exception, stdout, stderr).

    `cli.main` is looked up on every call so that the traced run sees the
    tracer's wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a request that raises counts as failed
            status = exc
        elapsed = time.perf_counter_ns() - start
    return elapsed, status, out.getvalue(), err.getvalue()


class Outcomes:
    """Attempted requests and the first few failures."""

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def record(self, argv, status, out, err) -> bool:
        self.attempted += 1
        reason = self.check(argv, status, out, err)
        if reason is None:
            return True
        self.failed += 1
        if len(self.examples) < 5:
            shown = [a if len(a) <= 40 else a[:37] + "..." for a in argv]
            self.examples.append(f"{' '.join(shown)}: {reason}")
        return False


def measure_setup() -> float:
    """Median time for a fresh interpreter to import mechwords.cli and build its parser.

    Each sample is scaled to the fixed machine speed measured right after it.
    """
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True)
        elapsed, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported {path}, not the checkout's sources")
        if attempt:  # the first start also compiles the bytecode cache
            samples.append(float(elapsed) * speed_factor(float(elapsed) * 1e9))
    return statistics.median(samples)


def timed_run(cli, workload, passes, outcomes, seconds):
    """Cycle through whole passes for `seconds`; returns the timing metrics."""
    latencies = []
    completed = raw_ns = 0
    deadline = time.monotonic() + seconds
    while not latencies or time.monotonic() < deadline:
        for argv in passes[len(latencies) // len(passes[0]) % len(passes)]:
            elapsed, status, out, err = execute(cli, argv)
            latencies.append(elapsed * speed_factor(elapsed))
            raw_ns += elapsed
            completed += outcomes.record(argv, status, out, err)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    tail = cuts[workload.tail_pct - 1]
    beyond = sum(1 for ns in latencies if ns > tail)
    print(f"{workload.name} latency_tail_ms is p{workload.tail_pct} of {len(latencies)} "
          f"samples, {beyond} beyond it; times scaled by {sum(latencies) / raw_ns:.3f} "
          "to the fixed machine speed")
    return {
        "throughput_ops_s": (completed / (sum(latencies) / 1e9), "1/s"),
        "latency_p50_ms": (cuts[49] / 1e6, "ms"),
        "latency_tail_ms": (tail / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(cli, requests, outcomes, seconds, trace_path):
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    untraced_ns = traced_ns = output_bytes = passes = 0
    pass_counts = []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        for argv in requests:
            elapsed, status, out, err = execute(cli, argv)
            untraced_ns += elapsed
            outcomes.record(argv, status, out, err)
        before = tracer.counts()
        tracer.install()
        try:
            for index, argv in enumerate(requests):
                tracer.request = (passes, index)
                elapsed, status, out, err = execute(cli, argv)
                traced_ns += elapsed
                output_bytes += len(out.encode()) + len(err.encode())
                outcomes.record(argv, status, out, err)
        finally:
            tracer.uninstall()
        pass_counts.append(tuple(tuple(b - a for a, b in zip(x, y))
                                 for x, y in zip(before, tracer.counts())))
        passes += 1
    if len(set(pass_counts)) != 1:
        outcomes.failed += 1
        outcomes.examples.append("layer counts differ between passes over the same requests")
    tracer.write(trace_path)

    def per_pass(value):
        return value // passes if isinstance(value, int) else value / passes

    total_self = sum(tracer.self_ns.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (per_pass(tracer.calls[layer]), "count")
        metrics[f"{layer}.self_ms"] = (per_pass(tracer.self_ns[layer]) / 1e6, "ms")
        metrics[f"{layer}.self_share"] = (tracer.self_ns[layer] / total_self, "ratio")
        metrics[f"{layer}.errors"] = (per_pass(tracer.errors[layer]), "count")

    def rate(kernel, scale):
        work = tracer.kernel_work[kernel]
        return tracer.kernel_ns[kernel] / scale / work if work else 0.0

    work = {k: per_pass(v) for k, v in tracer.kernel_work.items()}
    queries = per_pass(tracer.kernel_calls["oracle.instances"])
    metrics.update({
        "words.letters_built": (work["words.letters"], "count"),
        "words.ns_per_letter": (rate("words.letters", 1), "ns"),
        "words.balance_windows": (work["words.balance"], "count"),
        "words.ns_per_balance_window": (rate("words.balance", 1), "ns"),
        "constructions.letters_built": (work["constructions.letters"], "count"),
        "constructions.ns_per_letter": (rate("constructions.letters", 1), "ns"),
        "constructions.rotation_letters": (work["constructions.rotation"], "count"),
        "constructions.ns_per_rotation_letter": (rate("constructions.rotation", 1), "ns"),
        "admissibility.windows_scanned": (work["admissibility.windows"], "count"),
        "admissibility.ns_per_window": (rate("admissibility.windows", 1), "ns"),
        "oracle.instances_checked": (work["oracle.instances"], "count"),
        "oracle.instances_per_query": (
            work["oracle.instances"] / queries if queries else 0.0, "count"),
        "oracle.us_per_instance": (rate("oracle.instances", 1e3), "us"),
        "cli.output_bytes": (per_pass(output_bytes), "bytes"),
        "trace.requests": (len(requests), "count"),
        "trace.overhead_ratio": (traced_ns / untraced_ns - 1, "ratio"),
        "trace.accounted_share": (total_self / traced_ns, "ratio"),
    })
    print(f"traced passes: {passes} over {len(requests)} requests; "
          f"spans kept: {len(tracer.spans)}, aggregated paths: {len(tracer.aggregates)}; "
          f"written to {trace_path}", file=sys.stderr)
    return metrics


def run_workload(args) -> int:
    if not (SRC / "mechwords" / "cli.py").is_file():
        print(f"error: no mechwords sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checker
    import workloads
    from mechwords import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    passes = workloads.build_passes(workload, args.seed)
    outcomes = Outcomes(checker.check)
    for argv in workloads.build_warmup(workload, args.seed):
        outcomes.record(argv, *execute(cli, argv)[1:])
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl"
        metrics = traced_run(cli, passes[0], outcomes, args.seconds, trace_path)
    else:
        metrics = timed_run(cli, workload, passes, outcomes, args.seconds)
        metrics["setup_s"] = (measure_setup(), "s")
        metrics["failed_ratio"] = (outcomes.failed / outcomes.attempted, "ratio")
    for example in outcomes.examples:
        print(f"FAILED {example}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload.name} {name} = {shown} {unit}")
    # failed_ratio is 0 on a correct program, so it has no relative spread to
    # bound: the result line carries it as the attempted and failed fields
    metrics.pop("failed_ratio", None)
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("generate", "plan", "check", "verify", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
