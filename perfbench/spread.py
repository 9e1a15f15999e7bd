"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads generate plan] [--seeds 10] [--first-seed 1]

Runs the command in BENCHMARK.json once per seed on each workload, one run at
a time, from the current directory (a checkout root). For every end-to-end
metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)`, and their distance as a share of the
median next to the metric's bound. Spreads above a third of the bound are
flagged. `--save FILE` keeps the raw values, to compare two sets of runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()

    raw = {}
    for workload in args.workloads:
        values = raw[workload] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            flag = "  <-- above a third of the bound" if share > metric["bound"] / 3 else ""
            print(f"{workload:9} {metric['name']:17} median {median:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {share:6.3f} "
                  f"bound {metric['bound']}{flag}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
