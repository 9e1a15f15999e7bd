#!/usr/bin/env python3
"""Output corpus: one sha256 per section over in-process CLI requests.

Each section is a fixed, seeded list of argv lists. The script sends each to
mechwords.cli.main in this process, with stdout and stderr captured, and
hashes repr((argv, exit, stdout, stderr)) for every request in order; an
exception other than the CLI's own exit is hashed as its type and message in
place of the exit status. It prints one JSON line per section: the section,
its request count and the hex digest. Two trees print equal lines exactly
when every request of a section gives the same status and the same bytes, so
a differing line shows where a change altered output.

Sections: check on every word with n <= 8 at every s; check on seeded random
words, rotated mechanical words and the runs A^a B^a at the level bands'
edges; plan on every (n, k, s) with n <= 15 and t in 0..s+1; plan at
n = 10**5 and 10**6; generate in every method and flag combination; verify
1..24 and discrepancy cells; input errors, bad and extreme arguments.

mechwords is imported from PYTHONPATH when it is set, and from this
checkout's src/ otherwise, so another tree is hashed with

    PYTHONPATH=OTHER/src python3 tools/corpus.py

and the two outputs compared line by line. `--scale` multiplies every size
(each at least 1), so a tiny run checks that the corpus still runs. Stdlib
only; it is not part of the test suite. Run from any directory:

    python3 tools/corpus.py [--scale 1]
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mechwords.cli import main as cli_main  # noqa: E402

SEED = 12
MACHINE = ["--format", "machine"]
# the level bytes' band edges and cap (words._lightest_window): runs A^a B^a
# at s = a span a levels
BAND_EDGES = (255, 256, 257, 511, 512, 513, 767, 768, 769, 1022, 1023, 1024, 1025, 2000)


def _all_words(n):
    return ("".join(letters) for letters in itertools.product("AB", repeat=n))


def _mechanical(n, k):
    # the slope-k/n word by the ceiling formula, independent of the library
    return "".join("A" if -(-k * (i + 1) // n) - -(-k * i // n) else "B" for i in range(n))


def _check_small(size):
    forms = ([], ["--verbose"], ["--verbose", *MACHINE], ["--verbose", "--alphabet", "01"],
             [*MACHINE, "--alphabet", "01"])
    for n in range(1, size(8) + 1):
        for word in _all_words(n):
            k = word.count("A")
            for s in range(1, n + 1):
                for form in forms:
                    yield ["check", word, str(s), str(k * s // n), *form]


def _check_foreign(size):
    rng = random.Random(f"{SEED} check")
    forms = ([], ["--verbose"], ["--verbose", *MACHINE])
    cases = []
    for _ in range(size(200)):
        n = rng.randint(1, size(3000))
        word = "".join(rng.choice("AB") for _ in range(n))
        cases.append((word, rng.randint(1, n)))
    for _ in range(size(100)):
        n = rng.randint(1, size(3000))
        word, cut = _mechanical(n, rng.randint(1, n)), rng.randrange(n)
        cases.append((word[cut:] + word[:cut], rng.randint(1, n)))
    for a in sorted({size(a) for a in BAND_EDGES}):
        cases.append(("A" * a + "B" * a, a))
    for word, s in cases:
        floor = word.count("A") * s // len(word)
        for t in (floor, floor + 1):
            for form in forms:
                yield ["check", word, str(s), str(t), *form]


def _plan_small(size):
    forms = ([], MACHINE, ["--alphabet", "01"], [*MACHINE, "--alphabet", "01"])
    for n in range(1, size(15) + 1):
        for k in range(1, n + 1):
            for s in range(1, n + 1):
                for t in range(s + 2):
                    for form in forms:
                        yield ["plan", str(n), str(k), str(s), str(t), *form]


def _plan_large(size):
    rng = random.Random(f"{SEED} plan")
    forms = ([], ["--canonical"], MACHINE, [*MACHINE, "--alphabet", "01"])
    for n in (size(10**5), size(10**6)):
        cells = [(round(n * 0.381966) or 1, n // 3 or 1)]
        cells += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2)]
        for k, s in cells:
            for form in forms:
                yield ["plan", str(n), str(k), str(s), str(k * s // n), *form]


def _generate(size):
    forms = [["--method", method, *canonical, *verbose, *alphabet, *form]
             for method, canonical, verbose, alphabet, form in itertools.product(
                 ("mechanical", "euclid", "smith"), ([], ["--canonical"]), ([], ["--verbose"]),
                 ([], ["--alphabet", "01"]), ([], MACHINE))]
    for n in range(1, size(16) + 1):
        for k in range(n + 2):
            for form in forms:
                yield ["generate", str(n), str(k), *form]


def _verify_and_discrepancy(size):
    for n_max in range(1, size(24) + 1):
        for form in ([], MACHINE):
            yield ["verify", str(n_max), *form]
    for n in range(1, size(16) + 1):
        for k in range(n + 2):
            for m in range(n + 2):
                for form in ([], MACHINE):
                    yield ["discrepancy", str(n), str(k), str(m), *form]


def _input_errors(size):
    huge, long = str(10**30), "9" * 5001
    cases = [
        [], ["plan"], ["frobnicate"], ["plan", "7", "3", "5"], ["plan", "x", "3", "5", "2"],
        ["plan", "7", "0", "5", "2"], ["plan", "7", "8", "5", "2"], ["plan", "0", "0", "1", "0"],
        ["plan", "7", "3", "0", "2"], ["plan", "7", "3", "8", "2"], ["plan", "7", "3", "5", "-1"],
        ["plan", huge, "3", "5", "1"], ["plan", huge, str(10**29), "5", "1"],
        ["plan", long, "3", "5", "1"], ["plan", "7", "3", "5", "2", "--alphabet", "xy"],
        ["plan", "7", "3", "5", "2", "--format", "yaml"],
        ["generate", "0", "0"], ["generate", "7", "9"],
        ["generate", "12", "4", "--method", "smith"],
        ["generate", huge, "3"], ["generate", "7", "3", "--method", "booth"],
        ["check", "", "1", "0"], ["check", "ABCA", "2", "1"], ["check", "abab", "2", "1"],
        ["check", "ABAB", "0", "1"], ["check", "ABAB", "5", "1"], ["check", "ABAB", "2", "-1"],
        ["check", "ABAB", "2", long],
        ["verify"], ["verify", "0"], ["verify", "-3"], ["verify", "201"],
        ["verify", "3", "--n-max", "3"], ["verify", "--n-max", "0"],
        ["discrepancy", "7", "3", "0"], ["discrepancy", "7", "3", "8"],
        ["discrepancy", "0", "0", "1"], ["discrepancy", huge, "3", str(10**29)],
    ]
    for argv in cases:
        yield argv
        if argv:
            yield [*argv, *MACHINE]


SECTIONS = [
    ("check every small word", _check_small),
    ("check random, rotated and run words", _check_foreign),
    ("plan every small cell", _plan_small),
    ("plan at large n", _plan_large),
    ("generate every method and flag", _generate),
    ("verify and discrepancy", _verify_and_discrepancy),
    ("input errors", _input_errors),
]


def _request(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli_main(argv)
        except Exception as exc:  # a fault of the program: hashed, not fatal
            status = f"raised {type(exc).__name__}: {exc}"
    return repr((argv, status, out.getvalue(), err.getvalue())).encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")

    def size(value):
        return max(1, int(value * args.scale))

    for name, requests in SECTIONS:
        digest, count = hashlib.sha256(), 0
        for request in requests(size):
            digest.update(_request(request))
            count += 1
        print(json.dumps({"section": name, "requests": count, "sha256": digest.hexdigest()}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
