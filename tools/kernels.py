#!/usr/bin/env python3
"""Kernel timer: the kernels behind the CLI, each timed alone on fixed arguments.

For each row of a fixed table (kernel, size, arguments drawn from a seeded
generator) the script builds the inputs, calls the kernel once untimed, then
times REPEATS calls with time.perf_counter and prints one JSON line: the
kernel, its size and arguments, the median and quartiles in milliseconds, the
Python version and os.cpu_count(). The table and its seed are fixed, so two
checkouts time the same calls and their lines compare row by row. These are
layer figures: an end-to-end claim still needs perfbench/run.py.

`--against DIR` loads DIR/src/mechwords as a second package in the same
process and times every row on both trees: the same inputs, built by this
checkout, and the two trees' calls alternated, the one that goes first
swapping each round. Each line then also gives the other tree's median and
quartiles (against_*), the ratio of the two medians (this tree over DIR, so
below 1 means this tree is faster) and the median and quartiles of the
per-round ratios (ratio_*).
A row whose names DIR's tree lacks prints "missing" with the error in place
of those fields.

`--scale` multiplies every size (the oracle grid and verify_sweeps keep
n_max >= 2), so a tiny run checks that the table still runs. Stdlib only; it
is not part of the test suite. Run from any directory:

    python3 tools/kernels.py [--scale 1] [--against DIR]
"""

import argparse
import functools
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import time
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mechwords  # noqa: E402
import mechwords.cli  # noqa: E402, F401
from mechwords import mechanical_word, smith_quotients, to_bits  # noqa: E402
from mechwords.admissibility import _two_valued  # noqa: E402
from mechwords.words import _lightest_window, _window_weights  # noqa: E402

SEED = 6
REPEATS = 15


def load_tree(root, name):
    """root/src/mechwords loaded as the package `name`, with its cli module.

    The package's relative imports resolve inside that tree, so two trees load
    side by side in one process.
    """
    package = Path(root) / "src" / "mechwords"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def _slope(n, rng, coprime=False):
    k = rng.randint(1, max(1, n - 1))
    while coprime and gcd(n, k) != 1:
        k -= 1
    return k


# A row's setup(size, rng) builds its inputs with this checkout's library and
# returns (arguments, bind); bind(package) looks the kernel up in a tree and
# returns the call to time, so both trees take the same inputs.

# the builders' rows, one setup per alphabet; a row's arguments are drawn from
# its kernel's seed, so both alphabets build the same word at one size
def _mechanical_word(alphabet):
    def setup(n, rng):
        k = _slope(n, rng)
        return {"k": k, "alphabet": alphabet}, lambda package: functools.partial(
            package.mechanical_word, n, k, alphabet=alphabet)
    return setup


def _arrange(alphabet):
    def setup(n, rng):
        k = _slope(n, rng)
        return {"k": k, "alphabet": alphabet}, lambda package: functools.partial(
            package.arrange, n, k, alphabet=alphabet)
    return setup


def _smith_ladder(alphabet):
    def setup(n, rng):
        k = _slope(n, rng, coprime=True)
        quotients = smith_quotients(n, k)
        return {"k": k, "alphabet": alphabet}, lambda package: functools.partial(
            package.smith_ladder, quotients, alphabet=alphabet)
    return setup


def _mechanical_window(n, rng):
    k, m = _slope(n, rng), rng.randint(1, n)
    return {"k": k, "m": m}, lambda package: functools.partial(
        package.mechanical_window, n, k, m)


def _canonical_rotation(n, rng):
    # a rotation of a mechanical word, whose least rotation is the word itself
    k, cut = _slope(n, rng), rng.randrange(n)
    word = mechanical_word(n, k)
    word = word[cut:] + word[:cut]
    return {"k": k, "cut": cut}, lambda package: functools.partial(
        package.canonical_rotation, word)


def _seeded_word(n):
    # a random word and a window length, drawn from the words._window_weights
    # row's seed whichever row asks: at one size every row built on it times
    # the same input
    rng = random.Random(f"{SEED} words._window_weights")
    word = "".join(rng.choice("AB") for _ in range(n))
    return word, rng.randint(1, n)


def _kernel_inputs(word, s):
    # the word's digits and first window's weight, which check computes once
    # for all its kernels
    return to_bits(word), word.count("A", 0, s)


def _window_weights_row(n, rng):
    word, m = _seeded_word(n)
    return {"word": "random", "m": m}, lambda package: functools.partial(
        package.words._window_weights, word, m)


def _lightest_window_row(n, rng):
    word, m = _seeded_word(n)
    bits, head = _kernel_inputs(word, m)
    return {"word": "random", "m": m}, lambda package: functools.partial(
        package.words._lightest_window, bits, m, head)


def _levels_and_weights(word, s):
    # check --verbose on a word the parity kernel refuses: the block kernel
    # with its levels, then the text line's renderer
    bits, head = _kernel_inputs(word, s)

    def bind(package):
        lightest, weights = package.words._lightest_window, package.cli._weights

        def call():
            _, low, top, levels = lightest(bits, s, head, True)
            return weights(low, top, levels, " ")
        return call
    return _lightest_window(bits, s, head, True)[2], bind


def _levels_row(n, rng):
    word, m = _seeded_word(n)
    top, bind = _levels_and_weights(word, m)
    return {"word": "random", "m": m, "top": top}, bind


def _levels_two_bands_row(n, rng):
    # the seeded word behind a run of 300 letters A and 300 B, at m = 300:
    # its windows weigh 0 to 300, two bands of 256 levels
    word, _ = _seeded_word(n)
    m = min(300, n // 2)
    top, bind = _levels_and_weights(("A" * m + "B" * m + word)[:n], m)
    return {"word": "run + random", "m": m, "top": top}, bind


def _two_valued_bind(word, k, s):
    bits, head = _kernel_inputs(word, s)
    return lambda package: functools.partial(package.admissibility._two_valued, bits, k, s, head)


def _excess(n, rng):
    k, s = _slope(n, rng), rng.randint(1, n)
    word = mechanical_word(n, k)
    return {"k": k, "s": s}, _two_valued_bind(word, k, s)


def _excess_rotated(n, rng):
    # a rotation of a mechanical word: every profile is two-valued, so the
    # kernel accepts it
    k, s, cut = _slope(n, rng), rng.randint(1, n), rng.randrange(n)
    word = mechanical_word(n, k)
    word = word[cut:] + word[:cut]
    return {"k": k, "s": s, "cut": cut}, _two_valued_bind(word, k, s)


def _excess_one_swap(n, rng):
    # a mechanical word with one A and one B exchanged outside the first
    # window, at an s where some windows differ by two: the seed test passes
    # and the certificate refuses, the most the kernel adds to a word that
    # check then scans. With one letter A or one letter B every profile is
    # two-valued, so 2 <= k <= n - 2
    while True:
        k, s = rng.randint(2, n - 2), rng.randint(1, n - 2)
        i, j = rng.sample(range(s, n), 2)
        word = list(mechanical_word(n, k))
        if word[i] != word[j]:
            word[i], word[j] = word[j], word[i]
            word = "".join(word)
            weights = _window_weights(word, s)
            if max(weights) - min(weights) > 1:
                break
    return {"k": k, "s": s, "swap": [i, j]}, _two_valued_bind(word, k, s)


def _weights(sep, low=None):
    # low fixed at 999 takes the padding delete that low + 1 = 10**j needs
    def setup(n, rng):
        k, s = _slope(n, rng), rng.randint(1, n)
        bits, head = _kernel_inputs(mechanical_word(n, k), s)
        _, drawn, _, excess = _two_valued(bits, k, s, head)
        shown = drawn if low is None else low
        return ({"k": k, "s": s, "low": shown, "sep": sep},
                lambda package: functools.partial(package.cli._weights, shown, 1, excess, sep))
    return setup


def _oracle_grid(n_max, rng):
    # verify's grid alone: the search at each column's boundary against
    # criterion on every cell
    def bind(package):
        grid = package.oracle._grid

        def call():
            _, failures = grid(n_max)
            if failures:
                raise RuntimeError(f"grid disagrees: {failures[0]}")
        return call
    return {}, bind


def _verify_sweeps(n_max, rng):
    # all three of verify's sweeps; past n_max = 12 the grid is fixed and the
    # equivalence and balance sweeps grow
    return {}, lambda package: functools.partial(package.verify_sweeps, n_max)


# (kernel, size, setup); setup(size, rng) -> (arguments, bind)
TABLE = [
    ("mechanical_word", 10**6, _mechanical_word("AB")),
    ("mechanical_word", 10**6, _mechanical_word("01")),
    ("arrange", 10**6, _arrange("AB")),
    ("arrange", 10**6, _arrange("01")),
    ("smith_ladder", 10**6, _smith_ladder("AB")),
    ("smith_ladder", 10**6, _smith_ladder("01")),
    ("mechanical_word", 10**4, _mechanical_word("AB")),
    ("arrange", 10**4, _arrange("AB")),
    ("smith_ladder", 10**4, _smith_ladder("AB")),
    ("mechanical_window", 10**6, _mechanical_window),
    ("canonical_rotation", 10**6, _canonical_rotation),
    ("words._window_weights", 10**5, _window_weights_row),
    ("words._lightest_window", 10**5, _lightest_window_row),
    ("words._lightest_window", 10**3, _lightest_window_row),
    ("words._lightest_window leveled + cli._weights", 10**5, _levels_row),
    ("words._lightest_window leveled + cli._weights", 10**3, _levels_row),
    ("words._lightest_window leveled + cli._weights two bands", 10**5, _levels_two_bands_row),
    ("admissibility._two_valued", 10**6, _excess),
    ("admissibility._two_valued rotated", 10**5, _excess_rotated),
    ("admissibility._two_valued one swap", 10**5, _excess_one_swap),
    ("cli._weights text", 10**6, _weights(" ")),
    ("cli._weights machine", 10**6, _weights(", ")),
    ("cli._weights text, low 999", 10**6, _weights(" ", 999)),
    ("oracle grid", 12, _oracle_grid),
    ("oracle.verify_sweeps", 48, _verify_sweeps),
    ("oracle.verify_sweeps", 200, _verify_sweeps),
]


def _timed(calls):
    # REPEATS rounds, one timed call of each in a round; the order reverses
    # every round, so neither call always runs first
    times = [[] for _ in calls]
    for round_ in range(REPEATS):
        order = list(enumerate(calls))
        for j, call in order[::-1] if round_ % 2 else order:
            start = time.perf_counter()
            call()
            times[j].append((time.perf_counter() - start) * 1e3)
    return times


def _quartiles(values, prefix="", unit="_ms"):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {f"{prefix}median{unit}": round(median, 4), f"{prefix}q1{unit}": round(q1, 4),
            f"{prefix}q3{unit}": round(q3, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--against", metavar="DIR",
                        help="a second checkout whose src/mechwords is timed beside this one")
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    other = load_tree(args.against, "mechwords_against") if args.against else None
    for name, size, setup in TABLE:
        n = max(2, int(size * args.scale))
        arguments, bind = setup(n, random.Random(f"{SEED} {name}"))
        calls, fields = [bind(mechwords)], {}
        if other is not None:
            try:
                calls.append(bind(other))
            except AttributeError as exc:
                fields = {"missing": str(exc)}
        for call in calls:
            call()
        times = _timed(calls)
        fields = {**_quartiles(times[0]), **fields}
        if len(times) == 2:
            fields.update(_quartiles(times[1], "against_"))
            fields["ratio"] = round(statistics.median(times[0]) / statistics.median(times[1]), 4)
            fields.update(_quartiles([a / b for a, b in zip(*times)], "ratio_", ""))
        print(json.dumps({
            "kernel": name, "n": n, **arguments, "repeats": REPEATS, **fields,
            "python": platform.python_version(), "cpu_count": os.cpu_count()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
