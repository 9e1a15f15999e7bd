#!/usr/bin/env python3
"""Mutant catalogue: hand-made faults in src/ and the tests that must catch them.

Each entry names a file under src/mechwords, an exact source snippet, its
replacement, the pytest node ids that must catch it, and what is expected:
"killed" (a named test fails, or the run hangs past the timeout) or
"equivalent" (the mutant behaves like the program, so every named test
passes; the comment above the entry says why). For each entry the script
copies src/ to a temporary directory, applies that one replacement there and
runs only the named tests against the copy.

It exits 1 when a snippet does not occur exactly once in its file (the
catalogue must follow each refactor), when the named tests fail on the
unmutated copy, or when an outcome differs from its expectation. Stdlib only;
it is not part of the test suite. Run from any directory:

    python3 tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# seconds a mutant's tests may run before it counts as killed; each entry's
# tests take about a second, and a mutant that loops forever must not stall
TIMEOUT = 20


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    expect: str = "killed"


ROTATION_TESTS = (
    "tests/test_constructions.py::test_canonical_rotation_golden",
    "tests/test_constructions.py::test_canonical_rotation_matches_enumeration",
    "tests/test_constructions.py::test_canonical_rotation_of_rotated_mechanical_words",
)
BALANCE_TESTS = (
    "tests/test_oracle.py::test_verify_sweeps_balance_failures_match_naive_balance",
    "tests/test_oracle.py::test_verify_sweeps_never_scans_a_word_on_the_ceiling_list",
    "tests/test_oracle.py::test_verify_sweeps_scans_an_off_list_word_at_every_length",
)
PLAN_RECORD_TESTS = (
    "tests/test_cli.py::test_plan_machine_record_is_json_dumps_of_its_fields",)
EXCESS_TESTS = ("tests/test_admissibility.py::test_two_valued_iff_profile_is_two_valued",)
LIGHTEST_TESTS = (
    "tests/test_words.py::test_lightest_window_matches_enumeration_on_every_small_word",
    "tests/test_words.py::test_lightest_window_at_every_residue_mod_64",
    "tests/test_words.py::test_lightest_window_on_runs_that_fill_the_lanes",
    "tests/test_words.py::test_lightest_window_matches_prefix_sums_at_1e5",
    "tests/test_cli.py::test_check_witness_is_first_minimum_window",
)
WEIGHTS_TESTS = ("tests/test_cli.py::test_weights_at_every_carry_shape",
                 "tests/test_cli.py::test_weights_on_many_levels",
                 "tests/test_cli.py::test_plan_profile_matches_enumeration")
LEVELS_TESTS = (
    "tests/test_words.py::test_window_levels_match_enumeration_on_every_small_word",
    "tests/test_words.py::test_window_levels_at_every_residue_mod_64",
    "tests/test_words.py::test_window_levels_at_the_band_edges",
    "tests/test_words.py::test_window_levels_match_prefix_sums_at_1e5",
    "tests/test_cli.py::test_check_verbose_wide_profiles_match_prefix_sums",
)
GRID_TESTS = ("tests/test_oracle.py::test_grid_walks_to_each_columns_boundary",
              "tests/test_oracle.py::test_grid_asks_the_search_twice_per_column",
              "tests/test_cli.py::test_verify_reports_failures_in_sweep_order")
MERGE_TESTS = ("tests/test_words.py::test_merged_on_every_lane_pair",)
LIFT_TESTS = ("tests/test_words.py::test_lifted_on_every_lane_pair",)
DIGITS_TESTS = ("tests/test_constructions.py::test_builders_in_digits_are_to_bits_of_letters",
                "tests/test_constructions.py::test_builders_in_digits_at_large_n")

CATALOGUE = [
    Mutant("rotation-comparison-flipped", "constructions.py",
           "        if a > b:\n", "        if a < b:\n", ROTATION_TESTS),
    # at k = 0 the candidate never moves, so the scan loops forever
    Mutant("rotation-skip-without-step", "constructions.py",
           "            j += k + 1\n", "            j += k\n", ROTATION_TESTS),
    # rotations of one word hold the same number of letters A, so two that
    # agree on n - 1 letters agree on all n: stopping there returns the same i
    Mutant("rotation-stops-one-letter-early", "constructions.py",
           "while j < n and k < n:", "while j < n and k < n - 1:", ROTATION_TESTS,
           "equivalent"),
    Mutant("rotation-returns-candidate", "constructions.py",
           "return doubled[i:i + n], i", "return doubled[j:j + n], j", ROTATION_TESTS),
    Mutant("euclid-remainder-before-update", "words.py",
           "        n, k = k, n % k\n        remainders.append(k)\n",
           "        remainders.append(k)\n        n, k = k, n % k\n",
           ("tests/test_constructions.py::test_euclid_trace_23_10",)),
    Mutant("arrange-concatenation-swapped", "constructions.py",
           "plus, minus = plus + minus * q, plus + minus * (q - 1)",
           "plus, minus = minus * q + plus, minus * (q - 1) + plus",
           ("tests/test_constructions.py::test_arrange_golden",)),
    Mutant("substitute-minus-takes-q", "constructions.py",
           "plus + minus * (q - 1)", "plus + minus * q",
           ("tests/test_constructions.py::test_arrange_golden",
            "tests/test_constructions.py::test_symbol_stages_23_10")),
    Mutant("stages-promotion-by-quotient-2", "constructions.py",
           "[1, *quotients[j + 1:]]", "[2, *quotients[j + 1:]]",
           ("tests/test_constructions.py::test_symbol_stages_23_10",
            "tests/test_constructions.py::test_symbol_stages_87_36")),
    Mutant("parse-word-takes-empty", "words.py",
           '    if not text:\n        raise ValueError("word must be non-empty")\n', "",
           ("tests/test_words.py::test_parse_word",)),
    Mutant("admissible-quota-before-profile", "admissibility.py",
           "    profile = window_weight_profile(word, s)\n    _check_quota(t)\n"
           "    return min(profile) >= t\n",
           "    _check_quota(t)\n    return min(window_weight_profile(word, s)) >= t\n",
           ("tests/test_domain.py::test_bad_check_refused_alike_in_library_and_cli",)),
    Mutant("weights-trailing-separator-kept", "cli.py",
           "    del out[-len(tail):]\n", "",
           ("tests/test_cli.py::test_plan_rejects_bad_bounds", *WEIGHTS_TESTS)),
    Mutant("plan-machine-separator-without-space", "cli.py",
           '_weights(low, 1, excess, ", ")', '_weights(low, 1, excess, ",")', PLAN_RECORD_TESTS),
    Mutant("spliced-closing-bracket-dropped", "cli.py",
           "[{weights}]{tail}", "[{weights}{tail}",
           (*PLAN_RECORD_TESTS,
            "tests/test_cli.py::test_check_machine_record_is_json_dumps_of_its_fields")),
    Mutant("weights-column-table-one-token-late", "cli.py",
           "offsets.translate(column[:256]", "offsets.translate(column[1:257]",
           (*PLAN_RECORD_TESTS, *WEIGHTS_TESTS)),
    Mutant("weights-padding-kept", "cli.py",
           "    if not tokens[0]:\n", "    if False:\n", WEIGHTS_TESTS),
    # the mask of band b set where the band byte is b - 1
    Mutant("weights-wrong-band-select", "cli.py",
           'bytes(band) + b"\\xff" + bytes(255 - band)',
           'bytes(band - 1) + b"\\xff" + bytes(256 - band)',
           (*WEIGHTS_TESTS, *LEVELS_TESTS)),
    # the text line's separator is one character, so only the machine
    # record keeps a trailing comma
    Mutant("weights-delete-one-character", "cli.py",
           "del out[-len(tail):]", "del out[-1:]", (*PLAN_RECORD_TESTS, *WEIGHTS_TESTS)),
    # only a profile past the levels kernel's cap renders through the table
    Mutant("check-table-one-short", "cli.py",
           "range(weight, weight + top + 1)", "range(weight, weight + top)",
           ("tests/test_cli.py::test_check_verbose_wide_profiles_match_prefix_sums",)),
    Mutant("generate-canonical-condition-and", "cli.py",
           'if args.method == "mechanical" or args.canonical:',
           'if args.method == "mechanical" and args.canonical:',
           ("tests/test_cli.py::test_generate_canonical_and_bits",
            "tests/test_cli.py::test_generate_canonical_matches_brute_force")),
    Mutant("window-first-weight-off-by-one", "words.py",
           "word.count(A, 0, r)", "word.count(A, 0, r + 1)",
           ("tests/test_words.py::test_check_balance_agrees_with_enumeration",
            "tests/test_words.py::test_check_balance_reports_first_violation")),
    Mutant("mechanical-close-up-swapped", "words.py",
           "return (a + tail[:-2] + b) * g", "return (b + tail[:-2] + a) * g",
           ("tests/test_words.py::test_mechanical_word_golden",
            "tests/test_words.py::test_mechanical_word_prefix_counts")),
    # the letters build is unchanged, so only a build in digits shows it
    Mutant("mechanical-close-up-in-letters", "words.py",
           "return (a + tail[:-2] + b) * g", "return (A + tail[:-2] + B) * g",
           DIGITS_TESTS),
    # both alphabets swap alike, so the builds still agree letter for letter;
    # the ceiling formula and the Smith word's weight show it
    Mutant("smith-seeds-swapped", "words.py",
           "ladder, prev, cur = [], a, b", "ladder, prev, cur = [], b, a", DIGITS_TESTS),
    Mutant("necklace-period-test-dropped", "oracle.py",
           "            if n % p == 0:\n", "            if True:\n",
           ("tests/test_oracle.py::test_necklaces_obey_burnside",)),
    Mutant("necklace-cache-dropped", "oracle.py",
           "@lru_cache(maxsize=1)\ndef _necklaces", "def _necklaces",
           ("tests/test_oracle.py::test_necklaces_are_cached",)),
    # one entry short, the list never equals a word's n + 1 prefix counts, so
    # every word is scanned
    Mutant("ceiling-list-one-short", "oracle.py",
           "for i in range(n + 1)]", "for i in range(n)]", BALANCE_TESTS),
    Mutant("balance-scan-skipped", "oracle.py",
           "            if on_list:\n                continue\n",
           "            continue\n", BALANCE_TESTS),
    Mutant("balance-scan-only-up-to-n", "oracle.py",
           "for m in range(1, 2 * n + 1):", "for m in range(1, n + 1):", BALANCE_TESTS),
    # on the real search the walk down stops at its first step and the walk up
    # takes one refused step, so a stub search with boundaries around
    # floor(k*s/n) shows both walks
    Mutant("grid-search-no-upward-walk", "oracle.py",
           "                while best < min(k, s) and brute_force_exists(column[best + 1]).exists:\n"
           "                    best += 1\n", "", GRID_TESTS),
    Mutant("grid-search-no-downward-walk", "oracle.py",
           "                while best >= 0 and not brute_force_exists(column[best]).exists:\n"
           "                    best -= 1\n", "", GRID_TESTS),
    # floor(k*s/n) is criterion's answer, so only a patched criterion shows it
    Mutant("grid-cells-against-floor", "oracle.py",
           "if (t <= best) != criterion(query):", "if (t <= best) != (t <= k * s // n):",
           GRID_TESTS),
    Mutant("excess-seed-flip-dropped", "admissibility.py",
           "p = seed << n | y", "p = y", EXCESS_TESTS),
    Mutant("excess-rotation-by-s-minus-1", "admissibility.py",
           "(x << s | x >> n - s)", "(x << s - 1 | x >> n - s + 1)", EXCESS_TESTS),
    # unmasked, the rotation keeps the word's top s bits above bit n - 1,
    # and the prefix fold carries them down into the excess
    Mutant("excess-rotation-mask-dropped", "admissibility.py",
           "y = x ^ ((x << s | x >> n - s) & (1 << n) - 1)",
           "y = x ^ (x << s | x >> n - s)", EXCESS_TESTS),
    Mutant("excess-prefix-inclusive", "admissibility.py",
           "    p >>= 1\n", "", EXCESS_TESTS),
    Mutant("two-valued-certificate-dropped", "admissibility.py",
           "    if y & (x ^ p):\n        return None\n", "", EXCESS_TESTS),
    # without the seed test the certificate still refuses every such word: it
    # passes only where weight[i] - excess[i] is one constant L, and windows
    # whose weights average k*s/n then need L = low; so only the packing of a
    # word the seed test would refuse unpacked shows the mutant
    Mutant("two-valued-seed-test-dropped", "admissibility.py",
           "    if seed not in (0, 1):\n        return None\n", "",
           ("tests/test_admissibility.py::test_two_valued_seed_test_rejects_before_parsing",
            *EXCESS_TESTS)),
    # a head of floor(k*s/n) seeds the kernel one level low wherever n does
    # not divide k*s, so the certificate refuses and plan raises
    Mutant("plan-head-floor", "admissibility.py", "-(-k * s // n)", "k * s // n",
           ("tests/test_admissibility.py::test_plan_windows_is_the_mechanical_words_profile",)),
    Mutant("criterion-strict", "admissibility.py",
           "query.n * query.t <= query.k * query.s", "query.n * query.t < query.k * query.s",
           ("tests/test_admissibility.py::test_criterion_examples",)),
    # only a word above the cap shows it, and the cap test refuses any check
    # that gets past the cap
    Mutant("check-word-cap-dropped", "cli.py",
           "    _check_word_cap(len(word))\n", "",
           ("tests/test_cli.py::test_check_stops_at_the_cap",)),
    Mutant("main-catches-type-error", "cli.py",
           "    except ValueError as exc:\n", "    except TypeError as exc:\n",
           ("tests/test_domain.py::test_bad_pair_refused_alike_everywhere",
            "tests/test_cli.py::test_number_too_long_to_print_is_input_error")),
    Mutant("parser-error-raises-runtime-error", "cli.py",
           "        raise ValueError(message)\n", "        raise RuntimeError(message)\n",
           ("tests/test_cli.py::test_unknown_command_is_input_error",)),
    # the closed word held only to the mechanical word's weight: Smith's word
    # rotated by one letter still closes up to that weight at (8, 3) and
    # (8, 5), so only their failure lines go missing
    Mutant("closing-clause-weight-only", "oracle.py",
           "A + from_recursion[:-2] + B == word",
           "(A + from_recursion[:-2] + B).count(A) == word.count(A)",
           ("tests/test_cli.py::"
            "test_verify_checks_closed_recursion_word_against_ceiling_formula",)),
    Mutant("check-witness-first-heavy-byte", "admissibility.py",
           "excess.find(0)", "excess.find(1)",
           (*EXCESS_TESTS, "tests/test_cli.py::test_check_witness_is_first_minimum_window")),
    # the walk still finds the first lightest window of the block it enters,
    # so only a tie between two 64-step blocks shows the last one taken
    Mutant("check-witness-last-minimum", "words.py",
           "block = lightest.index(min(lightest))",
           "block = len(lightest) - 1 - lightest[::-1].index(min(lightest))",
           LIGHTEST_TESTS),
    # a count of 4-step blocks that is not a multiple of 16 is odd at some merge
    Mutant("lightest-pad-to-4", "words.py",
           "pad = -n % 64", "pad = -n % 4",
           ("tests/test_words.py::test_lightest_window_at_every_residue_mod_64",
            "tests/test_words.py::test_window_levels_at_every_residue_mod_64")),
    # a lane test with no word in it
    Mutant("merge-compare-bit-moved", "words.py",
           "(la | ones << 7)", "(la | ones << 6)", MERGE_TESTS),
    Mutant("lightest-low-without-block-sum", "words.py",
           "v = sa + lb - (ones << 6)", "v = lb", LIGHTEST_TESTS),
    Mutant("lightest-walk-one-block-late", "words.py",
           "i, w = 64 * block, starts[block]", "i, w = 64 * block + 64, starts[block + 1]",
           LIGHTEST_TESTS),
    # a lane where la == v picks v instead of la under either rule, and the
    # two are the same value: the merged low does not change
    Mutant("lightest-lane-tie-flipped", "words.py",
           "((la | ones << 7) - v)", "((la | ones << 7) - v - ones)", LIGHTEST_TESTS,
           "equivalent"),
    Mutant("levels-prefix-table-off-by-one", "words.py",
           "p1 + 64, p2 + 64, p3 + 64", "p1 + 65, p2 + 65, p3 + 65", LEVELS_TESTS),
    Mutant("levels-odd-block-after-odd-sum", "words.py",
           "_lifted(rel, sums[0::2])", "_lifted(rel, sums[1::2])", LEVELS_TESTS),
    Mutant("lift-offset-moved", "words.py", r'b"\x00\x40"', r'b"\x00\x3f"', LIFT_TESTS),
    Mutant("levels-top-from-lows", "words.py",
           "top = max(map(sub, starts, peaks)) + 64 - weight",
           "top = max(map(add, starts, lows)) - 64 - weight", LEVELS_TESTS),
    # the walk shared by both results, entered one block late only when the
    # levels are asked for
    Mutant("levels-walk-one-block-late", "words.py",
           "i, w = 64 * block, starts[block]",
           "i, w = 64 * (block + leveled), starts[block + leveled]", LEVELS_TESTS),
]


def run_tests(src: Path, tests, timeout: float) -> tuple[bool, str]:
    """Run the node ids against the package under src; (passed, summary)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {timeout:g} s"
    lines = result.stdout.strip().splitlines()
    return result.returncode == 0, lines[-1] if lines else f"exit {result.returncode}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        clean = ROOT / "src" / "mechwords"
        shutil.copytree(clean, src / "mechwords", ignore=shutil.ignore_patterns("__pycache__"))

        stale = [m.name for m in CATALOGUE
                 if (clean / m.file).read_text(encoding="utf-8").count(m.snippet) != 1]
        if stale:
            print(f"snippets that do not occur exactly once: {', '.join(stale)}")
            return 1
        tests = sorted({t for m in CATALOGUE for t in m.tests})
        passed, summary = run_tests(src, tests, 10 * TIMEOUT)
        if not passed:
            print(f"the named tests fail on the unmutated code: {summary}")
            return 1

        wrong = []
        for m in CATALOGUE:
            target = src / "mechwords" / m.file
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                passed, summary = run_tests(src, m.tests, TIMEOUT)
            finally:
                target.write_text(original, encoding="utf-8")
            if passed != (m.expect == "equivalent"):
                wrong.append(m.name)
            print(f"{'survived' if passed else 'killed':<9} {m.expect:<11} {m.name:<36} {summary}")

    if wrong:
        print(f"outcome differs from the catalogue: {', '.join(wrong)}")
        return 1
    print(f"{len(CATALOGUE)} mutants, every outcome as catalogued")
    return 0


if __name__ == "__main__":
    sys.exit(main())
