"""Command-line front end: plan, generate, check, verify, discrepancy.

Exit status contract: 0 = affirmative/pass, 2 = well-formed query with a
negative verdict (impossible / not admissible / sweep found a counterexample),
1 = input error. With --format machine each invocation prints one JSON record
with stable field names. Every input error is a ValueError, whether the
parser, the library's domain checks or the CLI's own caps raise it; main alone
catches it and prints one "error:" line on stderr.
"""

import argparse
import functools
import json
import sys
from typing import Sequence

from .admissibility import (
    AdmissibilityQuery, _check_windows, _plan_windows, criterion, window_weight_profile)
from .constructions import arrange, euclid_trace, smith_ladder, smith_quotients, symbol_stages
from .oracle import verify_sweeps
from .words import _check_slope, _check_window, mechanical_word

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NEGATIVE = 2

# largest n_max verify takes: the equivalence and balance sweeps build and
# check about n_max**3 / 3 letters; a fresh `verify` takes about 0.10, 0.16
# and 0.50 s at 50, 100 and 200 (median of 5 processes, Python 3.11, 2 cores)
VERIFY_CAP = 200
# largest n that generate and an admissible plan build a word for: plan peaks
# at about 17 bytes per letter above the interpreter's 15 MB in text and 21 in
# machine format with 6-digit weights (the word, its packed profile and the
# rendered output; 31.5 and 35.3 MB at n = 1e6, 47.9 and 55.7 MB at 2e6, fresh
# processes with stdout on a pipe, Python 3.11), so one request stays near
# 0.25 GB at the cap. It is also the longest word check takes: at the cap a
# random word at s = n/2, whose profile spans more levels than the level
# bytes take, peaked at 522 MB with --verbose (the window list as ints) and
# at 87 MB without (main called in a fresh process on a word built there,
# stdout on a pipe)
WORD_CAP = 10**7


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad input, which collides with the
    # "negative verdict" status; raise the library's input-error type instead
    def error(self, message):
        raise ValueError(message)


def _emit(args, record: dict, lines: list[str]) -> None:
    if args.format == "machine":
        print(json.dumps(record))
    else:
        for line in lines:
            print(line)


def _spliced(record: dict, weights: str) -> str:
    # json.dumps of the record, whose "profile" is None, with the rendered
    # profile array spliced in as text where the null stands
    head, _, tail = json.dumps(record).partition('"profile": null')
    return f'{head}"profile": [{weights}]{tail}'


def _weights(low: int, top: int, levels: bytes, sep: str) -> str:
    # window i weighs low + level i, with levels as words._lightest_window
    # gives them (one byte a window when top < 256, else a band of 256
    # levels, then the level within it) and top at least the largest level;
    # a 0/1 excess is the case top = 1. Each weight is written as a
    # fixed-width token, left-padded with NUL to the width of low + top. The
    # tokens differ only in some columns, and each such column is one
    # strided write of the level bytes mapped through the column's table; a
    # second band's column replaces the first's where its band byte is set,
    # by one masked big-int merge a band. The padding exists only when low is
    # shorter than low + top, and a delete pass costs as much as all the
    # writes, so only then is it deleted.
    tail = sep.encode()
    width = len(str(low + top)) + len(tail)
    digits = width - len(tail)
    tokens = b"".join(str(v).encode().rjust(digits, b"\x00") + tail
                      for v in range(low, low + top + 1))
    if top < 256:
        offsets, masks = levels, []
    else:
        bands, offsets = levels[0::2], levels[1::2]
        masks = [(band, int.from_bytes(bands.translate(bytes(band) + b"\xff" + bytes(255 - band)),
                                       "big"))
                 for band in range(1, top // 256 + 1) if band in bands]
    n = len(offsets)
    out = bytearray(tokens[:width]) * n
    for j in range(digits):
        column = tokens[j::width]
        if column.count(column[:1]) == len(column):
            continue
        written = offsets.translate(column[:256].ljust(256, b"\x00"))
        if masks:
            x = int.from_bytes(written, "big")
            for band, mask in masks:
                table = column[256 * band:256 * (band + 1)].ljust(256, b"\x00")
                x ^= (x ^ int.from_bytes(offsets.translate(table), "big")) & mask
            written = x.to_bytes(n, "big")
        out[j::width] = written
    del out[-len(tail):]
    if not tokens[0]:
        out = out.translate(None, b"\x00")
    return out.decode()


def _check_word_cap(n: int) -> None:
    if n > WORD_CAP:
        raise ValueError(f"n = {n} is above the word cap {WORD_CAP}")


def cmd_plan(args) -> int:
    query = AdmissibilityQuery(args.n, args.k, args.s, args.t)
    nt, ks = query.n * query.t, query.k * query.s
    record = {"command": "plan", "n": query.n, "k": query.k, "s": query.s,
              "t": query.t, "nt": nt, "ks": ks}
    if not criterion(query):
        record.update(verdict="impossible")
        _emit(args, record, [f"IMPOSSIBLE: nt = {nt} > ks = {ks}"])
        return EXIT_NEGATIVE
    _check_word_cap(query.n)
    start, low, _, excess = _plan_windows(query)
    # built after the certificate's digits are freed; --canonical is a no-op,
    # as the mechanical word is its least rotation
    word = mechanical_word(query.n, query.k, alphabet=args.alphabet)
    record.update(verdict="admissible", word=word)
    if args.format == "machine":
        # the rendered profile is the call's argument, so it is freed before
        # the line prints
        record.update(profile=None, witness_start=start, witness_weight=low)
        print(_spliced(record, _weights(low, 1, excess, ", ")))
        return EXIT_OK
    _emit(args, record, [
        f"ADMISSIBLE: nt = {nt} <= ks = {ks}",
        f"arrangement: {word}",
        f"window weights (s={query.s}): {_weights(low, 1, excess, ' ')}",
        f"min window: start {start}, weight {low}",
    ])
    return EXIT_OK


def cmd_generate(args) -> int:
    n, k = args.n, args.k
    _check_slope(n, k)
    _check_word_cap(n)
    record = {"command": "generate", "n": n, "k": k, "method": args.method}
    lines = []
    # --canonical prints mechanical_word, so no method builds its own word then
    if args.method == "euclid":
        if not args.canonical:
            word = arrange(n, k, alphabet=args.alphabet)
        if args.verbose:
            quotients, remainders = euclid_trace(n, k)
            r = [n, k] + remainders
            divisions = [f"{r[j]} = {q}*{r[j + 1]} + {r[j + 2]}"
                         for j, q in enumerate(quotients)]
            stages = symbol_stages(n, k)
            record.update(quotients=quotients, remainders=remainders, stages=stages)
            lines.append("trace: " + "; ".join(divisions))
            if stages:
                lines += [f"stage {idx}: [{','.join(seq)}]"
                          for idx, seq in enumerate(stages, 1)]
            else:
                lines.append("no symbol stages (k divides n)")
    elif args.method == "smith":
        quotients = smith_quotients(n, k)
        if args.verbose or not args.canonical:
            ladder = smith_ladder(quotients, alphabet=args.alphabet)
            word = ladder[-1]
        if args.verbose:
            record.update(quotients=quotients, ladder=ladder)
            lines += [f"S_{idx} = {w}" for idx, w in enumerate(ladder, 1)]
    if args.method == "mechanical" or args.canonical:
        # every method builds a rotation of the mechanical word, the least one;
        # each builds in the alphabet it is printed in
        word = mechanical_word(n, k, alphabet=args.alphabet)
    record.update(word=word)
    lines.append(word)
    _emit(args, record, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    word, s, t = args.word, args.s, args.t
    _check_word_cap(len(word))
    bits, k, start, weight, top, levels = _check_windows(word, s, t, args.verbose)
    admissible = weight >= t
    shown = bits if args.alphabet == "01" else word
    record = {"command": "check", "word": shown, "n": len(word), "k": k,
              "s": s, "t": t,
              "verdict": "admissible" if admissible else "not-admissible",
              "witness_start": start, "witness_weight": weight}
    if admissible:
        lines = [f"ADMISSIBLE: every window of {s} spots holds >= {t} letters A"]
    else:
        lines = [f"NOT ADMISSIBLE: window at start {start} holds {weight} < {t} letters A"]
    lines.append(f"min window: start {start}, weight {weight}")
    machine = args.format == "machine"
    if args.verbose:
        sep = ", " if machine else " "
        if levels is not None:
            weights = _weights(weight, top, levels, sep)
        else:
            # past the level bytes' span: the profile is summed only to be
            # rendered, and each of its distinct weights is rendered once
            table = {v: str(v) for v in range(weight, weight + top + 1)}
            weights = sep.join(map(table.__getitem__, window_weight_profile(word, s)))
        if machine:
            print(_spliced(record | {"profile": None}, weights))
            return EXIT_OK if admissible else EXIT_NEGATIVE
        lines.append(f"window weights (s={s}): {weights}")
    _emit(args, record, lines)
    return EXIT_OK if admissible else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    if args.n_max is not None and args.n_max_flag is not None:
        raise ValueError("give n_max either positionally or via --n-max, not both")
    n_max = args.n_max_flag if args.n_max is None else args.n_max
    if n_max is None:
        raise ValueError("n_max is required")
    if n_max > VERIFY_CAP:
        raise ValueError(f"n_max above the verification cap {VERIFY_CAP}")
    counts, failures = verify_sweeps(n_max)
    record = {"command": "verify", "n_max": n_max, **counts,
              "verdict": "pass" if not failures else "fail",
              "failures": failures}
    lines = [
        f"equivalence: {counts['equivalence_pairs']} coprime pairs OK; "
        f"oracle grid: {counts['oracle_cells']} cells OK; "
        f"balance: {counts['balance_checks']} checks OK"
    ] if not failures else [f"FAIL: {f}" for f in failures]
    _emit(args, record, lines)
    return EXIT_OK if not failures else EXIT_NEGATIVE


def cmd_discrepancy(args) -> int:
    n, k, m = args.n, args.k, args.m
    _check_slope(n, k)
    _check_window("m", m, n)
    # the mechanical word's windows weigh floor(m*k/n) or ceil(m*k/n), both
    # attained, so no word is built
    floor_term = m * k // n
    ceil_term = -(-m * k // n)
    value = max(abs(2 * floor_term - m), abs(2 * ceil_term - m))
    bound = m - 2 * floor_term
    applies = 2 * k <= n
    record = {"command": "discrepancy", "n": n, "k": k, "m": m,
              "discrepancy": value, "bound": bound, "bound_applies": applies}
    lines = [
        f"discrepancy: {value}",
        f"bound: m - 2*floor(m*k/n) = {m} - 2*{floor_term} = {bound}",
        "bound applies (k <= n/2)" if applies
        else "bound not asserted for k > n/2",
    ]
    _emit(args, record, lines)
    return EXIT_OK


_HANDLERS = {
    "plan": cmd_plan,
    "generate": cmd_generate,
    "check": cmd_check,
    "verify": cmd_verify,
    "discrepancy": cmd_discrepancy,
}


@functools.cache
def build_parser() -> _Parser:
    """The process's one shared parser, built on first call; treat it as read-only."""
    parser = _Parser(
        prog="mechwords",
        description="Balanced circular two-letter arrangements and their checks.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, *, words: bool = True) -> None:
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="machine prints one JSON record per invocation")
        if words:
            p.add_argument("--alphabet", choices=("AB", "01"), default="AB",
                           help="render words as letters or as 1/0 digits (1 = A)")

    plan = sub.add_parser(
        "plan", help="decide an (n, k, s, t) instance and print an arrangement")
    for name in "nkst":
        plan.add_argument(name, type=int)
    plan.add_argument("--canonical", action="store_true",
                      help="print the lexicographically least rotation")
    common(plan)

    gen = sub.add_parser("generate", help="build a balanced arrangement of k As among n spots")
    gen.add_argument("n", type=int)
    gen.add_argument("k", type=int)
    gen.add_argument("--method", choices=("mechanical", "euclid", "smith"),
                     default="mechanical")
    gen.add_argument("--verbose", action="store_true",
                     help="show the Euclid trace and +/- stages, or the S_1..S_t ladder")
    gen.add_argument("--canonical", action="store_true",
                     help="print the lexicographically least rotation")
    common(gen)

    chk = sub.add_parser("check", help="test a given word for (s, t) admissibility")
    chk.add_argument("word")
    chk.add_argument("s", type=int)
    chk.add_argument("t", type=int)
    chk.add_argument("--verbose", action="store_true",
                     help="include the full window-weight profile")
    common(chk)

    ver = sub.add_parser(
        "verify",
        help="run the equivalence, criterion, and balance sweeps up to n_max")
    ver.add_argument("n_max", nargs="?", type=int, default=None)
    ver.add_argument("--n-max", dest="n_max_flag", type=int, default=None,
                     help="alternative to the positional n_max")
    common(ver, words=False)

    disc = sub.add_parser(
        "discrepancy",
        help="discrepancy of the mechanical arrangement for window length m")
    for name in "nkm":
        disc.add_argument(name, type=int)
    common(disc, words=False)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    # the one input-error path; it also takes a number too long to print
    # (Python's int-to-str digit limit), raised before any output
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
