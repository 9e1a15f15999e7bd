"""Independent checks of `mechwords` command output.

Nothing here imports the package under test. Expected words come from the
ceiling formula, window weights from prefix sums, rotations from `w in m+m`,
plan verdicts from `n*t <= k*s`, discrepancies from their floor/ceil closed
form, and the `verify` counts from closed-form sums. NumPy keeps checking a
1e6-letter answer small beside the request that produced it.

`check(argv, status, out, err)` returns None when the response is right and a
one-line reason otherwise.
"""

import json
import re
from math import gcd

import numpy as np

A_CODE, B_CODE = ord("A"), ord("B")
_CHUNK = 1 << 16
_FROM_BITS = str.maketrans("10", "AB")
_STAGE = re.compile(r"\[[+-](,[+-])*\]")


class Mismatch(Exception):
    pass


def _expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def mechanical_bytes(n: int, k: int) -> bytes:
    """Letter i is A iff ceil(k*(i+1)/n) > ceil(k*i/n); built in chunks."""
    out = bytearray(n)
    for lo in range(0, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        ceil = -((-k * np.arange(lo, hi + 1, dtype=np.int64)) // n)
        out[lo:hi] = np.where(np.diff(ceil) > 0, A_CODE, B_CODE).astype(np.uint8).tobytes()
    return bytes(out)


def window_weights(word: bytes, m: int) -> np.ndarray:
    """Letters A in each circular window of length m <= len(word), by start."""
    letters = np.frombuffer(word, dtype=np.uint8) == A_CODE
    n = letters.size
    prefix = np.zeros(n + m + 1, dtype=np.int64)
    np.cumsum(np.concatenate((letters, letters[:m])), out=prefix[1:])
    return prefix[m:m + n] - prefix[:n]


def discrepancy_closed_form(n: int, k: int, m: int) -> int:
    """max |#A - #B| over m-windows of the slope-k/n mechanical word.

    Window weights are floor(mk/n) or ceil(mk/n), and both occur unless n | mk
    because the n weights sum to mk.
    """
    low, high = m * k // n, -(-m * k // n)
    return max(abs(2 * low - m), abs(2 * high - m))


def _totients(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for multiple in range(p, limit + 1, p):
                phi[multiple] -= phi[multiple] // p
    return phi


def verify_counts(n_max: int) -> dict[str, int]:
    """The three sweep sizes of `verify n_max`, from closed forms."""
    grid = min(n_max, 12)
    # cells (k, s, t) with 1 <= k, s <= m = n-1 and 0 <= t <= min(k, s)
    oracle = sum(m * (m + 1) * (2 * m + 1) // 6 + m * m for m in range(1, grid))
    return {
        "equivalence_pairs": sum(_totients(n_max)[2:]),
        "oracle_cells": oracle,
        "balance_checks": n_max * (n_max + 1) * (2 * n_max + 1) // 3,
    }


def _euclid(n: int, k: int) -> list[tuple[int, int, int, int]]:
    steps = []
    a, b = n, k
    while True:
        q, r = divmod(a, b)
        steps.append((a, q, b, r))
        if r == 0:
            return steps
        a, b = b, r


def _smith_ladder(quotients: list[int]) -> list[str]:
    ladder = ["B" * quotients[0] + "A"]
    if len(quotients) > 1:
        ladder.append(ladder[0] * quotients[1] + "B")
    for m in quotients[2:]:
        ladder.append(ladder[-1] * m + ladder[-2])
    return ladder


class _Request:
    """The argv of one request, split into positionals and flags."""

    def __init__(self, argv: list[str]):
        self.command = argv[0]
        self.positional: list[str] = []
        self.flags: dict[str, str | bool] = {}
        rest = iter(argv[1:])
        for token in rest:
            if token in ("--format", "--alphabet", "--method"):
                self.flags[token] = next(rest)
            elif token.startswith("--"):
                self.flags[token] = True
            else:
                self.positional.append(token)
        self.machine = self.flags.get("--format") == "machine"
        self.bits = self.flags.get("--alphabet") == "01"

    def ints(self) -> list[int]:
        return [int(x) for x in self.positional]


def _lines(out: str) -> list[str]:
    _expect(out.endswith("\n"), "output does not end with a newline")
    return out[:-1].split("\n")


def _record(out: str, keys: set[str]) -> dict:
    record = json.loads(out)
    _expect(set(record) == keys, f"machine record fields {sorted(record)}")
    return record


def _word_bytes(shown: str, req: _Request) -> bytes:
    if req.bits:
        _expect(set(shown) <= {"0", "1"}, "word is not rendered in 0/1")
        shown = shown.translate(_FROM_BITS)
    return shown.encode("ascii")


def _check_status(status, want: int) -> None:
    _expect(not isinstance(status, BaseException), f"raised {status!r}")
    _expect(status == want, f"exit status {status}, expected {want}")


def _check_generate(req: _Request, status, out: str, err: str) -> None:
    n, k = req.ints()
    method = req.flags.get("--method", "mechanical")
    verbose = req.flags.get("--verbose", False)
    if method == "smith" and gcd(n, k) != 1:
        _check_status(status, 1)
        _expect(out == "" and err == f"error: n and k not coprime (gcd {gcd(n, k)})\n",
                "non-coprime smith request not rejected")
        return
    _check_status(status, 0)
    _expect(err == "", "unexpected stderr")
    mech = mechanical_bytes(n, k)
    *lines, shown = _lines(out)
    word = _word_bytes(shown, req)
    if req.flags.get("--canonical"):
        # the least rotation (A < B) of a mechanical word is the word itself
        _expect(word == mech, "canonical word is not the least rotation")
    elif method == "mechanical":
        _expect(word == mech, "word differs from the ceiling formula")
    elif method == "euclid":
        _expect(len(word) == n and word in mech + mech,
                "word is not a rotation of the mechanical word")
    else:
        # Smith's word closes up to the mechanical word as A + word[:-2] + B
        _expect(len(word) == n and word[:-2] == mech[1:-1]
                and word[-2:] in (b"AB", b"BA"),
                "word does not match the recursion-to-mechanical identity")
    if not verbose or method == "mechanical":
        _expect(not lines, "unexpected extra output lines")
    elif method == "euclid":
        _check_euclid_verbose(n, k, lines)
    else:
        mu = [q for _, q, _, _ in _euclid(n, k)]
        ladder = _smith_ladder([mu[0] - 1] + mu[1:])
        _expect(lines == [f"S_{i} = {w}" for i, w in enumerate(ladder, 1)],
                "smith ladder lines")


def _check_euclid_verbose(n: int, k: int, lines: list[str]) -> None:
    steps = _euclid(n, k)
    trace = "trace: " + "; ".join(f"{a} = {q}*{b} + {r}" for a, q, b, r in steps)
    _expect(lines[0] == trace, "euclid trace line")
    if len(steps) == 1:
        _expect(lines[1:] == ["no symbol stages (k divides n)"], "stage lines")
        return
    _expect(len(lines) == 2 * len(steps) - 2, "number of +/- stages")
    for idx, line in enumerate(lines[1:], 1):
        head, _, seq = line.partition(": ")
        _expect(head == f"stage {idx}" and _STAGE.fullmatch(seq) is not None,
                f"stage line {idx}")
    last = seq[1:-1].replace(",", "")
    _expect(len(last) == k and last.count("+") == n % k,
            "last stage does not hold k symbols with n mod k pluses")


def _check_plan(req: _Request, status, out: str, err: str) -> None:
    n, k, s, t = req.ints()
    nt, ks = n * t, k * s
    head = {"command": "plan", "n": n, "k": k, "s": s, "t": t, "nt": nt, "ks": ks}
    _expect(err == "", "unexpected stderr")
    if nt > ks:
        _check_status(status, 2)
        if req.machine:
            _expect(_record(out, set(head) | {"verdict"}) == {**head, "verdict": "impossible"},
                    "impossible record")
        else:
            _expect(out == f"IMPOSSIBLE: nt = {nt} > ks = {ks}\n", "impossible verdict line")
        return
    _check_status(status, 0)
    if req.machine:
        record = _record(out, set(head) | {"verdict", "word", "profile",
                                           "witness_start", "witness_weight"})
        _expect({key: record[key] for key in head} == head
                and record["verdict"] == "admissible", "admissible record")
        shown = record["word"]
        profile = np.array(record["profile"], dtype=np.int64)
        start, weight = record["witness_start"], record["witness_weight"]
    else:
        lines = _lines(out)
        _expect(len(lines) == 4 and lines[0] == f"ADMISSIBLE: nt = {nt} <= ks = {ks}",
                "admissible verdict line")
        prefix = "arrangement: "
        _expect(lines[1].startswith(prefix), "arrangement line")
        shown = lines[1][len(prefix):]
        label = f"window weights (s={s}): "
        _expect(lines[2].startswith(label), "window weights line")
        profile = np.fromstring(lines[2][len(label):], dtype=np.int64, sep=" ")
        match = re.fullmatch(r"min window: start (\d+), weight (\d+)", lines[3])
        _expect(match is not None, "min window line")
        start, weight = int(match[1]), int(match[2])
    word = _word_bytes(shown, req)
    # with or without --canonical the arrangement is the mechanical word
    _expect(word == mechanical_bytes(n, k), "arrangement differs from the mechanical word")
    weights = window_weights(word, s)
    _expect(np.array_equal(profile, weights), "window weights differ from prefix sums")
    low = int(weights.min())
    _expect((start, weight) == (int(weights.argmin()), low), "wrong minimum window")
    _expect(low >= t, "arrangement is not admissible")


def _check_discrepancy(req: _Request, status, out: str, err: str) -> None:
    n, k, m = req.ints()
    _check_status(status, 0)
    _expect(err == "", "unexpected stderr")
    value = discrepancy_closed_form(n, k, m)
    floor_term = m * k // n
    bound = m - 2 * floor_term
    applies = 2 * k <= n
    _expect(_lines(out) == [
        f"discrepancy: {value}",
        f"bound: m - 2*floor(m*k/n) = {m} - 2*{floor_term} = {bound}",
        "bound applies (k <= n/2)" if applies else "bound not asserted for k > n/2",
    ], "discrepancy lines")


def _check_check(req: _Request, status, out: str, err: str) -> None:
    text, s, t = req.positional[0], int(req.positional[1]), int(req.positional[2])
    bad = set(text) - {"A", "B"}
    if bad:
        _check_status(status, 1)
        _expect(out == "" and err == f"error: invalid letter(s) {sorted(bad)}: "
                "words use only 'A' and 'B'\n", "invalid word not rejected")
        return
    word = text.encode("ascii")
    weights = window_weights(word, s)
    start, low = int(weights.argmin()), int(weights.min())
    admissible = low >= t
    _check_status(status, 0 if admissible else 2)
    _expect(err == "", "unexpected stderr")
    verbose = req.flags.get("--verbose", False)
    lines = _lines(out)
    first = (f"ADMISSIBLE: every window of {s} spots holds >= {t} letters A" if admissible
             else f"NOT ADMISSIBLE: window at start {start} holds {low} < {t} letters A")
    want = [first, f"min window: start {start}, weight {low}"]
    _expect(lines[:2] == want and len(lines) == 2 + verbose, "check verdict lines")
    if verbose:
        label = f"window weights (s={s}): "
        _expect(lines[2].startswith(label), "window weights line")
        profile = np.fromstring(lines[2][len(label):], dtype=np.int64, sep=" ")
        _expect(np.array_equal(profile, weights), "window weights differ from prefix sums")


def _check_verify(req: _Request, status, out: str, err: str) -> None:
    (n_max,) = req.ints()
    counts = verify_counts(n_max)
    _check_status(status, 0)
    _expect(err == "", "unexpected stderr")
    if req.machine:
        _expect(json.loads(out) == {"command": "verify", "n_max": n_max, **counts,
                                    "verdict": "pass", "failures": []}, "verify record")
    else:
        _expect(out == f"equivalence: {counts['equivalence_pairs']} coprime pairs OK; "
                f"oracle grid: {counts['oracle_cells']} cells OK; "
                f"balance: {counts['balance_checks']} checks OK\n", "verify line")


_CHECKS = {
    "generate": _check_generate,
    "plan": _check_plan,
    "discrepancy": _check_discrepancy,
    "check": _check_check,
    "verify": _check_verify,
}


def check(argv: list[str], status, out: str, err: str) -> str | None:
    """None when the response to argv is right, else the reason it is not.

    `status` is the exit status `main` returned, or the exception it raised.
    """
    req = _Request(argv)
    try:
        _CHECKS[req.command](req, status, out, err)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # output too malformed to even parse
        return f"malformed output: {exc!r}"
    return None
