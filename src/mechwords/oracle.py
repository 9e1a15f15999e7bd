"""Exhaustive ground truth for small instances.

Everything here is deliberately brute force: enumerate, test, report. The
point is to have an independent answer to compare the nt <= ks criterion and
the constructions against.
"""

import itertools
from typing import NamedTuple

from .admissibility import AdmissibilityQuery, WindowReport, is_admissible, min_weight_window
from .constructions import _least_rotation_index
from .words import A, B, parse_word

DEFAULT_CAP = 20


class OracleResult(NamedTuple):
    exists: bool
    witness: str | None
    instances_checked: int


def brute_force_exists(
    query: AdmissibilityQuery,
    *,
    cap: int = DEFAULT_CAP,
    reduce_rotations: bool = False,
) -> OracleResult:
    """Search every weight-k word of length n for a t-admissible one.

    Enumeration is lexicographic (A sorts before B) and stops at the first
    hit, so the reported witness is deterministic. With reduce_rotations only
    the least rotation of each necklace is tested, which suffices because
    admissibility is rotation-invariant; it is off by default so that
    correctness never depends on the reduction. The cap guards against
    combinatorial blowup.
    """
    if query.n > cap:
        raise ValueError(f"n={query.n} is above the brute-force cap {cap}")
    checked = 0
    for positions in itertools.combinations(range(query.n), query.k):
        letters = [B] * query.n
        for i in positions:
            letters[i] = A
        word = "".join(letters)
        if reduce_rotations and _least_rotation_index(word) != 0:
            continue
        checked += 1
        if is_admissible(word, query.s, query.t):
            return OracleResult(True, word, checked)
    return OracleResult(False, None, checked)


def pigeonhole_witness(word: str, s: int) -> WindowReport:
    """A minimum-weight s-window; its weight never exceeds floor(k*s/n).

    The n window weights sum to k*s (each letter A is covered by s windows),
    so the minimum is at most the average k*s/n. When n*t > k*s that pins the
    minimum below t: the returned window is the concrete impossibility
    certificate.
    """
    parse_word(word)
    n = len(word)
    if not 1 <= s < n:
        raise ValueError(f"s must be in 1..{n - 1}, got {s}")
    report = min_weight_window(word, s)
    if report.weight > word.count(A) * s // n:
        raise RuntimeError(f"window weight {report.weight} breaks the pigeonhole bound")
    return report
