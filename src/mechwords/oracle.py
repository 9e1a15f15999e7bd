"""Exhaustive ground truth for small instances.

Everything here is deliberately brute force: enumerate, test, report. The
point is to have an independent answer to compare the nt <= ks criterion and
the constructions against.
"""

import itertools
from typing import NamedTuple

from .admissibility import AdmissibilityQuery, is_admissible
from .words import A, B

DEFAULT_CAP = 20


class OracleResult(NamedTuple):
    exists: bool
    witness: str | None
    instances_checked: int


def brute_force_exists(
    query: AdmissibilityQuery,
    *,
    cap: int = DEFAULT_CAP,
) -> OracleResult:
    """Search every weight-k word of length n for a t-admissible one.

    Enumeration is lexicographic (A sorts before B) and stops at the first
    hit, so the reported witness is deterministic. The cap guards against
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
        checked += 1
        if is_admissible(word, query.s, query.t):
            return OracleResult(True, word, checked)
    return OracleResult(False, None, checked)
