"""Exhaustive ground truth for small instances.

Everything here is deliberately brute force: enumerate, test, report. The
point is to have an independent answer to compare the nt <= ks criterion and
the constructions against. Admissibility is invariant under rotation, so the
search walks necklaces (least rotations) rather than all C(n, k) words.
"""

from copy import copy
from functools import lru_cache
from itertools import tee
from threading import Lock
from typing import Iterator, NamedTuple

from .admissibility import AdmissibilityQuery, is_admissible
from .words import A, B

# largest n the search takes
CAP = 20


class OracleResult(NamedTuple):
    exists: bool
    witness: str | None
    instances_checked: int


def _necklaces(n: int, k: int) -> Iterator[str]:
    # length-n necklaces with k letters A as least rotations (A < B), in
    # lexicographic order: Fredricksen-Kessler-Maiorana prenecklaces cut to
    # fixed density (Ruskey-Sawada). Behind the sentinel a[0] = A, position t
    # copies a[t-p] or, when that is A, takes B and sets p = t. A branch whose A
    # count cannot end at k is cut; a full prenecklace with p | n is a necklace
    stack = [(A, 1, 0)]
    while stack:
        word, p, weight = stack.pop()
        t = len(word)
        if t > n:
            if n % p == 0:
                yield word[1:]
            continue
        if weight + n - t >= k:
            stack.append((word + B, t if word[t - p] == A else p, weight))
        if word[t - p] == A and weight < k:
            stack.append((word + A, p, weight + 1))


@lru_cache(maxsize=1)
def _shared_necklaces(n: int, k: int):
    # the last pair's necklaces, generated once and kept as they are read: a
    # grid asks every (s, t) of one (n, k) in a row, and each query walks a
    # copy of this tee from the first necklace. The lock serializes the copies'
    # reads, since the tee and its generator are not safe to advance from two
    # threads; memory stays at one pair's necklaces
    return tee(_necklaces(n, k), 1)[0], Lock()


def brute_force_exists(query: AdmissibilityQuery) -> OracleResult:
    """Search the weight-k necklaces of length n for a t-admissible one.

    Necklaces come in lexicographic order (A < B); the search stops at the
    first hit. The least admissible word is its own least rotation, so the
    witness is the least admissible word of all C(n, k). instances_checked
    counts the necklaces tried. A query with n above CAP is refused, which
    guards against blowup. The necklaces of the last (n, k) asked are kept and
    shared by the next queries on that pair, in any thread.
    """
    if query.n > CAP:
        raise ValueError(f"n={query.n} is above the brute-force cap {CAP}")
    source, lock = _shared_necklaces(query.n, query.k)
    necklaces = copy(source)
    checked = 0
    while True:
        with lock:
            word = next(necklaces, None)
        if word is None:
            return OracleResult(False, None, checked)
        checked += 1
        if is_admissible(word, query.s, query.t):
            return OracleResult(True, word, checked)

