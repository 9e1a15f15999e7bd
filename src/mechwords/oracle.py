"""Exhaustive ground truth for small instances, and the sweeps behind verify.

Everything here is deliberately brute force: enumerate, test, report. The
point is to have an independent answer to compare the nt <= ks criterion and
the constructions against. Admissibility is invariant under rotation, so the
search walks necklaces (least rotations) rather than all C(n, k) words.
`verify_sweeps` runs that comparison over a grid, together with the
constructions' equivalence and the balance bounds of every mechanical word.
"""

from functools import lru_cache
from itertools import accumulate
from math import gcd
from typing import NamedTuple

from .admissibility import AdmissibilityQuery, criterion, is_admissible
from .constructions import arrange, rotation_equivalent, smith_ladder, smith_quotients
from .words import _BYTES, A, B, check_balance, mechanical_word

# largest n the search takes
CAP = 20


class OracleResult(NamedTuple):
    exists: bool
    witness: str | None
    instances_checked: int


@lru_cache(maxsize=1)
def _necklaces(n: int, k: int) -> tuple[str, ...]:
    # length-n necklaces with k letters A as least rotations (A < B), in
    # lexicographic order: Fredricksen-Kessler-Maiorana prenecklaces cut to
    # fixed density (Ruskey-Sawada). Behind the sentinel a[0] = A, position t
    # copies a[t-p] or, when that is A, takes B and sets p = t. A branch whose A
    # count cannot end at k is cut; a full prenecklace with p | n is a necklace.
    # The last pair's tuple is kept: a grid asks every (s, t) of one (n, k) in
    # a row. A tuple is never mutated, so threads read it without a lock;
    # memory stays at one pair's necklaces (9,252 strings at the cap)
    necklaces = []
    stack = [(A, 1, 0)]
    while stack:
        word, p, weight = stack.pop()
        t = len(word)
        if t > n:
            if n % p == 0:
                necklaces.append(word[1:])
            continue
        if weight + n - t >= k:
            stack.append((word + B, t if word[t - p] == A else p, weight))
        if word[t - p] == A and weight < k:
            stack.append((word + A, p, weight + 1))
    return tuple(necklaces)


def brute_force_exists(query: AdmissibilityQuery) -> OracleResult:
    """Search the weight-k necklaces of length n for a t-admissible one.

    Necklaces come in lexicographic order (A < B); the search stops at the
    first hit. The least admissible word is its own least rotation, so the
    witness is the least admissible word of all C(n, k). instances_checked
    counts the necklaces tried. A query with n above CAP is refused, which
    guards against blowup.
    """
    if query.n > CAP:
        raise ValueError(f"n={query.n} is above the brute-force cap {CAP}")
    necklaces = _necklaces(query.n, query.k)
    for checked, word in enumerate(necklaces, 1):
        if is_admissible(word, query.s, query.t):
            return OracleResult(True, word, checked)
    return OracleResult(False, None, len(necklaces))


def _grid(n_top: int) -> tuple[int, list[str]]:
    """Compare the search with criterion on each cell (n, k, s, t), 2 <= n <= n_top.

    Returns the cell count and a failure line per disagreeing cell, in cell
    order. A word whose lightest s-window holds t letters A holds t - 1 too,
    so the search's answer falls as t grows, and a column (n, k, s) answers
    yes exactly for t <= best, the largest t it accepts. best is found by two
    walks from floor(k*s/n): down while the search refuses (to -1), then up
    while it accepts the next t, past that bound if need be. When the theorem
    holds, a column costs two searches, a witness at best and an exhaustive
    miss at best + 1.
    """
    cells, failures = 0, []
    for n in range(2, n_top + 1):
        for k in range(1, n):
            for s in range(1, n):
                column = [AdmissibilityQuery(n, k, s, t) for t in range(min(k, s) + 1)]
                best = k * s // n
                while best >= 0 and not brute_force_exists(column[best]).exists:
                    best -= 1
                while best < min(k, s) and brute_force_exists(column[best + 1]).exists:
                    best += 1
                for t, query in enumerate(column):
                    cells += 1
                    if (t <= best) != criterion(query):
                        failures.append(f"criterion n={n} k={k} s={s} t={t}")
    return cells, failures


def verify_sweeps(n_max: int) -> tuple[dict, list[str]]:
    """Run verify's three sweeps up to n_max; return their counts and failures.

    Equivalence, coprime k < n: arrange, Smith's recursion and the mechanical
    word are rotations of one word, the mechanical word holds ceil(k*i/n)
    letters A in its prefix of length i, computed in integers, and the
    recursion's word closed up as A...B is the mechanical word itself, so
    that one ceiling check holds both (prefix counts 0..n fix a word of n
    letters). Oracle grid, n <= 12: the necklace search agrees with
    criterion on every cell (n, k, s, t), and _grid asks the search only
    for each column's boundary. Balance: each window of length m <= 2n of
    every mechanical word weighs floor(m*k/n) or ceil(m*k/n). A word on the
    ceiling list passes every length by periodicity; a word off it is
    scanned with check_balance at each m. Failures come equivalence first,
    then grid, then balance. An n_max below 1 would pass vacuously, so it
    raises ValueError before any sweep runs.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    counts = {"equivalence_pairs": 0, "oracle_cells": 0, "balance_checks": 0}
    equivalence, balance = [], []

    counts["oracle_cells"], grid = _grid(min(n_max, 12))

    # a word whose prefix of length i holds P[i] = ceil(k*i/n) letters A for
    # 0 <= i <= n does so for every i, since P[i + n] = P[i] + k; its window
    # of length m from i then weighs ceil(k*(i+m)/n) - ceil(k*i/n), which is
    # floor(k*m/n) or ceil(k*m/n). So the ceiling list decides every length
    # at once, and only a word off it is scanned
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            word = mechanical_word(n, k)
            ceilings = [-(-k * i // n) for i in range(n + 1)]
            on_list = list(accumulate(word.encode().translate(_BYTES), initial=0)) == ceilings
            if k < n and gcd(n, k) == 1:
                counts["equivalence_pairs"] += 1
                built = arrange(n, k)
                from_recursion = smith_ladder(smith_quotients(n, k))[-1]
                if not (on_list
                        and rotation_equivalent(built, from_recursion)
                        and rotation_equivalent(built, word)
                        and A + from_recursion[:-2] + B == word):
                    equivalence.append(
                        f"equivalence n={n} k={k}: arrange={built} "
                        f"recursion={from_recursion} mechanical={word}")
            counts["balance_checks"] += 2 * n
            if on_list:
                continue
            for m in range(1, 2 * n + 1):
                result = check_balance(word, m)
                if not result:
                    balance.append(
                        f"balance n={n} k={k} m={m}: window at start "
                        f"{result.start} has weight {result.weight}, "
                        f"bounds [{result.low}, {result.high}]")
    return counts, equivalence + grid + balance
