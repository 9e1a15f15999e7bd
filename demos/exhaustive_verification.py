"""
Exhaustive verification at desk scale
=====================================

Every claim the library makes is checkable by brute force when n is small:
the nt <= ks criterion against full enumeration, the constructions against
each other, and the balance bounds window by window. The library runs the
same three sweeps as `mechwords.oracle.verify_sweeps(n_max)`, which returns
their counts and failures and is what `mechwords verify` prints.
"""

from math import gcd

from mechwords import (
    AdmissibilityQuery,
    arrange,
    brute_force_exists,
    check_balance,
    criterion,
    mechanical_word,
    rotation_equivalent,
    smith_ladder,
    smith_quotients,
)

# Criterion versus exhaustive search over every (n, k, s, t) cell up to n=9.
cells = mismatches = 0
for n in range(2, 10):
    for k in range(1, n):
        for s in range(1, n):
            for t in range(0, min(k, s) + 1):
                query = AdmissibilityQuery(n, k, s, t)
                cells += 1
                if brute_force_exists(query).exists != criterion(query):
                    mismatches += 1
print(f"criterion vs exhaustive search: {cells} cells, {mismatches} mismatches")

# The first witness of a feasible cell. The search walks necklaces (least
# rotations) in lexicographic order, so it is the least admissible word.
query = AdmissibilityQuery(12, 4, 7, 2)
full = brute_force_exists(query)
print(f"(12, 4, 7, 2): exists={full.exists}, first witness {full.witness} "
      f"after {full.instances_checked} necklaces")

# Three-way equivalence on every coprime pair up to n=40.
pairs = 0
for n in range(2, 41):
    for k in range(1, n):
        if gcd(n, k) != 1:
            continue
        assert rotation_equivalent(arrange(n, k), mechanical_word(n, k))
        recursion = smith_ladder(smith_quotients(n, k))[-1]
        assert rotation_equivalent(arrange(n, k), recursion)
        pairs += 1
print(f"three-way equivalence: {pairs} coprime pairs OK")

# Balance of every mechanical word up to n=30, all window lengths to 2n.
checks = 0
for n in range(1, 31):
    for k in range(1, n + 1):
        word = mechanical_word(n, k)
        for m in range(1, 2 * n + 1):
            assert check_balance(word, m)
            checks += 1
print(f"balance bounds: {checks} window-length checks OK")
