"""
Planning a rotation lineup
==========================

A team of 10 players, 3 of them wearing A-shirts, rotates around a circle
with 6 players on court at a time. Can we order the players so that every
rotation keeps at least 2 A-shirts on court? The exact answer is the
inequality n*t <= k*s, and when it holds the mechanical word of slope k/n
is a working arrangement.
"""

from mechwords import (
    AdmissibilityQuery,
    brute_force_exists,
    criterion,
    is_admissible,
    mechanical_word,
    window_weight_profile,
)

# The instance that started it all: n=10 players, k=3 A-shirts, s=6 on court,
# and the house rules ask for t=2 A-shirts on court after every rotation.
query = AdmissibilityQuery(10, 3, 6, 2)
print(f"instance: n={query.n}, k={query.k}, s={query.s}, t={query.t}")
print(f"criterion n*t <= k*s: {query.n * query.t} <= {query.k * query.s}?",
      criterion(query))

# No ordering works. Brute force agrees: rotating a lineup changes nothing, so
# it tries the 12 necklaces that stand for all C(10,3) = 120 arrangements. The
# pigeonhole certificate shows where any given lineup breaks: the n court
# loads sum to k*s, so the lightest court holds at most floor(k*s/n).
result = brute_force_exists(query)
print(f"exhaustive search: exists={result.exists} "
      f"after {result.instances_checked} arrangements up to rotation")

bound = query.k * query.s // query.n
print(f"pigeonhole: every lineup has a court with at most floor(k*s/n) = {bound} "
      f"< t = {query.t} A-shirts")
lineup = "AAABBBBBBB"  # the naive lineup: all A-shirts bunched together
loads = window_weight_profile(lineup, query.s)
lightest = min(loads)
print(f"naive lineup {lineup}: the court starting at spot {loads.index(lightest)} "
      f"has only {lightest} A-shirts")

# Relax the house rules to one A-shirt per court and the criterion holds, so
# the mechanical word of slope k/n is an arrangement.
relaxed = AdmissibilityQuery(10, 3, 6, 1)
assert criterion(relaxed)
word = mechanical_word(relaxed.n, relaxed.k)
print(f"\nrelaxed to t=1: arrangement {word}")
print("court loads by rotation:", window_weight_profile(word, relaxed.s))
print("admissible:", is_admissible(word, relaxed.s, relaxed.t))

# A smaller tournament where the original quota is fine: 7 players, 3 A-shirts,
# 5 on court, at least 2 A-shirts required.
small = AdmissibilityQuery(7, 3, 5, 2)
assert criterion(small)
word = mechanical_word(small.n, small.k)
print(f"\n(7, 3, 5, 2): criterion {small.n * small.t} <= {small.k * small.s}, "
      f"arrangement {word}, court loads {window_weight_profile(word, small.s)}")
