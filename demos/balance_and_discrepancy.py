"""
Balance bounds and window discrepancy
=====================================

A mechanical word of slope k/n is balanced: every window of m consecutive
spots holds between floor(m*k/n) and ceil(m*k/n) letters A, for every m.
Reading A as +1 and B as -1 turns that into a discrepancy statement: the
absolute window sum never exceeds m - 2*floor(m*k/n) when k <= n/2.
"""

from mechwords import check_balance, discrepancy, mechanical_word

n, k = 23, 10
word = mechanical_word(n, k)
print(f"mechanical word of slope {k}/{n}: {word} (weight {word.count('A')})")

# Balance at every window length, including lengths beyond one period.
print("\n  m  floor  ceil  ok")
for m in (1, 2, 5, 7, 12, 23, 30, 46):
    result = check_balance(word, m)
    print(f" {m:3d}  {result.low:5d} {result.high:5d}  {bool(result)}")

# A bunched word is far from balanced; the checker points at the offender.
bunched = "AAAAABBBBB"
result = check_balance(bunched, 5)
print(f"\n{bunched}, m=5: ok={bool(result)}, first violation at start "
      f"{result.start} with weight {result.weight} "
      f"(bounds [{result.low}, {result.high}])")

# Discrepancy of the mechanical arrangement versus the closed-form bound.
print(f"\ndiscrepancy of the slope-{k}/{n} arrangement")
print("  m  disc  bound")
for m in range(1, n + 1):
    bound = m - 2 * (m * k // n)
    print(f" {m:3d} {discrepancy(word, m):5d} {bound:6d}")

# For k > n/2 the closed form can go negative while |window sum| cannot;
# the library reports the value and leaves the bound unasserted there.
heavy = mechanical_word(4, 3)
print(f"\nheavy word {heavy} (k > n/2): discrepancy at m=4 is "
      f"{discrepancy(heavy, 4)}, closed form gives {4 - 2 * (4 * 3 // 4)}")
