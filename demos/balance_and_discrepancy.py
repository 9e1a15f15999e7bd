"""
Balance bounds and window discrepancy
=====================================

A mechanical word of slope k/n is balanced: every window of m consecutive
spots holds between floor(m*k/n) and ceil(m*k/n) letters A, for every m.
Reading A as +1 and B as -1 turns that into a discrepancy statement: the
absolute window sum never exceeds m - 2*floor(m*k/n) when k <= n/2. Since
both weights occur, the discrepancy is exactly
max(|2*floor(m*k/n) - m|, |2*ceil(m*k/n) - m|), for every k, and the lightest
window is found without building the word (mechanical_window).
"""

from mechwords import (
    WindowReport,
    check_balance,
    discrepancy,
    mechanical_window,
    mechanical_word,
    window_weight_profile,
)


def closed_form(n, k, m):
    # discrepancy of the slope-k/n word from its two window weights alone
    low = mechanical_window(n, k, m).weight
    high = -(-m * k // n)
    return max(abs(2 * low - m), abs(2 * high - m))


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

# Discrepancy of the mechanical arrangement: the window scan, the closed
# form, and the bound. The closed form never builds or scans the word.
print(f"\ndiscrepancy of the slope-{k}/{n} arrangement")
print("  m  scan  closed  bound")
for m in range(1, n + 1):
    bound = m - 2 * (m * k // n)
    print(f" {m:3d} {discrepancy(word, m):5d} {closed_form(n, k, m):7d} {bound:6d}")

# The lightest window, scanned and in closed form, with the same start.
profile = window_weight_profile(word, 7)
scanned = WindowReport(profile.index(min(profile)), 7, min(profile))
print(f"\nlightest 7-window, scanned:     {scanned}")
print(f"lightest 7-window, closed form: {mechanical_window(n, k, 7)}")
big_n, big_k, big_m = 10**18 + 9, 381966011250105151, 333333333333333333
print(f"at n = 10**18 + 9: {mechanical_window(big_n, big_k, big_m)}, "
      f"discrepancy {closed_form(big_n, big_k, big_m)}")

# For k > n/2 the bound can go negative while |window sum| cannot; the
# exact closed form still holds there.
heavy = mechanical_word(4, 3)
print(f"\nheavy word {heavy} (k > n/2): discrepancy at m=4 is "
      f"{discrepancy(heavy, 4)}, closed form {closed_form(4, 3, 4)}, "
      f"bound {4 - 2 * (4 * 3 // 4)}")
