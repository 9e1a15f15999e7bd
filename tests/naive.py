"""Independent brute-force oracles used by the tests.

Everything here recomputes results by direct enumeration (slices, rotations,
full searches), or for words too long to enumerate by NumPy prefix sums, so
test expectations never depend on the code paths they check.
"""

import itertools
from math import gcd

import numpy as np


def windows(word, m):
    """Weights of all circular length-m windows, by slicing a long repetition."""
    n = len(word)
    ext = word * (m // n + 2)
    return [ext[s:s + m].count("A") for s in range(n)]


def lightest_window(word, m):
    """(start, weight) of the lightest circular length-m window, smallest start on ties."""
    weights = windows(word, m)
    low = min(weights)
    return weights.index(low), low


def windows_by_prefix_sums(word, m):
    """windows for 1 <= m <= len(word), as a NumPy array, from prefix sums over two periods."""
    n = len(word)
    prefix = np.cumsum(np.frombuffer(("B" + word * 2).encode(), np.uint8) == ord("A"))
    return prefix[m:m + n] - prefix[:n]


def lightest_window_by_prefix_sums(word, m):
    """lightest_window for 1 <= m <= len(word), from prefix sums over two periods."""
    weights = windows_by_prefix_sums(word, m)
    start = int(weights.argmin())
    return start, int(weights[start])


def ceiling_word(n, k):
    """The length-n word whose prefix of length i holds ceil(k*i/n) letters A, for 0 <= i <= n.

    Letter i is A exactly when ceil(k*(i+1)/n) exceeds ceil(k*i/n); prefix
    counts 0..n fix a word, so this is the only such word.
    """
    ceilings = [-(-k * i // n) for i in range(n + 1)]
    return "".join("A" if b > a else "B" for a, b in zip(ceilings, ceilings[1:]))


def admissible(word, s, t):
    return min(windows(word, s)) >= t


def balance_ok(word, m):
    n, k = len(word), word.count("A")
    low = (m * k) // n
    high = -((-m * k) // n)
    return all(low <= w <= high for w in windows(word, m))


def totient(n):
    """Euler's phi by counting the i <= n coprime to n."""
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def min_rotation(word):
    """Least rotation and its shift by trying every rotation."""
    return min((word[i:] + word[:i], i) for i in range(len(word)))


def rotations(word):
    return [word[i:] + word[:i] for i in range(len(word))]


def all_words(n):
    """Every word of length n over {A, B}, lexicographic."""
    for letters in itertools.product("AB", repeat=n):
        yield "".join(letters)


def words_of_weight(n, k):
    """Every length-n word with exactly k letters A, lexicographic."""
    for positions in itertools.combinations(range(n), k):
        yield "".join("A" if i in positions else "B" for i in range(n))


def first_admissible(n, k, s, t):
    """(exists, witness): the first t-admissible word of words_of_weight(n, k).

    The plain combination search: it tries up to all C(n, k) words, so the
    witness is the lexicographically least admissible word.
    """
    for word in words_of_weight(n, k):
        if admissible(word, s, t):
            return True, word
    return False, None


def _euclid(n, k):
    quotients, remainders = [], [n, k]
    while remainders[-1]:
        a, b = remainders[-2], remainders[-1]
        quotients.append(a // b)
        remainders.append(a % b)
    return quotients, remainders


def stages_reference(n, k):
    """The +/- stages behind arrange(n, k), grown symbol by symbol.

    Runs the Euclidean ladder itself, seeds r[i] blocks "+" "-"*(q[i+1]-1),
    then for j = i down to 0 maps + -> +-, - -> + and pads every plus with
    q[j]-1 minuses, keeping both sequences of every level. Empty when k
    divides n.
    """
    quotients, remainders = _euclid(n, k)
    if len(quotients) == 1:
        return []

    def q(j):
        return quotients[j + 1]

    def r(j):
        return remainders[j + 3]

    i = len(remainders) - 5  # r[i + 1] == 0
    seq = ("+" + "-" * (q(i + 1) - 1)) * r(i)
    stages = [seq]
    for j in range(i, -1, -1):
        seq = "".join("+-" if c == "+" else "+" for c in seq)
        stages.append(seq)
        seq = "".join("+" + "-" * (q(j) - 1) if c == "+" else c for c in seq)
        stages.append(seq)
    return stages


def arrange_reference(n, k, stages):
    """arrange(n, k) read off the last of its stages, stages_reference(n, k).

    + reads "AB", - reads "A", and each A gains n//k - 1 letters B (n//k is
    the first quotient). When k divides n the result is k blocks A B^(n/k-1).
    """
    if not stages:
        return ("A" + "B" * (n // k - 1)) * k
    word = "".join("AB" if c == "+" else "A" for c in stages[-1])
    return "".join("A" + "B" * (n // k - 1) if c == "A" else c for c in word)


def from_quotients(quotients):
    """(n, k) rebuilt from Euclidean quotients by a = q*a' + a'' from seeds 0, 1."""
    prev, cur = 0, 1
    for q in reversed(quotients):
        prev, cur = cur, q * cur + prev
    return cur, prev
