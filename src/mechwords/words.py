"""Two-letter words, the mechanical-word generator, and circular windows.

Words are plain Python strings over the alphabet {A, B}. A non-empty word
doubles as the period of the infinite repetition word*word*word*..., which is
how circular arrangements are read. Everything here is exact integer
arithmetic; no floats appear anywhere in the library.
"""

from itertools import accumulate
from operator import sub
from typing import NamedTuple, Sequence

A = "A"
B = "B"

# fixed rendering bijection: A <-> 1, B <-> 0
_BITS = str.maketrans(A + B, "10")
_BYTES = bytes.maketrans(b"AB", b"\x01\x00")
# deletes both letters, so only the characters a word may not hold are left
_FOREIGN = str.maketrans("", "", A + B)

# the one input domain of every layer and the CLI: 1 <= k <= n letters A among
# n spots, windows of 1..n spots, quotas t >= 0, non-empty words over {A, B}


def _check_slope(n: int, k: int) -> None:
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"slope k/n needs 0 < k <= n, got k={k}, n={n}")


def _check_window(name: str, m: int, n: int) -> None:
    if not 1 <= m <= n:
        raise ValueError(f"{name} must be in 1..{n}, got {m}")


def _check_quota(t: int) -> None:
    if t < 0:
        raise ValueError("t must be non-negative")


def parse_word(text: str) -> str:
    """Validate a non-empty word over {A, B}: letters first, then emptiness."""
    bad = set(text.translate(_FOREIGN))
    if bad:
        raise ValueError(
            f"invalid letter(s) {sorted(bad)}: words use only 'A' and 'B'")
    if not text:
        raise ValueError("word must be non-empty")
    return text


def _as_bits(word: str) -> str:
    # to_bits for a word already known to be over {A, B}: no validation pass
    return word.translate(_BITS)


def to_bits(word: str) -> str:
    """Render a word as 0/1 digits (A -> 1, B -> 0)."""
    return _as_bits(parse_word(word))


def _euclid(n: int, k: int) -> tuple[list[int], list[int], int]:
    # quotients and remainders (up to the first 0) of the Euclidean algorithm
    # on (n, k), k >= 1, and gcd(n, k)
    quotients, remainders = [], []
    while k:
        quotients.append(n // k)
        n, k = k, n % k
        remainders.append(k)
    return quotients, remainders, n


def _smith_ladder(quotients: Sequence[int]) -> list[str]:
    # the string-doubling kernel: S_j = S_{j-1}^m_j * S_{j-2} from S_-1 = A,
    # S_0 = B, one repetition and one concatenation per quotient
    ladder, prev, cur = [], A, B
    for m in quotients:
        prev, cur = cur, cur * m + prev
        ladder.append(cur)
    return ladder


def mechanical_word(n: int, k: int) -> str:
    """One period of the mechanical word of slope k/n, with 0 < k <= n.

    Letter i is ceil(k*(i+1)/n) - ceil(k*i/n) rendered through 1 -> A, 0 -> B,
    so every prefix of length m holds exactly ceil(k*m/n) letters A and the
    full period has weight k. The pair is taken as given, not reduced:
    mechanical_word(4, 2) is "ABAB", two repeats of the slope-1/2 period.
    For k < n it is Smith's word on smith_quotients(n/g, k/g), its last two
    letters dropped and closed up as A...B, repeated g = gcd(n, k) times: the
    upper Christoffel word or its power, the least rotation (A < B).
    """
    _check_slope(n, k)
    if k == n:
        return A * n
    quotients, _, g = _euclid(n, k)
    quotients[0] -= 1
    tail = _smith_ladder(quotients)[-1]
    return (A + tail[:-2] + B) * g


class BalanceCheck(NamedTuple):
    """Outcome of a balance scan; start/weight locate the first violation."""
    ok: bool
    start: int | None
    weight: int | None
    low: int
    high: int

    def __bool__(self) -> bool:
        return self.ok


def _window_weights(word: str, m: int) -> list[int]:
    # the window kernel: weights of all n circular windows of length m >= 1 of
    # a non-empty word, entry i starting at spot i. The first window holds q
    # full periods and word[:r], q, r = divmod(m, n); each next weight adds the
    # entering letter (spot i + r) and drops the leaving one (spot i), one
    # C-level running sum over the word as 0/1 bytes
    n = len(word)
    q, r = divmod(m, n)
    bits = word.encode().translate(_BYTES)
    first = q * word.count(A) + word.count(A, 0, r)
    return list(accumulate(map(sub, bits[r:] + bits[:r], bits[:-1]), initial=first))


def check_balance(period: str, m: int) -> BalanceCheck:
    """Check every length-m factor of the periodic word against balance bounds.

    With alpha = weight/len of the period, each factor of length m must hold
    between floor(m*alpha) and ceil(m*alpha) letters A; the bounds are computed
    with integer arithmetic. Scanning the len(period) start positions covers
    all factors, by periodicity. On failure the first violating start index
    and its weight are reported. Here m is a factor length of the infinite
    periodic word, not a window of the n-spot circle, so any m >= 1 is taken.
    """
    parse_word(period)
    if m < 1:
        raise ValueError("factor length must be positive")
    n, k = len(period), period.count(A)
    low, high = (m * k) // n, -(-m * k // n)
    weights = _window_weights(period, m)
    if low <= min(weights) and max(weights) <= high:
        return BalanceCheck(True, None, None, low, high)
    start = next(i for i, w in enumerate(weights) if not low <= w <= high)
    return BalanceCheck(False, start, weights[start], low, high)
