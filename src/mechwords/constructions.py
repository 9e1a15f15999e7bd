"""Equivalent builders for balanced circular arrangements.

Three routes produce the same necklace for coprime (n, k): the quotient-ladder
build (`arrange`), the continued-fraction word recursion (`smith_word`), and
the mechanical word. All three build by string doubling, one step per quotient.
Rotation utilities make "same necklace" checkable, and `smith_to_mechanical`
ties the recursion to the mechanical word letter for letter.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .words import A, B, _euclid_quotients, _smith_ladder, parse_word

PLUS = "+"
MINUS = "-"


def _check_pair(n: int, k: int) -> None:
    if n < 1 or k < 1 or k >= n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")


class EuclidStep(NamedTuple):
    """One division r[j-2] = quotient * r[j-1] + remainder, recorded at index j."""
    index: int
    quotient: int
    remainder: int


@dataclass(frozen=True)
class EuclidTrace:
    """Quotient/remainder ladder of the Euclidean algorithm on (n, k).

    Remainders are indexed with the seeds at r[-3] = n and r[-2] = k, so the
    first recorded step has index -1 (n = q*k + r). The ladder stops at the
    first zero remainder; `terminal_index` is the i with r[i+1] = 0, so that
    r[i] = gcd(n, k). A single exact division (k divides n) has terminal
    index -2.
    """
    n: int
    k: int
    steps: tuple[EuclidStep, ...]

    @property
    def terminal_index(self) -> int:
        return self.steps[-1].index - 1

    @property
    def quotients(self) -> list[int]:
        return [step.quotient for step in self.steps]

    @property
    def remainders(self) -> list[int]:
        return [step.remainder for step in self.steps]

    @property
    def gcd(self) -> int:
        return self.remainder(self.terminal_index)

    def quotient(self, j: int) -> int:
        return self.steps[j + 1].quotient

    def remainder(self, j: int) -> int:
        if j == -3:
            return self.n
        if j == -2:
            return self.k
        return self.steps[j + 1].remainder


def euclid_trace(n: int, k: int) -> EuclidTrace:
    """Run the Euclidean algorithm on (n, k), 1 <= k < n, recording every step."""
    _check_pair(n, k)
    steps, a, b = [], n, k
    for j, q in enumerate(_euclid_quotients(n, k)[0], -1):
        a, b = b, a - q * b
        steps.append(EuclidStep(j, q, b))
    return EuclidTrace(n, k, tuple(steps))


def symbol_stages(n: int, k: int) -> list[str]:
    """Intermediate +/- sequences behind arrange(n, k); empty when k divides n."""
    trace = euclid_trace(n, k)
    i = trace.terminal_index
    if i == -2:
        return []
    q, r = trace.quotient, trace.remainder
    seq = (PLUS + MINUS * (q(i + 1) - 1)) * r(i)
    stages = [seq]
    for j in range(i, -1, -1):
        # a fresh minus right after each plus, then the old minuses promote
        seq = "".join(PLUS + MINUS if c == PLUS else PLUS for c in seq)
        stages.append(seq)
        # pad the gap after every plus with q[j]-1 minuses
        seq = "".join(PLUS + MINUS * (q(j) - 1) if c == PLUS else c for c in seq)
        stages.append(seq)
    return stages


def arrange(n: int, k: int) -> str:
    """Spread k letters A over a circle of n spots with the gaps as even as possible.

    When k divides n the result is k blocks "A" + "B"*(n//k - 1). Otherwise a
    +/- sequence is grown from the tail of the Euclidean ladder: seed r[i]
    pluses, each followed by q[i+1]-1 minuses; then for j = i down to 0, append
    a minus after each plus, promote the previous minuses to pluses, and pad
    the gap after every plus with q[j]-1 minuses (see symbol_stages). That
    ends with k symbols, r[-1] of them pluses. Each plus then reads as "AB",
    each minus as "A", and every letter A picks up q[-1]-1 trailing letters
    B, filling all n spots with weight exactly k. Each step is a substitution
    on +/-, so the word is built from the images of + and - under them.
    """
    _check_pair(n, k)
    quotients, g = _euclid_quotients(n, k)
    # letter map + -> AB^q, - -> AB^(q-1) for the first quotient, then each
    # later one composes + -> +-^q, - -> +-^(q-1); the last - is the seed block
    plus, minus = A, B
    for q in quotients:
        plus, minus = plus + minus * q, plus + minus * (q - 1)
    return minus * g


def cf_expansion(p: int, q: int) -> list[int]:
    """Continued-fraction quotients of p/q, for coprime p > q >= 1.

    These are exactly the quotients of the Euclidean algorithm; no tail
    normalization is applied, so recurrence_reconstruct gives back (p, q).
    """
    if q < 1 or p <= q:
        raise ValueError(f"need p > q >= 1, got p={p}, q={q}")
    quotients, g = _euclid_quotients(p, q)
    if g != 1:
        raise ValueError(f"p and q not coprime (gcd {g})")
    return quotients


def smith_quotients(n: int, k: int) -> list[int]:
    """Quotients of coprime n/k with the first lowered by 1, for Smith's length-n word."""
    _check_pair(n, k)
    mu = cf_expansion(n, k)  # rejects non-coprime pairs
    return [mu[0] - 1] + mu[1:]


def smith_ladder(quotients: Sequence[int]) -> list[str]:
    """All words S_1 .. S_t of the continued-fraction recursion.

    S_1 = B^m1 * A, S_2 = S_1^m2 * B, and S_j = S_{j-1}^m_j * S_{j-2} after
    that. The first quotient may be 0 (making S_1 = "A"), which is what a
    leading-quotient decrement produces for slopes above 1/2; every later
    quotient must be positive.
    """
    if not quotients:
        raise ValueError("quotient list must be non-empty")
    if quotients[0] < 0 or any(m < 1 for m in quotients[1:]):
        raise ValueError("quotients must be positive (the first may be 0)")
    return _smith_ladder(quotients)


def smith_word(quotients: Sequence[int]) -> str:
    """The final word S_t of the continued-fraction recursion."""
    return smith_ladder(quotients)[-1]


def _least_rotation_index(word: str) -> int:
    # Booth's least-rotation algorithm over word+word, linear time
    doubled = word + word
    fail = [-1] * len(doubled)
    best = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - best - 1]
        while i != -1 and c != doubled[best + i + 1]:
            if c < doubled[best + i + 1]:
                best = j - i - 1
            i = fail[i]
        if c != doubled[best + i + 1]:
            if c < doubled[best]:
                best = j
            fail[j - best] = -1
        else:
            fail[j - best] = i + 1
    return best


def canonical_rotation(word: str) -> tuple[str, int]:
    """Lexicographically least rotation (A < B) and the left shift reaching it."""
    parse_word(word)
    if not word:
        raise ValueError("word must be non-empty")
    shift = _least_rotation_index(word)
    return word[shift:] + word[:shift], shift


def rotation_equivalent(w1: str, w2: str) -> bool:
    """True when the two words are rotations of one another."""
    parse_word(w1)
    parse_word(w2)
    # same length and same canonical rotation <=> w2 occurs in w1 doubled
    return len(w1) == len(w2) and w2 in w1 + w1


def smith_to_mechanical(n: int, k: int) -> str:
    """Rebuild the slope-k/n mechanical word from the recursion, letter for letter.

    Evaluates the recursion on smith_quotients(n, k) (the resulting word has
    length exactly n), drops its final two letters, and closes up as A...B.
    Equals mechanical_word(n, k) exactly, not merely up to rotation. Requires
    a coprime pair.
    """
    tail = smith_word(smith_quotients(n, k))
    return A + tail[:-2] + B


def recurrence_reconstruct(quotients: Sequence[int]) -> tuple[int, int]:
    """Rebuild (n, k) from the Euclidean quotients of a coprime pair.

    Runs a = q * a' + a'' from seeds 0, 1 through the reversed quotient list;
    the last two values are n and k.
    """
    if not quotients or any(q < 1 for q in quotients):
        raise ValueError("quotients must be positive integers")
    prev, cur = 0, 1
    for q in reversed(quotients):
        prev, cur = cur, q * cur + prev
    return cur, prev
