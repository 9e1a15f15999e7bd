"""Equivalent builders for balanced circular arrangements.

Three routes produce the same necklace for coprime (n, k): the quotient-ladder
build (`arrange`), the continued-fraction word recursion (`smith_ladder`),
and the mechanical word. All three build by string doubling, one step per
quotient. Rotation utilities make "same necklace" checkable.
"""

from typing import Sequence

from .words import _check_slope, _euclid, _seeds, _smith_ladder, parse_word

PLUS = "+"
MINUS = "-"


def _substitute(quotients: Sequence[int], plus: str, minus: str) -> str:
    # the one construction kernel: for each quotient q, outermost first, the
    # images of plus and minus go through + -> +-^q, - -> +-^(q-1), one
    # repetition and two concatenations each; returns the image of minus
    for q in quotients:
        plus, minus = plus + minus * q, plus + minus * (q - 1)
    return minus


def euclid_trace(n: int, k: int) -> tuple[list[int], list[int]]:
    """Quotients and remainders of the Euclidean algorithm on (n, k), 1 <= k <= n.

    Over r = [n, k] + remainders, division j reads r[j] = q[j]*r[j+1] + r[j+2].
    The remainders stop at the first 0, so r[-2] is gcd(n, k).
    """
    _check_slope(n, k)
    return _euclid(n, k)[:2]


def symbol_stages(n: int, k: int) -> list[str]:
    """Intermediate +/- sequences behind arrange(n, k); empty when k divides n.

    For j from the last quotient down to 1: the promotion + -> +-, - -> + of
    the previous level (the substitution for quotient 1), then the level, the
    substitution for quotients[j:]; each on +/-, repeated gcd(n, k) times.
    The first level, the seed, is listed without its promotion.
    """
    _check_slope(n, k)
    quotients, _, g = _euclid(n, k)
    stages = [_substitute(qs, PLUS, MINUS) * g
              for j in range(len(quotients) - 1, 0, -1)
              for qs in ([1, *quotients[j + 1:]], quotients[j:])]
    return stages[1:]


def arrange(n: int, k: int, *, alphabet: str = "AB") -> str:
    """Spread k letters A over a circle of n spots with the gaps as even as possible.

    When k divides n the result is k blocks "A" + "B"*(n//k - 1). In general
    the Euclidean quotients of (n, k), outermost first, compose the
    substitutions + -> +-^q, - -> +-^(q-1); the word is the image of one minus
    under them, read through + -> A, - -> B, repeated gcd(n, k) times. The
    same kernel builds the last level of symbol_stages, the image for every
    quotient but the first: each of its pluses reads as "AB", each minus as
    "A", and every letter A picks up q-1 trailing letters B for the first
    quotient q, filling all n spots with weight exactly k. alphabet="01"
    reads + -> 1, - -> 0 instead, building to_bits of the word.
    """
    _check_slope(n, k)
    plus, minus = _seeds(alphabet)
    quotients, _, g = _euclid(n, k)
    return _substitute(quotients, plus, minus) * g


def smith_quotients(n: int, k: int) -> list[int]:
    """Quotients of coprime n/k with the first lowered by 1, for Smith's length-n word."""
    _check_slope(n, k)
    quotients, _, g = _euclid(n, k)
    if g != 1:
        raise ValueError(f"n and k not coprime (gcd {g})")
    quotients[0] -= 1
    return quotients


def smith_ladder(quotients: Sequence[int], *, alphabet: str = "AB") -> list[str]:
    """All words S_1 .. S_t of the continued-fraction recursion.

    S_1 = B^m1 * A, S_2 = S_1^m2 * B, and S_j = S_{j-1}^m_j * S_{j-2} after
    that. The first quotient may be 0 (making S_1 = "A"), which is what a
    leading-quotient decrement produces for slopes above 1/2; every later
    quotient must be positive. alphabet="01" seeds the recursion with 1 for
    A and 0 for B, building to_bits of every word.
    """
    if not quotients:
        raise ValueError("quotient list must be non-empty")
    if quotients[0] < 0 or any(m < 1 for m in quotients[1:]):
        raise ValueError("quotients must be positive (the first may be 0)")
    return _smith_ladder(quotients, *_seeds(alphabet))


def canonical_rotation(word: str) -> tuple[str, int]:
    """Lexicographically least rotation (A < B) and the left shift reaching it.

    A periodic word reaches it at several shifts; the smallest is returned.
    One two-pointer scan over word + word, the only memory it takes besides
    the result: i is the best start so far, j the next candidate, and k the
    length on which their rotations agree. A mismatch rules out the loser's
    whole agreeing run, so i + j grows by at least k + 1: the scan is linear.
    """
    parse_word(word)
    n = len(word)
    doubled = word + word
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return doubled[i:i + n], i


def rotation_equivalent(w1: str, w2: str) -> bool:
    """True when the two words are rotations of one another."""
    parse_word(w1)
    parse_word(w2)
    # same length and same canonical rotation <=> w2 occurs in w1 doubled
    return len(w1) == len(w2) and w2 in w1 + w1
