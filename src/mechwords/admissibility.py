"""Circular window analysis: the nt <= ks criterion and discrepancy.

A circular arrangement of n spots, k of them marked A, is t-admissible for
window length s when every run of s consecutive spots holds at least t letters
A. Such an arrangement exists exactly when n*t <= k*s, and the mechanical word
of slope k/n always works.

On that word no window needs scanning: its length-m windows weigh
floor(k*m/n) or one more, so `mechanical_window` finds the lightest one by
integer arithmetic alone. `_two_valued` gives the whole profile of any word
whose windows weigh that floor or one more as the floor plus one 0/1 byte per
window: the parity prefix of the word XOR its rotation, computed on the word
packed into one int and certified by one more big-int test, with no window
summed. `_plan_windows` is `plan`'s certificate on an admissible query: it
builds the mechanical word in digits and returns `_two_valued`'s profile of
it, raising if the kernel refuses. `_check_windows` is `check`'s whole
chain: it validates the arguments, tries `_two_valued`, and on every other
word takes the lightest window from `words._lightest_window`, 64-step block
minima, which for `check --verbose` also gives the whole profile as one or
two level bytes a window above the lightest; neither kernel makes a Python
int per window. The CLI only renders what these two return.
The list of all n weights is summed for `window_weight_profile`, for
`is_admissible` and `discrepancy` (below about 300 letters, the oracle's
sizes, the list is the faster), and for `check --verbose` on a profile that
spans more levels than the level bytes take.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .words import (
    A, _check_length, _check_quota, _check_slope, _check_window, _lightest_window,
    _window_weights, mechanical_word, parse_word, to_bits)

# digits of the packed excess word as the 0/1 bytes _two_valued returns
_EXCESS = bytes.maketrans(b"01", b"\x00\x01")


class WindowReport(NamedTuple):
    """A circular window: `weight` letters A among `length` spots from `start`."""
    start: int
    length: int
    weight: int


@dataclass(frozen=True)
class AdmissibilityQuery:
    """A planning instance: n spots, k marked A, windows of s spots, quota t.

    The domain is the one `words` checks: 1 <= k <= n, 1 <= s <= n, t >= 0;
    k = n (the all-A word) and s = n (the whole circle) need no special case.
    t = 0 is trivially admissible and t beyond min(k, s) simply resolves to
    "not admissible" through the criterion.
    """
    n: int
    k: int
    s: int
    t: int

    def __post_init__(self) -> None:
        _check_slope(self.n, self.k)
        _check_window("s", self.s, self.n)
        _check_quota(self.t)


def window_weight_profile(word: str, s: int) -> list[int]:
    """Weights of all n circular windows of length s; entry i starts at spot i.

    The word is checked once (letters, then non-empty), then s against 1..n;
    one running sum around the circle (the `words` window kernel), linear in n.
    """
    parse_word(word)
    _check_window("s", s, len(word))
    return _window_weights(word, s)


def _first_hit(a: int, mod: int, lo: int, hi: int) -> int:
    # smallest x >= 0 with lo <= (a*x) % mod <= hi, for 0 < a < mod,
    # 0 < lo <= hi < mod and some x qualifying. If the first multiple of a at
    # or above lo overshoots hi, [lo, hi] holds no multiple of a, and the x
    # for a wrap count y exists iff (mod*y) % a lies in [-hi % a, -lo % a]:
    # the same query on (mod % a, a), one Euclid step down. The least such y
    # gives x = ceil((lo + mod*y) / a), so the descent unwinds from a stack.
    stack = []
    while True:
        x = -(-lo // a)
        if a * x <= hi:
            break
        stack.append((a, mod, lo))
        a, mod, lo, hi = mod % a, a, -hi % a, -lo % a
    for a, mod, lo in reversed(stack):
        x = -(-(lo + mod * x) // a)
    return x


def mechanical_window(n: int, k: int, m: int) -> WindowReport:
    """The lightest length-m window of mechanical_word(n, k), with no word built.

    For 0 < k <= n and any m >= 1 (a factor length of the periodic word, not
    a window of the n-spot circle), in O(log n) integer steps. For m <= n its
    weight is the minimum of window_weight_profile(mechanical_word(n, k), m)
    and its start the first index of that minimum; the profile rejects m > n,
    where naive.windows in the tests is the reference. By the ceiling formula
    the window from i weighs floor(k*m/n) when (-k*i) % n >= (k*m) % n and one
    more otherwise, so the start is the first such i (0 when n divides k*m).
    """
    _check_slope(n, k)
    _check_length(m)
    r = k * m % n
    return WindowReport(_first_hit(n - k, n, r, n - 1) if r else 0, m, k * m // n)


def _two_valued(bits: str, k: int, s: int, head: int) -> tuple[int, int, int, bytes] | None:
    """window_weight_profile(word, s) as (start, low, 1, excess) when two-valued.

    For a non-empty word as 0/1 digits (`to_bits`) with k letters A, 1 <= s
    <= n, and head the weight of its first window; nothing is validated.
    When every window weighs low = floor(k*s/n) or low + 1, as on every
    mechanical_word, excess is n bytes of 0/1 with weight i equal to low +
    excess[i], and start its first 0: `words._lightest_window`'s shape with
    top 1. On any other word it is None. (The s*k letters counted over all
    windows average k*s/n, so such a profile takes only the values low and
    low + 1, and some window weighs low.)

    With x the word as 0/1, weight[i+1] - weight[i] = x[i+s] - x[i], so
    excess[i+1] = excess[i] ^ y[i] with y = x ^ (x rotated left by s): the
    excesses are the exclusive prefix XOR of y seeded with head - low.
    Packed as one int, spot 0 is the top bit, so the word is parsed once
    and its rotation is two shifts under an n-bit mask. The seed rides one
    bit above spot 0, as the prefix's first term, and p ^= p >> shift with
    shift doubling while shift < n folds every higher bit into each lower
    one (the inclusive prefix) in about log2(n) big-int steps. The fold
    gathers into each bit at least the n - 1 bits above it, so the only bit
    the seed may miss is bit 0, which the final >> 1 drops as it makes the
    prefix exclusive.

    Two integer tests make the result exact for every word. The seed test
    (the seed is 0 or 1) gives weight[0] = low + excess[0], and it rejects
    before the parse. The certificate y & (x ^ p) == 0 says that at every
    change point (y[i] = 1) the step leaves the level it is on: a step up
    (x[i] = 0) starts from excess 0, a step down (x[i] = 1) from excess 1.
    By induction weight[i] = low + excess[i] for every i: where y[i] = 0
    neither moves, and a step from low + e lands on low + (1 - e). Conversely
    a two-valued profile passes both, since its true excess is this prefix and
    a window can rise only from low and fall only from low + 1.
    Base-2 int() and format() have no digit limit, so any n is taken.
    """
    n = len(bits)
    low = k * s // n
    seed = head - low
    if seed not in (0, 1):
        return None
    x = int(bits, 2)
    y = x ^ ((x << s | x >> n - s) & (1 << n) - 1)
    p = seed << n | y
    shift = 1
    while shift < n:
        p ^= p >> shift
        shift *= 2
    p >>= 1
    if y & (x ^ p):
        return None
    excess = format(p, f"0{n}b").encode().translate(_EXCESS)
    return excess.find(0), low, 1, excess


def _check_windows(word: str, s: int, t: int, leveled: bool
                   ) -> tuple[str, int, int, int, int | None, bytes | None]:
    """check's verdict: (digits, k, start, weight, top, levels).

    The word, s and t are checked in check's first-error order (letters,
    empty word, s, then t) before any scan, the word by `to_bits`, which
    gives its digits as 0/1. k is its letters A; start and weight locate
    its first lightest window of s spots, whose weight check compares with
    t. They come with top and levels from `_two_valued` (top 1, the excess
    bytes as levels) or, on any other word, from `words._lightest_window`
    with leveled as given.
    """
    bits = to_bits(word)
    _check_window("s", s, len(word))
    _check_quota(t)
    k, head = word.count(A), word.count(A, 0, s)
    return bits, k, *(_two_valued(bits, k, s, head) or _lightest_window(bits, s, head, leveled))


def _plan_windows(query: AdmissibilityQuery) -> tuple[int, int, int, bytes]:
    """plan's certificate: (start, low, 1, excess) for an admissible query.

    The windows of s spots of mechanical_word(n, k) weigh low = floor(k*s/n)
    plus their 0/1 excess byte, and start is the first lightest one, as
    `_two_valued` gives them on the word built in digits. The word is
    balanced and its first s letters hold ceil(k*s/n) letters A, so the
    kernel refusing it is a fault of the program: that raises RuntimeError.
    """
    n, k, s = query.n, query.k, query.s
    profile = _two_valued(mechanical_word(n, k, alphabet="01"), k, s, -(-k * s // n))
    if profile is None:
        raise RuntimeError(f"the length-{s} window profile of "
                           f"mechanical_word({n}, {k}) is not two-valued")
    return profile


def is_admissible(word: str, s: int, t: int) -> bool:
    """Does every circular window of s consecutive spots hold >= t letters A?

    The lightest window, a violating one when False, is the minimum of
    window_weight_profile(word, s), first start on ties, as `check` reports it.
    Word and s are checked by the profile, then t, as `check` does.
    """
    profile = window_weight_profile(word, s)
    _check_quota(t)
    return min(profile) >= t


def criterion(query: AdmissibilityQuery) -> bool:
    """Exact existence test: a t-admissible arrangement exists iff n*t <= k*s."""
    return query.n * query.t <= query.k * query.s


def discrepancy(word: str, m: int) -> int:
    """Max over length-m windows of |#A - #B| (coloring A -> +1, B -> -1)."""
    parse_word(word)
    _check_window("m", m, len(word))
    return max(abs(2 * w - m) for w in _window_weights(word, m))
