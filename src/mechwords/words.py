"""Two-letter words, the mechanical-word generator, and circular windows.

Words are plain Python strings over the alphabet {A, B}. A non-empty word
doubles as the period of the infinite repetition word*word*word*..., which is
how circular arrangements are read. Everything here is exact integer
arithmetic; no floats appear anywhere in the library.
"""

import struct
from itertools import accumulate, product, repeat
from operator import add, sub
from typing import NamedTuple, Sequence

A = "A"
B = "B"

# fixed rendering bijection: A <-> 1, B <-> 0
_BITS = str.maketrans(A + B, "10")
_BYTES = bytes.maketrans(b"AB", b"\x01\x00")
# deletes both letters, so only the characters a word may not hold are left
_FOREIGN = str.maketrans("", "", A + B)

# the one input domain of every layer and the CLI: 1 <= k <= n letters A among
# n spots, windows of 1..n spots, factor lengths m >= 1 of the periodic word,
# quotas t >= 0, non-empty words over {A, B}


def _check_slope(n: int, k: int) -> None:
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"slope k/n needs 0 < k <= n, got k={k}, n={n}")


# the builders' alphabets: each word is built from two seed letters, the pair
# for A and B, so a build in digits is letter for letter to_bits of one in
# letters
_SEEDS = {"AB": (A, B), "01": ("1", "0")}


def _seeds(alphabet: str) -> tuple[str, str]:
    try:
        return _SEEDS[alphabet]
    except KeyError:
        raise ValueError(f"alphabet must be 'AB' or '01', got {alphabet!r}") from None


def _check_window(name: str, m: int, n: int) -> None:
    if not 1 <= m <= n:
        raise ValueError(f"{name} must be in 1..{n}, got {m}")


def _check_length(m: int) -> None:
    if m < 1:
        raise ValueError(f"factor length must be positive, got {m}")


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
    """Render a word as 0/1 digits (A -> 1, B -> 0).

    A word the library builds needs no rendering pass: the builders take
    alphabet="01" and build the same digits directly.
    """
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


def _smith_ladder(quotients: Sequence[int], a: str, b: str) -> list[str]:
    # the string-doubling kernel: S_j = S_{j-1}^m_j * S_{j-2} from S_-1 = a,
    # S_0 = b, one repetition and one concatenation per quotient
    ladder, prev, cur = [], a, b
    for m in quotients:
        prev, cur = cur, cur * m + prev
        ladder.append(cur)
    return ladder


def mechanical_word(n: int, k: int, *, alphabet: str = "AB") -> str:
    """One period of the mechanical word of slope k/n, with 0 < k <= n.

    Letter i is ceil(k*(i+1)/n) - ceil(k*i/n) rendered through 1 -> A, 0 -> B,
    so every prefix of length m holds exactly ceil(k*m/n) letters A and the
    full period has weight k. The pair is taken as given, not reduced:
    mechanical_word(4, 2) is "ABAB", two repeats of the slope-1/2 period.
    For k < n it is Smith's word on smith_quotients(n/g, k/g), its last two
    letters dropped and closed up as A...B, repeated g = gcd(n, k) times: the
    upper Christoffel word or its power, the least rotation (A < B).
    alphabet="01" builds the same word in digits, to_bits of the word.
    """
    _check_slope(n, k)
    a, b = _seeds(alphabet)
    if k == n:
        return a * n
    quotients, _, g = _euclid(n, k)
    quotients[0] -= 1
    tail = _smith_ladder(quotients, a, b)[-1]
    return (a + tail[:-2] + b) * g


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


def _block_tables() -> tuple[bytes, ...]:
    # a 4-step block keyed by the byte x0 r0 x1 r1 x2 r2 x3 r3 (spot by spot
    # from the top: the word's letter, then the letter s spots on, as 1/0),
    # whose step j is r_j - x_j, so the pairs 00, 01, 10, 11 step 0, 1, -1, 0.
    # Its prefix p_j is the sum of the steps before step j (p_0 = 0), so its
    # window j lies p_j above its first. Tables: the step sum and the lowest
    # prefix, the same two for the negated steps (minus the sum, minus the
    # highest prefix), and p_1, p_2 and p_3, each plus 64
    values = []
    for a, b, c, d in product((0, 1, -1, 0), repeat=4):
        p1, p2, p3 = a, a + b, a + b + c
        low, high = min(0, p1, p2, p3), max(0, p1, p2, p3)
        values += (p3 + d + 64, low + 64, 64 - p3 - d, 64 - high,
                   p1 + 64, p2 + 64, p3 + 64)
    return tuple(bytes(values[i::7]) for i in range(7))


_SUM4, _LOW4, _DROP4, _PEAK4, *_PREFIX4 = _block_tables()
# largest level _lightest_window gives as level bytes. Each band of 256 levels
# past the first costs the renderer one masked merge per column: at n = 10**5
# the kernel and the renderer take about 0.65 of the window list's time at 4
# bands, as long at 8 and longer at 12 (run words, best of 9, Python 3.11,
# shared host)
_LEVEL_CAP = 4 * 256 - 1


def _step_keys(bits: str, s: int) -> tuple[bytearray, bytes]:
    # the word's 0/1 digits interleaved with those of its rotation by s, as
    # ASCII, with "00" pairs (steps of 0) up to a multiple of 64 steps; and the
    # same parsed as one int, one byte per 4-step block
    n = len(bits)
    pad = -n % 64
    digits = bytearray(b"0") * (2 * (n + pad))
    digits[0:2 * n:2] = bits.encode()
    digits[1:2 * n:2] = (bits[s:] + bits[:s]).encode()
    return digits, int(digits, 2).to_bytes((n + pad) // 4, "big")


def _lifted(rel: bytes, *lanes: bytes) -> list[bytes]:
    # rel's 16-bit lanes plus each byte string's lanes, whose bytes hold
    # values plus 64: one big-int add per byte string, on a base that takes
    # the 64 off every lane once (lane bounds in _lightest_window's docstring)
    size = len(rel)
    base = int.from_bytes(rel, "big") - int.from_bytes(b"\x00\x40" * (size // 2), "big")
    wide, lifted = bytearray(size), []
    for lane in lanes:
        wide[1::2] = lane
        lifted.append((base + int.from_bytes(wide, "big")).to_bytes(size, "big"))
    return lifted


def _interleaved(*lanes: bytes) -> bytearray:
    # the 16-bit lanes of equally long byte strings, interleaved lane by lane
    step = 2 * len(lanes)
    out = bytearray(len(lanes) * len(lanes[0]))
    for j, lane in enumerate(lanes):
        out[2 * j::step], out[2 * j + 1::step] = lane[0::2], lane[1::2]
    return out


def _merged(sums: bytes, lows: bytes) -> tuple[bytes, bytes]:
    # blocks 2j and 2j + 1 as one block, on byte lanes holding values plus
    # 64: sum = sa + sb and low = min(la, sa + lb), for an even count of
    # blocks (lane bounds in _lightest_window's docstring)
    half = len(sums) // 2
    ones = int.from_bytes(b"\x01" * half, "big")
    sa, sb = int.from_bytes(sums[0::2], "big"), int.from_bytes(sums[1::2], "big")
    la, lb = int.from_bytes(lows[0::2], "big"), int.from_bytes(lows[1::2], "big")
    v = sa + lb - (ones << 6)
    select = (((la | ones << 7) - v) >> 7 & ones) * 0xFF
    return ((sa + sb - (ones << 6)).to_bytes(half, "big"),
            (la ^ ((la ^ v) & select)).to_bytes(half, "big"))


def _lightest_window(bits: str, s: int, head: int, leveled: bool = False
                     ) -> tuple[int, int, int | None, bytes | None]:
    """(start, weight, top, levels): the first lightest window of s spots.

    For a non-empty word as 0/1 digits (`_as_bits`), 1 <= s <= n, and head
    the weight of its first window; nothing is validated. weight is the
    minimum of _window_weights(word, s) and start its first index. With
    leveled, top is the largest level (a weight minus the lightest) and,
    when top <= _LEVEL_CAP, levels gives the profile: window i weighs weight
    + level i, the levels being n lanes of one byte when top < 256 and of
    two otherwise (big-endian: a band of 256 levels, then the level within
    it). levels is None past the cap, and top and levels are None without
    leveled. No Python int is made per window.

    With x the word as 0/1, window i + 1 weighs d[i] = x[i+s] - x[i] more
    than window i, so weight[i] is weight[0] plus the sum of d[0..i-1]. The
    bytes of `_step_keys` key the steps 4 at a time; two 256-byte tables
    give each 4-step block its step sum and its lowest prefix, both plus 64.
    Four merges pair blocks 2j and 2j + 1 into blocks of 8, 16, 32 and 64
    steps, with sum = sa + sb and low = min(la, sa + lb), each merge a few
    big-int operations on the blocks' bytes as the byte lanes of two ints.
    With leveled the same is done for the negated steps (steps too, so
    within the same lane bounds), whose lowest prefix is minus the highest.
    One accumulate over the 64-step sums gives the weight at each block's
    first spot, with the block's low its lightest window, and with its peak
    its heaviest: so weight, top and the first lightest block. The first
    lightest window lies in that block, and a walk of at most 64 steps from
    its first spot finds it, on both results.

    Padding. Zero steps fill the last 64-step block, so every merge pairs
    an even count of blocks. They come after every real step, so their
    prefixes equal the sum of all n steps, 0, the prefix of window 0: the
    first lightest window is never among them, and weight and top hold.

    Lane bounds. A block of m steps has sum in -m..m and low in -(m-1)..0,
    so at m <= 64 every stored lane (value plus 64) lies in 0..128. Merging
    two m-step blocks (m <= 32), the lanewise sums SA + SB and SA + LB lie
    in 128 - 2m..128 + 2m, within 64..192: no lane carries, and subtracting
    64 from each borrows from none. That leaves V = SA + LB - 64 in 1..96 and
    LA in 1..64, both below 128, so (LA | 0x80) - V lies in 33..191 in each
    lane, borrows from none, and has its top bit set exactly when LA >= V;
    that bit, spread over its byte, selects V over LA.

    The levels. The blocks are split back down to 4 steps on 16-bit lanes
    of first weight minus the lightest: block 2j starts where its parent j
    does, and block 2j + 1 there plus the sum of block 2j, kept from the way
    up. A 4-step block's window j lies p_j above its first (one table per j
    from 1 to 3), so its levels are its lane and that lane plus p_1, p_2 and
    p_3. Each step down and the last step is the one lane add of `_lifted`:
    a lane holds a weight minus the lightest, in 0..top (top <= 1023), plus
    a byte in 32..96 (the sum of a block of at most 32 steps, or p_j, plus
    64), so it stays below top + 96 < 2**16 and never carries; after taking
    the 64 off it is again a weight minus the lightest, at least 0, so it
    never borrows. Below 256 levels each level is its lane's low byte. The
    padding's windows are dropped at the end.
    """
    n = len(bits)
    digits, keys = _step_keys(bits, s)
    sums, lows = keys.translate(_SUM4), keys.translate(_LOW4)
    if leveled:
        drops, peaks = keys.translate(_DROP4), keys.translate(_PEAK4)
    halves = []
    for _ in range(4):
        halves.append(sums)
        sums, lows = _merged(sums, lows)
        if leveled:
            drops, peaks = _merged(drops, peaks)
    starts = list(accumulate(map(sub, sums[:-1], repeat(64)), initial=head))
    lightest = list(map(add, starts, lows))
    block = lightest.index(min(lightest))
    weight = lightest[block] - 64
    # digits 2i and 2i + 1 are x[i] and x[i+s] as ASCII 0/1, so their
    # difference is d[i]
    i, w = 64 * block, starts[block]
    while w != weight:
        w += digits[2 * i + 1] - digits[2 * i]
        i += 1
    if not leveled:
        return i, weight, None, None
    top = max(map(sub, starts, peaks)) + 64 - weight
    if top > _LEVEL_CAP:
        return i, weight, top, None
    rel = struct.pack(f">{len(starts)}H", *map(sub, starts, repeat(weight)))
    for sums in reversed(halves):
        rel = _interleaved(rel, *_lifted(rel, sums[0::2]))
    levels = _interleaved(rel, *_lifted(rel, *map(keys.translate, _PREFIX4)))
    return i, weight, top, levels[1:2 * n:2] if top < 256 else levels[:2 * n]


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
    _check_length(m)
    n, k = len(period), period.count(A)
    low, high = (m * k) // n, -(-m * k // n)
    weights = _window_weights(period, m)
    if low <= min(weights) and max(weights) <= high:
        return BalanceCheck(True, None, None, low, high)
    start = next(i for i, w in enumerate(weights) if not low <= w <= high)
    return BalanceCheck(False, start, weights[start], low, high)
