"""Seeded request passes for the four benchmark workloads.

A workload is a cycle of request slots: each slot fixes a subcommand and its
flags, and the cycle fixes the mix. A pass visits every slot `visits` times.
Both counts are odd: a run repeats the pass's sizes, so its latencies come in
one cluster per request of the pass, and with an odd number of clusters the
median sits inside the middle one instead of on the gap between two.
Request i of a pass of c requests has its size at the stratum midpoint
u = (i + 0.5) / c of a log-uniform range (u maps to lo * (hi / lo) ** u), so
each slot's sizes spread over the whole range and every pass holds the same
sizes whatever the seed. Request cost grows linearly with the size, which
grows exponentially with u: sampled sizes would make the work per run, and
so every figure, swing with the seed. The seed draws everything else (k, s,
t, the words of `check`) and the order of each pass.

The cost of `arrange` and of Booth's canonical rotation at a given n varies
by a factor of two or more with k, so a run cycles through `passes` passes
that each draw fresh values: the figures then average over many k per size
instead of resting on the few drawn for one pass.

Everything here runs before timing starts; the program under test only ever
sees the argv lists built here.
"""

import random
from typing import Callable, NamedTuple

import checker

# (u, rng) -> argv; u in (0, 1] places the request in its size range
Maker = Callable[[float, random.Random], list[str]]


class Slot(NamedTuple):
    label: str
    make: Maker


class Workload(NamedTuple):
    name: str
    slots: tuple[Slot, ...]
    visits: int     # visits to each slot in one pass
    passes: int     # distinct passes a run cycles through
    tail_pct: int   # percentile reported as latency_tail_ms


def log_uniform(u: float, lo: int, hi: int) -> int:
    return min(hi, int(lo * (hi / lo) ** u))


def _pair(u: float, rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    n = log_uniform(u, lo, hi)
    return n, rng.randint(1, n - 1)


# --- generate --------------------------------------------------------------

def _generate(method: str, *flags: str, hi: int = 10**6) -> Slot:
    def make(u, rng):
        n, k = _pair(u, rng, 10**3, hi)
        return ["generate", str(n), str(k), "--method", method, *flags]
    return Slot(" ".join((method, *flags)), make)


GENERATE = Workload(
    "generate",
    tuple(_generate(method, *flags)
          for method, plain in (("mechanical", 2), ("euclid", 2), ("smith", 1))
          for flags in ((),) * plain + (("--canonical",), ("--alphabet", "01")))
    + (_generate("euclid", "--verbose", hi=10**4),
       _generate("smith", "--verbose", hi=10**4)),
    visits=7, passes=16, tail_pct=95)


# --- plan ------------------------------------------------------------------

def _plan(admissible: bool, *flags: str) -> Slot:
    def make(u, rng):
        n, k = _pair(u, rng, 10**3, 10**6)
        s = rng.randint(1, n - 1)
        best = k * s // n  # largest t with n*t <= k*s
        t = max(0, best - rng.randint(0, 2)) if admissible else best + 1 + rng.randint(0, 2)
        return ["plan", str(n), str(k), str(s), str(t), *flags]
    verdict = "admissible" if admissible else "impossible"
    return Slot(" ".join(("plan", verdict, *flags)), make)


def _discrepancy(u, rng):
    n, k = _pair(u, rng, 10**3, 10**6)
    return ["discrepancy", str(n), str(k), str(rng.randint(1, n))]


PLAN = Workload(
    "plan",
    tuple(_plan(admissible, *flags)
          for admissible in (True, False)
          for flags in ((), (), ("--format", "machine"), ("--canonical",)))
    + (Slot("discrepancy", _discrepancy),) * 3,
    visits=5, passes=16, tail_pct=90)


# --- check -----------------------------------------------------------------

def _mechanical(n, rng):
    return checker.mechanical_bytes(n, rng.randint(1, n - 1))


def _rotated(n, rng):
    word = _mechanical(n, rng)
    cut = rng.randrange(n)
    return word[cut:] + word[:cut]


def _swapped(n, rng):
    word = bytearray(_mechanical(n, rng))
    a_spots = [i for i, c in enumerate(word) if c == checker.A_CODE]
    b_spots = [i for i, c in enumerate(word) if c == checker.B_CODE]
    for _ in range(rng.randint(1, 4)):
        if a_spots and b_spots:
            i, j = rng.choice(a_spots), rng.choice(b_spots)
            word[i], word[j] = word[j], word[i]
    return bytes(word)


def _random(n, rng):
    bits = format(rng.getrandbits(n), f"0{n}b")
    return bits.translate(str.maketrans("10", "AB")).encode("ascii")


def _check(kind: str, make_word, admissible: bool, *flags: str) -> Slot:
    def make(u, rng):
        n = log_uniform(u, 10**3, 10**5)
        word = make_word(n, rng)
        s = rng.randint(1, n)
        low = int(checker.window_weights(word, s).min())
        t = max(0, low - rng.randint(0, 1)) if admissible else low + 1 + rng.randint(0, 1)
        return ["check", word.decode("ascii"), str(s), str(t), *flags]
    verdict = "admissible" if admissible else "not-admissible"
    return Slot(" ".join(("check", kind, verdict, *flags)), make)


def _invalid(u, rng):
    n = log_uniform(u, 10**3, 10**5)
    word = bytearray(_random(n, rng))
    word[rng.randrange(n)] = ord(rng.choice("CaX0"))
    return ["check", word.decode("ascii"), str(rng.randint(1, n)), "1"]


CHECK = Workload(
    "check",
    (_check("mechanical", _mechanical, True),
     _check("mechanical", _mechanical, False, "--verbose"),
     _check("rotated", _rotated, True),
     _check("rotated", _rotated, False),
     _check("swapped", _swapped, True),
     _check("swapped", _swapped, False),
     _check("random", _random, True, "--verbose"),
     _check("random", _random, False),
     Slot("check invalid-letter", _invalid)),
    visits=15, passes=1, tail_pct=99)


# --- verify ----------------------------------------------------------------

def _verify(*flags: str) -> Slot:
    def make(u, rng):
        return ["verify", str(8 + min(40, int(u * 41))), *flags]
    return Slot(" ".join(("verify", *flags)), make)


VERIFY = Workload(
    "verify", (_verify(), _verify("--format", "machine"), _verify()),
    visits=3, passes=1, tail_pct=50)


WORKLOADS = {w.name: w for w in (GENERATE, PLAN, CHECK, VERIFY)}


def build_passes(workload: Workload, seed: int) -> list[list[list[str]]]:
    """The workload's passes for this seed, each in a seeded order."""
    rng = random.Random(seed)
    count = workload.visits * len(workload.slots)
    passes = []
    for _ in range(workload.passes):
        requests = [workload.slots[i % len(workload.slots)].make((i + 0.5) / count, rng)
                    for i in range(count)]
        rng.shuffle(requests)
        passes.append(requests)
    return passes


def build_warmup(workload: Workload, seed: int) -> list[list[str]]:
    """One request per slot at the largest size the slot draws.

    Run before timing so lazy set-up is done and the peak resident memory is
    that of the workload's largest requests, whatever the seed.
    """
    rng = random.Random(seed)
    return [slot.make(1.0, rng) for slot in workload.slots]


def describe(workload: Workload) -> dict[str, int]:
    """The request mix: slot label -> slots per cycle."""
    mix: dict[str, int] = {}
    for slot in workload.slots:
        mix[slot.label] = mix.get(slot.label, 0) + 1
    return mix
