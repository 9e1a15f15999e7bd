"""Balanced circular two-letter arrangements.

Construct circular arrangements of k letters A among n spots whose windows are
as evenly loaded as possible, decide exactly when every window of s
consecutive spots can be guaranteed at least t letters A (iff n*t <= k*s), and
verify the constructions against exhaustive brute force at small scale.

The package splits into:

- ``words``: two-letter words and the one input domain, the mechanical-word
  generator, the circular window kernel, and balance checking.
- ``admissibility``: circular window profiles, the n*t <= k*s criterion,
  window discrepancy, and the closed-form minimum window of a mechanical word.
- ``constructions``: the Euclidean quotient-ladder build, the
  continued-fraction word recursion and its quotients, and rotation
  canonicalization.
- ``oracle``: brute-force enumeration used as ground truth, and the
  exhaustive sweeps behind ``verify``.
- ``cli``: the ``mechwords`` command (plan, generate, check, verify,
  discrepancy).
"""

from .admissibility import (
    AdmissibilityQuery,
    WindowReport,
    criterion,
    discrepancy,
    is_admissible,
    mechanical_window,
    window_weight_profile,
)
from .constructions import (
    arrange,
    canonical_rotation,
    euclid_trace,
    rotation_equivalent,
    smith_ladder,
    smith_quotients,
    symbol_stages,
)
from .oracle import OracleResult, brute_force_exists, verify_sweeps
from .words import (
    A,
    B,
    BalanceCheck,
    check_balance,
    mechanical_word,
    parse_word,
    to_bits,
)

__version__ = "0.1.0"

__all__ = [
    "A",
    "B",
    "AdmissibilityQuery",
    "BalanceCheck",
    "OracleResult",
    "WindowReport",
    "arrange",
    "brute_force_exists",
    "canonical_rotation",
    "check_balance",
    "criterion",
    "discrepancy",
    "euclid_trace",
    "is_admissible",
    "mechanical_window",
    "mechanical_word",
    "parse_word",
    "rotation_equivalent",
    "smith_ladder",
    "smith_quotients",
    "symbol_stages",
    "to_bits",
    "verify_sweeps",
    "window_weight_profile",
]
