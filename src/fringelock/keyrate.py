"""Round-robin differential-phase-shift key-rate arithmetic.

Single-photon-source form of the rate per L-pulse train:

    R = Q * (1 - h(e_bit) - h(v_th / (L - 1)))

with h the binary entropy. R may be negative; callers interpret that as
"no key". Finite-key and decoy analyses are out of scope. ``key_rate`` and
``error_threshold`` check their own inputs: v_th, the protocol's auxiliary
parameter, lies in (0, (L-1)/2]; Q is the mean valid detections per train.
"""

from __future__ import annotations

import math
import sys


def _check_train(L: int, v_th: float) -> None:
    """Reject an L or v_th outside the protocol's range, or an L past the float range."""
    if L < 2:
        raise ValueError(f"train length L must be >= 2, got {L}")
    # (L - 1) / 2 would raise OverflowError, a runtime fault, not a usage error
    if L - 1 > sys.float_info.max:
        raise ValueError(f"train length L must be at most {sys.float_info.max:.6g} (a float)")
    if not 0.0 < v_th <= (L - 1) / 2.0:
        raise ValueError(f"v_th must lie in (0, (L-1)/2] = (0, {(L - 1) / 2}], got {v_th}")


def binary_entropy(x: float) -> float:
    """h(x) = -x*log2(x) - (1-x)*log2(1-x), with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def key_rate(L: int, v_th: float, Q: float, e_bit: float) -> float:
    """Key bits per L-pulse train. Not clamped at zero; + 0.0 turns Q = 0's -0.0 to 0.0."""
    _check_train(L, v_th)
    if not 0.0 <= Q < math.inf:
        raise ValueError(f"Q must be finite and >= 0, got {Q}")
    if not 0.0 <= e_bit <= 0.5:
        raise ValueError(f"e_bit must lie in [0, 0.5], got {e_bit}")
    return Q * (1.0 - binary_entropy(e_bit) - binary_entropy(v_th / (L - 1))) + 0.0


def error_threshold(L: int, v_th: float) -> float:
    """Largest tolerable bit error rate: the root of 1 - h(e) - h(v_th/(L-1)).

    Bisection on (0, 0.5) to 1e-9. Returns 0 when the privacy term already
    consumes the whole bit (h(v_th/(L-1)) >= 1, e.g. L=2 with v_th at its
    bound).
    """
    _check_train(L, v_th)
    budget = 1.0 - binary_entropy(v_th / (L - 1))
    if budget <= 0.0:
        return 0.0
    lo, hi = 0.0, 0.5
    # f(lo) = budget > 0, f(hi) = budget - 1 < 0: the root is bracketed
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if budget - binary_entropy(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
