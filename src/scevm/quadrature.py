"""Adaptive Gauss-Kronrod quadrature for the semi-infinite EVM integrals.

Integrals over [0, inf) are compactified to the unit interval through
x = t / (1 - t) and refined adaptively with the 15-point Kronrod rule and
its embedded 7-point Gauss rule. The integrand is never evaluated at 0
or at infinity, so an integrable endpoint singularity is refined rather
than clipped; a slowly decaying tail is the caller's to remove by a change
of variable before the call. Every integral meets the tolerances set below
within the evaluation budget, or raises AccuracyNotReachedError with its
best estimate.
"""

import heapq
import math
from dataclasses import dataclass

from .model import NumericalError

# 15-point Kronrod abscissae on [-1, 1] (nonnegative half) and weights,
# with the embedded 7-point Gauss weights on the odd-index abscissae.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# error targets (the looser wins) and evaluation budget, read at call time
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_EVALUATIONS = 200000


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, and cost of one integration."""

    value: float
    abs_error_estimate: float
    evaluations: int


class AccuracyNotReachedError(NumericalError):
    """The evaluation budget ran out before the tolerance was met.

    Carries the best estimate found so far in the ``best`` attribute.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def _kronrod_interval(f, lo, hi):
    # returns (kronrod15, |kronrod15 - gauss7|) on [lo, hi]
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(center)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = half * _XGK[i]
        pair = f(center - x) + f(center + x)
        kron += _WGK[i] * pair
        if i % 2 == 1:
            gauss += _WG[i // 2] * pair
    kron *= half
    gauss *= half
    if not math.isfinite(kron):
        raise NumericalError(f"integrand is not finite on [{lo}, {hi}]")
    return kron, abs(kron - gauss)


_INITIAL_INTERVALS = 16


def _adaptive_unit_interval(f):
    # heap of (-error, insertion order, lo, hi, value, error); ties broken
    # by insertion order so refinement is deterministic. Seeding with more
    # than one interval keeps features narrower than the node spacing of a
    # single 15-point rule from slipping through with a zero error estimate.
    counter = 0
    heap = []
    evaluations = 0
    for i in range(_INITIAL_INTERVALS):
        lo = i / _INITIAL_INTERVALS
        hi = (i + 1) / _INITIAL_INTERVALS
        value, err = _kronrod_interval(f, lo, hi)
        evaluations += 15
        heap.append((-err, counter, lo, hi, value, err))
        counter += 1
    heapq.heapify(heap)
    total_value = math.fsum(item[4] for item in heap)
    total_error = math.fsum(item[5] for item in heap)
    while total_error > max(ABS_TOL, REL_TOL * abs(total_value)):
        if evaluations + 30 > MAX_EVALUATIONS:
            raise AccuracyNotReachedError(
                f"estimated error {total_error:.3e} above tolerance after "
                f"{evaluations} evaluations", _result(heap, evaluations))
        neg_err, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval is at floating point resolution; freeze it
            counter += 1
            heapq.heappush(heap, (0.0, counter, lo, hi, v, e))
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        vl, el = _kronrod_interval(f, lo, mid)
        vr, er = _kronrod_interval(f, mid, hi)
        evaluations += 30
        total_value += vl + vr - v
        total_error += el + er - e
        counter += 1
        heapq.heappush(heap, (-el, counter, lo, mid, vl, el))
        counter += 1
        heapq.heappush(heap, (-er, counter, mid, hi, vr, er))
    return _result(heap, evaluations)


def _result(heap, evaluations):
    return QuadratureResult(math.fsum(item[4] for item in heap),
                            math.fsum(item[5] for item in heap), evaluations)


def integrate_semi_infinite(f):
    """Integrate f over [0, inf) to within max(ABS_TOL, REL_TOL |value|).

    Args:
        f: integrand, defined and finite on (0, inf). Endpoint singularities
            that are integrable are handled by adaptive refinement; the rule
            never evaluates f at 0 or at the compactified image of infinity.

    Returns:
        QuadratureResult with the value, an error estimate, and the
        evaluation count.

    Raises:
        AccuracyNotReachedError: if MAX_EVALUATIONS run out first; the
            exception carries the best estimate.
    """
    def mapped(t):
        w = 1.0 - t
        if w <= 0.0:
            return 0.0
        v = f(t / w) / (w * w)
        if math.isfinite(v):
            return v
        if w < 1e-120:
            # decaying integrand divided by an underflowing Jacobian factor
            return 0.0
        raise NumericalError(f"integrand returned a non-finite value at x = {t / w}")

    return _adaptive_unit_interval(mapped)
