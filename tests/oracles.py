"""Independent references shared by tests.

`quad_oracle` evaluates the defining EVM integral with scipy's QUADPACK
and incomplete gamma and beta functions, none of which scevm uses;
`exact_single_antenna` is the closed form at L = 1. `correlated_pairs`
forms the Monte Carlo's correlated gain pairs from whole fills.
`draw_channels` gives the power estimator's draws of a chunk as whole
arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from scevm import simulate
from scevm.model import SelectionRule

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def exact_single_antenna(m, interferers):
    # at L = 1 the SIR factorizes: E[sqrt(I)] E[g^-1/2]
    return math.sqrt(m) * math.exp(
        math.lgamma(interferers + 0.5) - math.lgamma(interferers)
        + math.lgamma(m - 0.5) - math.lgamma(m))


def quad_oracle(rule, antennas, interferers, m, rtol=1e-10):
    """The defining integral for independent antennas, or None.

    With u = x^-2 the integral is (1/2) int_0^1 u^-3/2 F(u) du plus
    int_0^1 F(v^-2) dv. Near 0, F(u) = u^(L m) times a smooth factor, so for
    L m < 3/2 the first integrand is singular there; the algebraic weight
    of quad takes that power exactly. None is returned where QUADPACK's
    error estimate exceeds rtol of the value, so callers compare only where
    the oracle converged.
    """
    from scipy import integrate, special

    a = min(antennas * m, 1.5)
    if rule is SelectionRule.MAX_SIGNAL:
        cdf = lambda u: special.gammainc(m, m * u) ** antennas
        log_leading = m * math.log(m) - math.lgamma(m + 1.0)
        scale = math.exp(math.lgamma(interferers + 0.5) - math.lgamma(interferers))
    else:
        cdf = lambda u: special.betainc(m, interferers, m * u / (1.0 + m * u)) ** antennas
        log_leading = (m - 1.0) * math.log(m) - special.betaln(m, interferers)
        scale = 1.0
    # F(u) / u^a at u = 0, where F(u) = (leading u^m)^L (1 + O(u))
    at_zero = math.exp(antennas * log_leading) if antennas * m <= 1.5 else 0.0
    near, near_error = integrate.quad(
        lambda u: at_zero if u == 0.0 else cdf(u) / u ** a, 0.0, 1.0,
        weight="alg", wvar=(a - 1.5, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)
    far, far_error = integrate.quad(lambda v: cdf(v ** -2.0), 0.0, 1.0,
                                    epsabs=0.0, epsrel=1e-13, limit=200)
    value = 0.5 * near + far
    if not (math.isfinite(value) and 0.5 * near_error + far_error <= rtol * value):
        return None
    return scale * value


def correlated_pairs(rng, count, rho, pairs):
    """`pairs` correlated (count, 2) complex gain pairs, in the simulator's stream order.

    Each pair takes four whole fills of standard normals: the real and
    imaginary parts of h1, then those of w; h2 = sqrt(1 - rho^2) w + rho h1.
    """
    scale = math.sqrt((1.0 - rho) * (1.0 + rho))
    gains = []
    for _ in range(pairs):
        pair = np.empty((count, 2), dtype=complex)
        pair[:, 0].real = rng.standard_normal(count) * _INV_SQRT2
        pair[:, 0].imag = rng.standard_normal(count) * _INV_SQRT2
        for part, first in ((pair[:, 1].real, pair[:, 0].real),
                            (pair[:, 1].imag, pair[:, 0].imag)):
            part[:] = rng.standard_normal(count) * _INV_SQRT2 * scale + first * rho
        gains.append(pair)
    return gains


@dataclass(frozen=True)
class ChannelDraw:
    """One batch of post-fading powers, one row per fading block."""

    desired_power: np.ndarray       # (count, antennas)
    interference_power: np.ndarray  # (count, antennas), summed over interferers


def draw_channels(cfg, rng, count):
    """`count` fading blocks of per-antenna powers, as the power estimator draws them.

    Desired powers follow cfg.fading (unit mean); each interferer
    contributes a unit-mean exponential power, summed per antenna. With
    cfg.rho > 0 the two antennas' gains form correlated complex-normal
    pairs, for the desired user and every interferer alike.
    """
    desired, slices = simulate._power_rows(cfg, rng, count, count)
    interference = np.empty(desired.shape)
    for rows, part in slices:
        interference[rows] = part
    return ChannelDraw(desired, interference)
