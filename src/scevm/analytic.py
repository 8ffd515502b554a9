"""Closed-form EVM of an interference-limited selection-combining receiver.

Setting: L receive antennas each observe the desired channel plus M
independent unit-mean-power Rayleigh interferers, one antenna is selected
per block, and the data-aided EVM reduces to the half-inverse moment of
the post-selection signal-to-interference ratio,

    EVM = E[sqrt(I' / g0')] = integral_0^inf F_SIR'(x^-2) dx,

where F_SIR' is the CDF of the selected SIR. evm_from_sir_cdf evaluates
that integral for either rule and every Nakagami L and M, and for a
correlated pair with one interferer under max-SIR; the paper's Nakagami and
correlated special cases are configurations of it. The other public
functions each evaluate a formula the integral does not give: the
correlated max-signal integral, the fully correlated constant, and the
paper's Rayleigh alternating sums, which serve as independent references.
Interferer channels are Rayleigh in every case. formula_name and
analytic_formula, at the end, decide which function covers a configuration.
"""

import math

from .model import (
    DivergentMomentError,
    Fading,
    NumericalError,
    SelectionRule,
    SeriesRangeError,
    UnsupportedDomainError,
    check_config,
    check_count,
)
from .quadrature import integrate_semi_infinite
from .specfun import gamma_ratio, log_gamma, regularized_gamma_p

_SQRT_PI = math.sqrt(math.pi)
_LN2 = math.log(2.0)

# an alternating antenna sum is refused once largest term / |sum|, times
# the units of roundoff each term carries, passes this bound. Against
# 150-digit mpmath for L <= 40 and M up to 4096, every value returned under
# it is within 3.6e-10 relative, and refusals start where errors pass 1e-9.
_MAX_CANCELLATION = 2e6

# from this L both alternating sums are refused before any term is formed,
# sparing the O(L^2) big-integer binomials. EVM falls with L, so |sum| is at
# most the L = 1 value, and the middle term is at least C(L, L // 2)
# (max-SIR) or C(L - 1, (L - 1) // 2) (max-signal) times that value. So from
# L = 25, largest / |sum| >= C(24, 12) = 2,704,156 > _MAX_CANCELLATION, and
# every refusal scale is >= 1: the sum test would refuse at every M
_SUM_REFUSED_FROM = 25


def _times_half_moment(value, interferers):
    # value * E[sqrt(I)], where E[sqrt(I)] = Gamma(M + 1/2) / Gamma(M) for M
    # unit-mean Rayleigh interferers. From M = 2^52, M + 1/2 is not a double,
    # and the ratio's sqrt(M) (1 - 1/(8M) + ...) is sqrt(M) to rounding; M is
    # scaled by an even power of two first, so no int past the double range
    # meets float()
    if interferers < 2 ** 52:
        return value * gamma_ratio(interferers + 0.5, interferers)
    half_shift = max(0, interferers.bit_length() - 1000) // 2
    try:
        return math.ldexp(value * math.sqrt(interferers >> 2 * half_shift), half_shift)
    except OverflowError:
        raise NumericalError(
            f"the EVM passes the double range at M >= 2^{interferers.bit_length() - 1} "
            f"interferers") from None


def sir_cdf_single_antenna(x, interferers, fading):
    """CDF of the SIR seen by one antenna.

    A unit-mean Nakagami-m desired power (Rayleigh is m = 1) against M
    unit-mean Rayleigh interferers gives the regularized incomplete beta
    I_z(m, M) at z = m x / (1 + m x); for integer M that is the finite sum
    of positive terms z^m sum_{k<M} (m)_k / k! (1 - z)^k.

    Args:
        x: SIR threshold, >= 0 (math.inf allowed).
        interferers: number of unit-mean Rayleigh interferers.
        fading: desired-channel Fading.

    Returns:
        P(SIR <= x) in [0, 1].
    """
    interferers = check_count(interferers, "interferers", 1)
    if not isinstance(fading, Fading):
        raise UnsupportedDomainError(f"fading must be a Fading, got {fading!r}")
    if not (x >= 0.0):
        raise UnsupportedDomainError(f"x must be nonnegative, got {x}")
    if math.isinf(x):
        return 1.0
    m = fading.m
    mx = m * x
    if mx == 0.0:
        return 0.0
    term = total = 1.0
    for k in range(1, interferers):
        # (m)_k / k! (1 - z)^k from its predecessor, with 1 - z = 1 / (1 + m x)
        term *= (m + k - 1.0) / (k * (1.0 + mx))
        total += term
    if math.isfinite(interferers * (1.0 + mx) * total):
        # z^m = (1 + 1 / (m x))^-m, without forming z, whose rounding m amplifies
        return min(1.0, math.exp(-m * math.log1p(1.0 / mx)) * total)
    # the sum or a k (1 + m x) overflowed: the same terms, each ratio taken
    # as (1 + (k - 1) / m) / (k (x + 1 / m)), which has no overflowing factor,
    # with the sum held in units of 2^scale and z^m in log space, from
    # u = 1 / (m x), formed as (1 / m) / x where m x overflows
    u = 1.0 / mx if mx < math.inf else 1.0 / m / x
    scale, term, total = 0, 1.0, 1.0
    for k in range(1, interferers):
        term *= (1.0 + (k - 1.0) / m) / (k * (x + 1.0 / m))
        total, shift = math.frexp(total + term)
        term = math.ldexp(term, -shift)
        scale += shift
    return min(1.0, math.exp(scale * _LN2 - m * math.log1p(u)) * total)


def sir_cdf_best_antenna(x, cfg):
    """CDF of the SIR retained by max-SIR antenna selection.

    Independent antennas (rho = 0) give the single-antenna CDF raised to
    the antenna count. Correlated antennas are supported with two antennas
    and one interferer, where the classical two-branch closed form applies;
    it is rearranged here so the two nearly equal terms never cancel.

    Args:
        x: SIR threshold, >= 0.
        cfg: receiver configuration with the max_sir rule.

    Returns:
        P(selected SIR <= x) in [0, 1].
    """
    check_config(cfg)
    if not (x >= 0.0):
        raise UnsupportedDomainError(f"x must be nonnegative, got {x}")
    if cfg.rule is not SelectionRule.MAX_SIR:
        raise UnsupportedDomainError("the selected-SIR CDF is specific to the max_sir rule")
    if cfg.rho == 0.0:
        return sir_cdf_single_antenna(x, cfg.interferers, cfg.fading) ** cfg.antennas
    if cfg.interferers != 1:
        raise UnsupportedDomainError(
            "the correlated selected-SIR CDF is implemented for exactly 1 interferer")
    if x == 0.0:
        return 0.0
    rho = cfg.rho
    xi = 1.0 / x
    one_minus_r2 = (1.0 - rho) * (1.0 + rho)
    disc = one_minus_r2 + 2.0 * (1.0 + rho * rho) * xi + one_minus_r2 * xi * xi
    if math.isinf(xi) or math.isinf(disc):
        return 0.0
    root = math.sqrt(disc)
    # algebraically equal to 1/(1+xi) * (1 - xi sqrt(1-rho^2)/root) without
    # the subtraction of nearly equal quantities at small x
    numerator = one_minus_r2 + 2.0 * (1.0 + rho * rho) * xi
    return numerator / ((1.0 + xi) * root * (root + xi * math.sqrt(one_minus_r2)))


def evm_from_sir_cdf(cfg):
    """EVM by quadrature of its defining integral, integral_0^inf F(x^-2) dx.

    Under max-SIR, F is sir_cdf_best_antenna. Under max-signal with
    independent antennas the selection ignores the interferers, so F is the
    CDF P(m, m y)^L of the selected desired power and the integral is scaled
    by E[sqrt(I)] = Gamma(M + 1/2) / Gamma(M). Either F grows like y^(L m),
    so the integrand decays like x^(-2 L m): the EVM is infinite for
    2 L m <= 1 (DivergentMomentError). Beyond x = 1 the substitution x = t^p
    with p = max(1, 1 / (2 L m - 1)) keeps that tail bounded; a tail too
    slow to end within the double range (2 L m below about 1.02) raises
    NumericalError. A correlated pair under max-signal, rho = 1 included,
    is refused with UnsupportedDomainError.
    """
    check_config(cfg)
    if cfg.rule is SelectionRule.MAX_SIGNAL and cfg.rho > 0.0:
        raise UnsupportedDomainError(
            "the defining integral covers max-signal selection with independent "
            "antennas only; use evm_max_signal_correlated for a correlated pair "
            "(evm_fully_correlated at rho = 1), or analytic_formula for any configuration")
    antennas, m = cfg.antennas, cfg.fading.m
    tail = 2.0 * antennas * m
    if tail <= 1.0:
        raise DivergentMomentError(
            f"EVM is infinite for antennas={antennas}, m={m}: the selected SIR "
            f"tail needs 2*antennas*m > 1")
    cdf = lambda y: sir_cdf_best_antenna(y, cfg)
    if cfg.rule is SelectionRule.MAX_SIGNAL:
        cdf = lambda y: regularized_gamma_p(m, m * y) ** antennas
    p = max(1.0, 1.0 / (tail - 1.0))

    def integrand(t):
        # x = t up to 1 and x = t^p beyond, where F(x^-2) decays; the seam
        # t = 1 is a boundary of the quadrature's initial intervals
        if t <= 1.0:
            return cdf(t ** -2.0)
        y = t ** (-2.0 * p)
        if y == 0.0:
            raise NumericalError(f"the x^-{tail:g} tail reaches past the double range")
        return p * t ** (p - 1.0) * cdf(y)

    value = integrate_semi_infinite(integrand).value
    if cfg.rule is SelectionRule.MAX_SIR:
        return value
    return _times_half_moment(value, cfg.interferers)


def _alternating_sum(magnitudes, antennas, interferers, scale=1.0):
    # sum_k (-1)^k magnitudes[k], with magnitudes scaled so none overflows;
    # each magnitude carries a relative error of about scale units of
    # roundoff, which the cancellation largest / |sum| multiplies
    total = math.fsum(m if k % 2 == 0 else -m for k, m in enumerate(magnitudes))
    if not abs(total) * _MAX_CANCELLATION >= max(magnitudes) * scale:
        raise _cancels_too_far(antennas, interferers)
    return total


def _cancels_too_far(antennas, interferers):
    return SeriesRangeError(
        f"alternating antenna sum cancels too far to keep 1e-9 relative accuracy "
        f"for antennas={antennas}, interferers={interferers}; analytic_formula "
        f"covers it by the defining integral")


def evm_max_sir_rayleigh(antennas, interferers):
    """EVM under max-SIR selection, independent Rayleigh channels.

    Closed form: sqrt(pi) * sum_{k=1}^{L} (-1)^(k-1) C(L, k)
    Gamma(kM + 1/2) / Gamma(kM), combined with compensated summation.
    Below M = 1024 the terms are produced in log space relative to the
    largest. Each log carries an absolute error of about lnGamma(LM) units
    of roundoff, so the sum is refused once largest term / |sum| passes
    2e6 / max(1, lnGamma(LM)): from L = 15, 14, 13, 12 at M = 1, 2, 4, 8,
    and from M = 537 to 1023 at L = 6 and from M = 113 to 1023 at L = 8.
    From M = 1024, where the half-moment is a Stirling difference, each
    term is C(L, k) / C(L, L // 2) times the half-moment at kM, good to a
    few units of roundoff, and the sum is refused once largest term / |sum|
    passes 2e6 / 18: every L up to 15 is returned, to within 1.5e-10 of
    60-digit mpmath, and L = 16 is refused. From M = 2^52 the sum is the
    max-signal sum, which returns every L up to 20 and M up to 2^2046. At
    L = 1 each form returns evm_fully_correlated(M) bit for bit. From L = 25
    the sum is refused before any term is formed: there the middle term
    alone is at least C(L, L // 2) > 2e6 times the sum at every M.

    Args:
        antennas: number of antennas L >= 1.
        interferers: number of interferers M >= 1.

    Returns:
        The EVM.

    Raises:
        SeriesRangeError: if the sum cannot be trusted to 1e-9 relative.
    """
    antennas = check_count(antennas, "antennas", 1)
    interferers = check_count(interferers, "interferers", 1)
    if antennas >= _SUM_REFUSED_FROM:
        raise _cancels_too_far(antennas, interferers)
    if interferers >= 2 ** 52:
        # Gamma(kM + 1/2) / Gamma(kM) is sqrt(kM) to rounding here, and
        # C(L, k) sqrt(k) = L C(L - 1, k - 1) / sqrt(k), so sqrt(pi) sum_k
        # (-1)^(k-1) C(L, k) sqrt(kM) is the max-signal sum term for term
        return evm_max_signal_rayleigh(antennas, interferers)
    if interferers >= 1024:
        # gamma_ratio's Stirling range: each term is a half-moment good to a
        # few units of roundoff. Its binomial is taken relative to the middle
        # one, which multiplies in only once the sum has passed the refusal
        # test, so the binomials scale no term up toward overflow
        middle = math.comb(antennas, antennas // 2)
        total = _alternating_sum(
            [_times_half_moment(_SQRT_PI * (math.comb(antennas, k) / middle), k * interferers)
             for k in range(1, antennas + 1)], antennas, interferers, 18.0)
        return total * middle
    logs = [math.log(math.comb(antennas, k)) + log_gamma(k * interferers + 0.5)
            - log_gamma(k * interferers) for k in range(1, antennas + 1)]
    peak = max(logs)
    total = _alternating_sum([math.exp(a - peak) for a in logs], antennas, interferers,
                             max(1.0, log_gamma(antennas * interferers)))
    return _SQRT_PI * total * math.exp(peak)


def evm_max_signal_rayleigh(antennas, interferers):
    """EVM under max-signal-power selection, independent Rayleigh channels.

    Closed form: L * sum_{n=0}^{L-1} C(L-1, n) (-1)^n sqrt(pi / (n+1))
    times Gamma(M + 1/2) / Gamma(M). The sum is refused once largest
    term / |sum| passes 2e6, from L = 21. From L = 25, where the middle
    term alone is at least C(L - 1, (L - 1) // 2) > 2e6 times the sum, it
    is refused before any term is formed.

    Raises:
        SeriesRangeError: if the sum cannot be trusted to 1e-9 relative.
    """
    antennas = check_count(antennas, "antennas", 1)
    interferers = check_count(interferers, "interferers", 1)
    if antennas >= _SUM_REFUSED_FROM:
        raise _cancels_too_far(antennas, interferers)
    middle = math.comb(antennas - 1, (antennas - 1) // 2)
    total = _alternating_sum(
        [math.comb(antennas - 1, n) / middle * math.sqrt(math.pi / (n + 1.0))
         for n in range(antennas)], antennas, interferers)
    return _times_half_moment(antennas * total * middle, interferers)


def evm_max_signal_correlated(rho, interferers):
    """EVM under max-signal-power selection, two correlated Rayleigh antennas.

    The larger of two correlated unit-mean exponential powers has density
    2 e^-x (1 - Q_1(rho b, b)), b = sqrt(2x/(1-rho^2)). With Q_1 in Craig's
    finite-range form the x-integral of x^(-1/2) times it is closed, and
    substituting z = tan(angle) leaves, with a = (1 - rho) / (1 + rho),

        E[max^(-1/2)] = 2 sqrt(pi) (1 - sqrt(2/(1+rho)) J / pi),
        J = integral_0^inf sqrt((1 + a z^2) / (1 + a^2 z^2)) dz / (1 + z^2),

    scaled by Gamma(M + 1/2) / Gamma(M). J is integrated over s = -ln z
    folded about z = 1: y = e^-s never overflows, and the boundary layer at
    z ~ a, which the plain z-form misses silently as rho -> 1, stays an O(1)
    distance in s from z = 1. Cost and accuracy are bounded for any rho < 1.

    Args:
        rho: correlation coefficient of the complex channel gains, in [0, 1).
        interferers: number of interferers M >= 1.

    Returns:
        The EVM.
    """
    interferers = check_count(interferers, "interferers", 1)
    if not (0.0 <= rho < 1.0):
        raise UnsupportedDomainError(
            f"rho must lie in [0, 1), got {rho}; use evm_fully_correlated at rho = 1")
    a = (1.0 - rho) / (1.0 + rho)

    def folded(s):
        # z = y on (0, 1] plus z = 1/y on [1, inf), both with dz/(1+z^2) = y ds/(1+y^2)
        y = math.exp(-s)
        y2 = y * y
        return y / (1.0 + y2) * (math.sqrt((1.0 + a * y2) / (1.0 + a * a * y2))
                                 + math.sqrt((y2 + a) / (y2 + a * a)))

    j = integrate_semi_infinite(folded).value
    moment = 2.0 * _SQRT_PI * (1.0 - math.sqrt(2.0 / (1.0 + rho)) * j / math.pi)
    return _times_half_moment(moment, interferers)


def evm_fully_correlated(interferers):
    """EVM of fully correlated antennas, where selection gains nothing.

    Both antennas see the same channel, so the receiver behaves like a
    single antenna: EVM = sqrt(pi) Gamma(M + 1/2) / Gamma(M), approaching
    sqrt(pi M) for many interferers.

    Args:
        interferers: number of interferers M >= 1.

    Returns:
        The EVM.
    """
    interferers = check_count(interferers, "interferers", 1)
    return _times_half_moment(_SQRT_PI, interferers)


def _route(cfg):
    # which function covers cfg, tried in order; the evaluators look the
    # functions up when called, so patched module attributes are honoured
    check_config(cfg)
    interferers, rho = cfg.interferers, cfg.rho
    if rho == 1.0:
        return "evm_fully_correlated", lambda: evm_fully_correlated(interferers)
    if rho > 0.0:
        if cfg.rule is SelectionRule.MAX_SIGNAL:
            return "evm_max_signal_correlated", lambda: evm_max_signal_correlated(rho, interferers)
        if interferers >= 2:
            return None
    return "evm_from_sir_cdf", lambda: evm_from_sir_cdf(cfg)


def formula_name(cfg):
    """Name of the analytic route covering cfg, or None when none does."""
    route = _route(cfg)
    return None if route is None else route[0]


def analytic_formula(cfg):
    """Analytic EVM for cfg, or None when no route covers it.

    Raises:
        DivergentMomentError: a formula covers cfg but the EVM is infinite.
    """
    route = _route(cfg)
    return None if route is None else route[1]()
