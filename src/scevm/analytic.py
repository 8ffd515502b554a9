"""Closed-form EVM of an interference-limited selection-combining receiver.

Setting: L receive antennas each observe the desired channel plus M
independent unit-mean-power Rayleigh interferers, one antenna is selected
per block, and the data-aided EVM reduces to the half-inverse moment of
the post-selection signal-to-interference ratio,

    EVM = E[sqrt(I' / g0')] = integral_0^inf F_SIR'(x^-2) dx,

where F_SIR' is the CDF of the selected SIR. Each public function below
evaluates that moment for one combination of selection rule, desired-channel
fading law, and antenna correlation. Interferer channels are Rayleigh in
every case.
"""

import math

from .model import (
    DivergentMomentError,
    Fading,
    NumericalError,
    SelectionRule,
    SeriesRangeError,
    SystemConfig,
    UnsupportedDomainError,
)
from .quadrature import integrate_semi_infinite, integrate_weighted_sqrt
from .specfun import gamma_ratio, gauss_2f1, log_gamma, marcum_q1, regularized_gamma_p

_SQRT_PI = math.sqrt(math.pi)

# beyond this the alternating antenna sum cannot be trusted in doubles
_MAX_ANTENNA_INTERFERER_PRODUCT = 150


def _validate_count(name, value):
    if not isinstance(value, int) or value < 1:
        raise UnsupportedDomainError(f"{name} must be an integer >= 1, got {value!r}")


def sir_cdf_single_antenna(x, interferers, fading):
    """CDF of the SIR seen by one antenna.

    For a Rayleigh desired channel the CDF is 1 - (1 + x)^-M for any number
    of interferers M. For a Nakagami-m desired channel the algebraic form
    implemented here is specific to M = 2 interferers.

    Args:
        x: SIR threshold, >= 0 (math.inf allowed).
        interferers: number of unit-mean Rayleigh interferers.
        fading: desired-channel Fading.

    Returns:
        P(SIR <= x) in [0, 1].
    """
    _validate_count("interferers", interferers)
    if not (x >= 0.0):
        raise UnsupportedDomainError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if fading.kind == "rayleigh":
        return 1.0 - (1.0 + x) ** (-float(interferers))
    if interferers != 2:
        raise UnsupportedDomainError(
            "the Nakagami desired-channel SIR CDF is implemented for exactly 2 interferers")
    m = fading.m
    mx = m * x
    # (m x)^m (1 + m + m x) / (1 + m x)^(1+m), evaluated in log space so
    # large m x neither overflows nor loses the approach to 1
    log_f = m * math.log(mx) + math.log1p(m + mx) - (1.0 + m) * math.log1p(mx)
    return math.exp(log_f)


def sir_cdf_best_antenna(x, cfg):
    """CDF of the SIR retained after antenna selection.

    Independent antennas (rho = 0) give the single-antenna CDF raised to
    the antenna count, for either selection rule. Correlated antennas are
    supported for the maximum-SIR rule with two antennas and one
    interferer, where the classical two-branch closed form applies; it is
    rearranged here so the two nearly equal terms never cancel.

    Args:
        x: SIR threshold, >= 0.
        cfg: receiver configuration.

    Returns:
        P(selected SIR <= x) in [0, 1].
    """
    if not isinstance(cfg, SystemConfig):
        raise UnsupportedDomainError("cfg must be a SystemConfig")
    if not (x >= 0.0):
        raise UnsupportedDomainError(f"x must be nonnegative, got {x}")
    if cfg.rho == 0.0:
        return sir_cdf_single_antenna(x, cfg.interferers, cfg.fading) ** cfg.antennas
    if cfg.rule is not SelectionRule.MAX_SIR:
        raise UnsupportedDomainError(
            "the correlated selected-SIR CDF is specific to the max_sir rule")
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
    """EVM by quadrature of its defining integral, integral_0^inf F_SIR'(x^-2) dx.

    F_SIR' is sir_cdf_best_antenna, so cfg must be a configuration it
    supports, and the moment must be finite.
    """
    return integrate_semi_infinite(
        lambda x: 1.0 if x == 0.0 else sir_cdf_best_antenna(x ** -2.0, cfg)).value


def evm_max_sir_rayleigh(antennas, interferers):
    """EVM under max-SIR selection, independent Rayleigh channels.

    Closed form: sqrt(pi) * sum_{k=1}^{L} (-1)^(k-1) C(L, k)
    Gamma(kM + 1/2) / Gamma(kM). The alternating terms are produced in log
    space and combined with compensated summation; configurations whose
    cancellation exceeds double precision are rejected.

    Args:
        antennas: number of antennas L >= 1.
        interferers: number of interferers M >= 1.

    Returns:
        The EVM.

    Raises:
        SeriesRangeError: if the sum cannot be trusted in double precision.
    """
    _validate_count("antennas", antennas)
    _validate_count("interferers", interferers)
    if antennas * interferers > _MAX_ANTENNA_INTERFERER_PRODUCT:
        raise SeriesRangeError(
            f"antennas * interferers = {antennas * interferers} exceeds the "
            f"supported range {_MAX_ANTENNA_INTERFERER_PRODUCT}")
    terms = []
    largest = 0.0
    for k in range(1, antennas + 1):
        km = k * interferers
        magnitude = math.exp(
            math.log(math.comb(antennas, k)) + log_gamma(km + 0.5) - log_gamma(km))
        largest = max(largest, magnitude)
        terms.append(magnitude if k % 2 == 1 else -magnitude)
    total = math.fsum(terms)
    if largest > 0.0 and abs(total) < 1e-9 * largest:
        raise SeriesRangeError(
            f"alternating antenna sum lost all significant digits for "
            f"antennas={antennas}, interferers={interferers}")
    return _SQRT_PI * total


def evm_max_signal_rayleigh(antennas, interferers):
    """EVM under max-signal-power selection, independent Rayleigh channels.

    Closed form: L * sum_{n=0}^{L-1} C(L-1, n) (-1)^n sqrt(pi / (n+1))
    times Gamma(M + 1/2) / Gamma(M).
    """
    _validate_count("antennas", antennas)
    _validate_count("interferers", interferers)
    terms = []
    largest = 0.0
    for n in range(antennas):
        magnitude = math.comb(antennas - 1, n) * math.sqrt(math.pi / (n + 1.0))
        largest = max(largest, magnitude)
        terms.append(magnitude if n % 2 == 0 else -magnitude)
    total = math.fsum(terms)
    if abs(total) < 1e-9 * largest:
        raise SeriesRangeError(
            f"alternating antenna sum lost all significant digits for antennas={antennas}")
    return antennas * total * gamma_ratio(interferers + 0.5, interferers)


def evm_max_sir_nakagami(antennas, m):
    """EVM under max-SIR selection, Nakagami-m desired channel, 2 interferers.

    No closed form is usable here without analytic continuation machinery,
    so this integrates the selected-SIR CDF directly:
    integral_0^inf F(x^-2)^L dx with the two-interferer Nakagami SIR CDF.

    Args:
        antennas: number of antennas L >= 1.
        m: Nakagami shape of the desired channel, > 0. The moment exists
            only for 2 L m > 1.

    Returns:
        The EVM.

    Raises:
        DivergentMomentError: if 2 * antennas * m <= 1, where the defining
            integral is infinite.
    """
    _validate_count("antennas", antennas)
    if not (m > 0.0):
        raise UnsupportedDomainError(f"shape m must be positive, got {m}")
    if 2.0 * antennas * m <= 1.0:
        raise DivergentMomentError(
            f"EVM is infinite for antennas={antennas}, m={m}: the selected SIR "
            f"tail needs 2*antennas*m > 1")
    return evm_from_sir_cdf(SystemConfig(antennas, 2, SelectionRule.MAX_SIR,
                                         Fading.nakagami(m)))


def _max_pair_density_log(x, m):
    # density of the larger of two independent unit-mean Gamma(m, 1/m)
    # powers: 2 P(m, m x) m^m x^(m-1) e^(-m x) / Gamma(m)
    p = regularized_gamma_p(m, m * x)
    if p == 0.0:
        return None
    return (math.log(2.0) + math.log(p) + m * math.log(m)
            + (m - 1.0) * math.log(x) - m * x - log_gamma(m))


def evm_max_signal_nakagami(m, interferers):
    """EVM under max-signal-power selection, Nakagami-m desired, 2 antennas.

    Closed form: 2 Gamma(m - 1/2) sqrt(m) / Gamma(m) *
    (1 - 2F1(m - 1/2, 2m - 1/2; m + 1/2; -1) Gamma(2m - 1/2) /
    (Gamma(m) Gamma(m + 1/2))) * Gamma(M + 1/2) / Gamma(M).

    The closed form is cross-checked on every call against direct
    quadrature of the max-of-two-powers density; disagreement beyond 1e-7
    raises, since it would mean one of the two routes is broken.

    Args:
        m: Nakagami shape of the desired channel, must exceed 0.5.
        interferers: number of interferers M >= 1.

    Returns:
        The EVM.

    Raises:
        DivergentMomentError: for m <= 0.5, where Gamma(m - 1/2) in the
            closed form blows up along with the single-channel half-inverse
            moment it descends from.
    """
    _validate_count("interferers", interferers)
    if not (m > 0.0):
        raise UnsupportedDomainError(f"shape m must be positive, got {m}")
    if m <= 0.5:
        raise DivergentMomentError(
            f"EVM closed form requires m > 0.5, got m={m}: the half-inverse "
            f"moment of a Gamma({m}) power does not exist")
    hyp = gauss_2f1(m - 0.5, 2.0 * m - 0.5, m + 0.5, -1.0)
    correction = hyp * math.exp(
        log_gamma(2.0 * m - 0.5) - log_gamma(m) - log_gamma(m + 0.5))
    desired_moment = (2.0 * math.exp(log_gamma(m - 0.5) - log_gamma(m))
                      * math.sqrt(m) * (1.0 - correction))

    def density(x):
        if x <= 0.0:
            return 0.0
        log_f = _max_pair_density_log(x, m)
        return 0.0 if log_f is None else math.exp(log_f)

    check = integrate_weighted_sqrt(density, "divide_by_sqrt").value
    if abs(check - desired_moment) > 1e-7 * max(1.0, abs(desired_moment)):
        raise NumericalError(
            f"closed form {desired_moment!r} and quadrature {check!r} disagree "
            f"for m={m}; refusing to return an unverified value")
    return desired_moment * gamma_ratio(interferers + 0.5, interferers)


def evm_max_sir_correlated(rho):
    """EVM under max-SIR selection, two correlated Rayleigh antennas, 1 interferer.

    Integrates the two-branch correlated selected-SIR CDF composed with
    x^-2. Correlation applies to the desired pair and to the interferer
    pair alike, with the same coefficient.

    Args:
        rho: correlation coefficient of the complex channel gains, in [0, 1).
            For rho = 1 use evm_fully_correlated, where selection is moot.

    Returns:
        The EVM.
    """
    if not (0.0 <= rho < 1.0):
        raise UnsupportedDomainError(
            f"rho must lie in [0, 1), got {rho}; use evm_fully_correlated at rho = 1")
    return evm_from_sir_cdf(SystemConfig(antennas=2, interferers=1,
                                         rule=SelectionRule.MAX_SIR, rho=rho))


def evm_max_signal_correlated(rho, interferers):
    """EVM under max-signal-power selection, two correlated Rayleigh antennas.

    The larger of two correlated unit-mean exponential powers has density
    2 e^-x (1 - Q_1(rho sqrt(2x/(1-rho^2)), sqrt(2x/(1-rho^2)))); its
    half-inverse moment is integrated with the square-root weight removed
    by substitution, then scaled by Gamma(M + 1/2) / Gamma(M).

    Args:
        rho: correlation coefficient of the complex channel gains, in [0, 1).
        interferers: number of interferers M >= 1.

    Returns:
        The EVM.
    """
    _validate_count("interferers", interferers)
    if not (0.0 <= rho < 1.0):
        raise UnsupportedDomainError(
            f"rho must lie in [0, 1), got {rho}; use evm_fully_correlated at rho = 1")
    one_minus_r2 = (1.0 - rho) * (1.0 + rho)

    def density(x):
        if x <= 0.0 or x > 745.0:  # exp(-x) underflows past 745
            return 0.0
        arg = math.sqrt(2.0 * x / one_minus_r2)
        return 2.0 * math.exp(-x) * (1.0 - marcum_q1(rho * arg, arg))

    moment = integrate_weighted_sqrt(density, "divide_by_sqrt").value
    return moment * gamma_ratio(interferers + 0.5, interferers)


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
    _validate_count("interferers", interferers)
    return _SQRT_PI * gamma_ratio(interferers + 0.5, interferers)
