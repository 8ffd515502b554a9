"""Closed-form EVM against frozen independent evaluations.

Every table below was produced before the implementation existed, by
evaluating the defining half-inverse moment with 30 to 40 digit mpmath
arithmetic (series where available, direct integration of the selected-SIR
CDF otherwise), then frozen here verbatim.
"""

import math
import time

import numpy as np
import pytest
from oracles import exact_single_antenna, quad_oracle

from scevm import analytic
from scevm.model import (
    DivergentMomentError,
    Fading,
    NumericalError,
    SelectionRule,
    SeriesRangeError,
    SystemConfig,
    UnsupportedDomainError,
)

MAX_SIR_RAYLEIGH = {
    (1, 1): 1.570796326794896619231,
    (2, 1): 0.7853981633974483096157,
    (1, 2): 2.356194490192344928847,
    (2, 2): 1.276272015520853503125,
    (3, 1): 0.5890486225480862322117,
    (3, 4): 1.577953905119620831922,
    (4, 2): 0.881271962640300886473,
    (2, 4): 1.936650744705622052519,
}

MAX_SIGNAL_RAYLEIGH = {
    (1, 1): 1.570796326794896619231,
    (2, 1): 0.9201511845106101149547,
    (2, 2): 1.380226776765915172432,
    (3, 1): 0.7687636194984672630613,
    (2, 4): 2.012830716116959626463,
    (4, 3): 1.304512545975003001837,
}

MAX_SIR_NAKAGAMI = {
    (1, 2.0): 1.666081101809387342631,
    (2, 0.5): 1.770211170672474051545,
    (2, 2.0): 1.145430757493953798059,
    (3, 1.5): 0.9763700373331549062744,
    (2, 3.0): 1.111926319236357671592,
    (4, 2.0): 0.8592764471612135647724,
}

MAX_SIGNAL_NAKAGAMI = {
    (0.6, 1): 1.101412983055380299645,
    (0.75, 1): 0.9966406089749324517846,
    (1.5, 1): 0.8660254037844386467637,
    (2.0, 1): 0.8469946831336485816805,
    (3.0, 1): 0.8343763487811951561284,
    (5.0, 1): 0.8310770909917820879411,
    (0.6, 2): 1.652119474583070449467,
    (0.6, 4): 2.409340900433644405473,
    (1.5, 2): 1.299038105676657970146,
    (1.5, 4): 1.894430570778459539796,
    (2.0, 2): 1.270492024700472872521,
    (2.0, 4): 1.852800869354856272426,
    (3.0, 2): 1.251564523171792734193,
    (3.0, 4): 1.825198262958864404031,
    (5.0, 2): 1.246615636487673131912,
    (5.0, 4): 1.817981136544523317371,
    (0.75, 2): 1.494960913462398677677,
    (0.75, 4): 2.180151332132664738279,
}

MAX_SIR_CORRELATED = {
    0.0: 0.7853981633974483096157,
    0.3: 0.8038060186268291527978,
    0.5: 0.8408450109417270169241,
    0.6: 0.8704948056285956076412,
    0.8: 0.9722054934954778029255,
    0.9: 1.073762165286716302444,
    0.95: 1.166430952978880825966,
    0.99: 1.334042939933573266664,
}

MAX_SIGNAL_CORRELATED = {
    (0.0, 1): 0.92015118451061,
    (0.0, 2): 1.38022677676592,
    (0.0, 4): 2.01283071611696,
    (0.3, 1): 0.933224591925723,
    (0.3, 2): 1.39983688788858,
    (0.3, 4): 2.04142879483752,
    (0.5, 1): 0.959873871135931,
    (0.5, 2): 1.4398108067039,
    (0.5, 4): 2.09972409310985,
    (0.6, 1): 0.981534538776766,
    (0.6, 2): 1.47230180816515,
    (0.6, 4): 2.14710680357418,
    (0.8, 1): 1.05800850383408,
    (0.8, 2): 1.58701275575112,
    (0.8, 4): 2.31439360213705,
    (0.9, 1): 1.13761305968058,
    (0.9, 2): 1.70641958952087,
    (0.9, 4): 2.48852856805127,
    (0.99, 1): 1.35549568727695,
}

NAKAGAMI_CDF_TWO_INTERFERERS = {
    (0.5, 0.3): 0.51818258502135438589,
    (0.5, 1.0): 0.76980035891950101935,
    (0.5, 4.0): 0.95257934441568037152,
    (1.0, 0.3): 0.40828402366863905325,
    (1.0, 1.0): 0.75,
    (1.0, 4.0): 0.96,
    (2.0, 0.3): 0.31640625,
    (2.0, 1.0): 0.74074074074074074074,
    (2.0, 4.0): 0.96570644718792866941,
    (3.7, 0.3): 0.25570758700132806712,
    (3.7, 1.0): 0.73750629706578352375,
    (3.7, 4.0): 0.96897963508557763059,
}


@pytest.mark.parametrize("args,want", sorted(MAX_SIR_RAYLEIGH.items()))
def test_max_sir_rayleigh_frozen(args, want):
    assert analytic.evm_max_sir_rayleigh(*args) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("args,want", sorted(MAX_SIGNAL_RAYLEIGH.items()))
def test_max_signal_rayleigh_frozen(args, want):
    assert analytic.evm_max_signal_rayleigh(*args) == pytest.approx(want, rel=1e-13)


def _sir_nakagami_cfg(antennas, m):
    # the paper's Nakagami max-SIR case: two interferers
    return SystemConfig(antennas, 2, SelectionRule.MAX_SIR, Fading.nakagami(m))


def _signal_nakagami_cfg(m, interferers):
    # the paper's Nakagami max-signal case: two antennas
    return SystemConfig(2, interferers, SelectionRule.MAX_SIGNAL, Fading.nakagami(m))


def _sir_correlated_cfg(rho):
    # the paper's correlated max-SIR case: a pair and one interferer
    return SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=rho)


@pytest.mark.parametrize("args,want", sorted(MAX_SIR_NAKAGAMI.items()))
def test_max_sir_nakagami_frozen(args, want):
    assert analytic.analytic_formula(_sir_nakagami_cfg(*args)) == pytest.approx(
        want, abs=1e-9)


@pytest.mark.parametrize("args,want", sorted(MAX_SIGNAL_NAKAGAMI.items()))
def test_max_signal_nakagami_frozen(args, want):
    assert analytic.analytic_formula(_signal_nakagami_cfg(*args)) == pytest.approx(
        want, rel=1e-10)


@pytest.mark.parametrize("rho,want", sorted(MAX_SIR_CORRELATED.items()))
def test_max_sir_correlated_frozen(rho, want):
    assert analytic.analytic_formula(_sir_correlated_cfg(rho)) == pytest.approx(
        want, abs=1e-9)


@pytest.mark.parametrize("args,want", sorted(MAX_SIGNAL_CORRELATED.items()))
def test_max_signal_correlated_frozen(args, want):
    assert analytic.evm_max_signal_correlated(*args) == pytest.approx(want, abs=1e-9)


# E[max^(-1/2)] of two correlated unit-mean exponential powers, the EVM over
# Gamma(M + 1/2) / Gamma(M), by 40-digit mpmath quadrature; it reaches
# sqrt(pi), the fully correlated value, only at rho = 1
MAX_SIGNAL_CORRELATED_NEAR_ONE = {
    0.9999: 1.7298610377167818,
    0.999999: 1.7663575134751052,
    1.0 - 1e-8: 1.7716604976603076,
    1.0 - 1e-12: 1.7724422430984878,
    math.nextafter(1.0, 0.0): 1.7724536903196272,
}


def _interferer_moment(interferers):
    return math.exp(math.lgamma(interferers + 0.5) - math.lgamma(interferers))


@pytest.mark.parametrize("rho,want", sorted(MAX_SIGNAL_CORRELATED_NEAR_ONE.items()))
@pytest.mark.parametrize("interferers", [1, 3])
def test_max_signal_correlated_near_full_correlation(rho, want, interferers):
    got = analytic.evm_max_signal_correlated(rho, interferers)
    assert got / _interferer_moment(interferers) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("rho", [0.15, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("interferers", [1, 3])
def test_max_signal_correlated_against_noncentral_chi2(rho, interferers):
    # the density 2 e^-x (1 - Q_1(rho b, b)), b = sqrt(2x/(1-rho^2)), of the
    # larger power, with Q_1 from scipy's noncentral chi-square survival
    # function, and its half-inverse moment by QUADPACK over x = t^2
    from scipy import integrate, stats

    one_minus_r2 = (1.0 - rho) * (1.0 + rho)

    def density(x):
        b2 = 2.0 * x / one_minus_r2
        return 2.0 * math.exp(-x) * (1.0 - stats.ncx2.sf(b2, df=2, nc=rho * rho * b2))

    moment, _ = integrate.quad(lambda t: 2.0 * density(t * t), 0.0, math.inf,
                               epsabs=0.0, epsrel=1e-13, limit=200)
    assert analytic.evm_max_signal_correlated(rho, interferers) == pytest.approx(
        moment * _interferer_moment(interferers), rel=1e-12)


def test_fully_correlated_values():
    assert analytic.evm_fully_correlated(1) == pytest.approx(
        0.5 * math.pi, rel=1e-13)
    for interferers in (1, 2, 4, 16, 64):
        want = math.sqrt(math.pi) * math.exp(
            math.lgamma(interferers + 0.5) - math.lgamma(interferers))
        assert analytic.evm_fully_correlated(interferers) == pytest.approx(
            want, rel=1e-12)


def test_correlation_approaches_no_selection_limit():
    # as rho -> 1 both correlated results climb toward the single-antenna
    # value; convergence is sqrt(1-rho^2)-slow, so even 0.99 sits well away
    single = analytic.evm_fully_correlated(1)
    sir_gap = abs(analytic.analytic_formula(_sir_correlated_cfg(0.9999)) / single - 1.0)
    signal_gap = abs(analytic.evm_max_signal_correlated(0.9999, 1) / single - 1.0)
    assert sir_gap < 0.03
    assert signal_gap < 0.03
    assert abs(analytic.analytic_formula(_sir_correlated_cfg(0.99)) / single - 1.0) > 0.10


@pytest.mark.parametrize("antennas,m", [(1, 0.5), (1, 0.2), (2, 0.25), (3, 1.0 / 6.0)])
def test_sir_divergence_boundary(antennas, m):
    with pytest.raises(DivergentMomentError):
        analytic.analytic_formula(_sir_nakagami_cfg(antennas, m))


@pytest.mark.parametrize("m", [0.25, 0.1])
def test_signal_divergence_boundary(m):
    # the larger of two Gamma(m) powers has a CDF like x^(2m) near 0, so
    # its half-inverse moment is infinite exactly for 4 m <= 1
    with pytest.raises(DivergentMomentError):
        analytic.analytic_formula(_signal_nakagami_cfg(m, 1))


@pytest.mark.parametrize("rule", list(SelectionRule))
@pytest.mark.parametrize("m", [0.55, 0.6, 0.75, 2.0])
@pytest.mark.parametrize("interferers", [1, 2, 4])
def test_defining_integral_single_antenna_exact(rule, m, interferers):
    cfg = SystemConfig(1, interferers, rule, Fading.nakagami(m))
    assert analytic.evm_from_sir_cdf(cfg) == pytest.approx(
        exact_single_antenna(m, interferers), rel=1e-12)


@pytest.mark.parametrize("rule,antennas,interferers,m", [
    (SelectionRule.MAX_SIGNAL, 2, 1, 0.3),
    (SelectionRule.MAX_SIGNAL, 2, 1, 0.4),
    (SelectionRule.MAX_SIGNAL, 2, 1, 0.5),
    (SelectionRule.MAX_SIR, 2, 2, 0.3),
    (SelectionRule.MAX_SIR, 3, 2, 0.2),
])
def test_defining_integral_heavy_tail_against_scipy(rule, antennas, interferers, m):
    # 1 < 2 L m < 2, so the integrand decays like x^(-2 L m), slower than
    # x^-2; the route is evm_from_sir_cdf under either rule
    cfg = SystemConfig(antennas, interferers, rule, Fading.nakagami(m))
    want = quad_oracle(rule, antennas, interferers, m)
    assert want is not None
    assert analytic.analytic_formula(cfg) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("rule", list(SelectionRule))
@pytest.mark.parametrize("m", [0.5001, 0.505, 0.51])
def test_defining_integral_beyond_double_range_raises(rule, m):
    # finite, but the x^(-2 L m) tail holds mass past x = 2^537, where
    # x^-2 underflows; the value must not be returned short of that mass
    cfg = SystemConfig(1, 2, rule, Fading.nakagami(m))
    with pytest.raises(NumericalError) as info:
        analytic.evm_from_sir_cdf(cfg)
    assert not isinstance(info.value, DivergentMomentError)


def test_defining_integral_max_signal_rayleigh():
    assert analytic.evm_from_sir_cdf(SystemConfig(2, 1, "max_signal")) == pytest.approx(
        math.pi * (1.0 - 1.0 / math.sqrt(2.0)), abs=1e-10)
    for antennas in (1, 2, 3, 4):
        for interferers in (1, 3):
            cfg = SystemConfig(antennas, interferers, "max_signal")
            assert analytic.evm_from_sir_cdf(cfg) == pytest.approx(
                analytic.evm_max_signal_rayleigh(antennas, interferers), rel=1e-9)


def test_series_range_guard():
    with pytest.raises(SeriesRangeError):
        analytic.evm_max_sir_rayleigh(76, 2)
    with pytest.raises(SeriesRangeError):
        analytic.evm_max_sir_rayleigh(151, 1)


# (max-SIR, max-signal) EVM of large independent Rayleigh arrays, from the
# alternating sums in 400-digit mpmath arithmetic, rounded to 19 digits
LARGE_ARRAY_RAYLEIGH = {
    (25, 1): (0.1799606416360825969, 0.4712197059289788256),
    (25, 2): (0.4523653218709010427, 0.7068295588934682384),
    (25, 8): (1.337503478326756395, 1.480614652174306027),
    (28, 1): (0.1697667172562267216, 0.463528012564139543),
    (28, 2): (0.4368657850914425054, 0.6952920188462093146),
    (28, 8): (1.310550536622293551, 1.456446660571405254),
    (40, 1): (0.1414557826103446317, 0.441613257655852863),
    (40, 2): (0.3924818409343437739, 0.6624198864837792945),
    (40, 8): (1.233291165041917855, 1.387588531745807214),
    (76, 1): (0.102162259654301565, 0.4090729264297324459),
    (76, 2): (0.3262124851393210478, 0.6136093896445986689),
    (76, 8): (1.117138563695346224, 1.285343887487953266),
    (200, 1): (0.06278351185624309706, 0.37149244555996512),
    (200, 2): (0.2500629286026713685, 0.5572386683399476801),
    (200, 8): (0.9804536413703711034, 1.167262640223816185),
}


@pytest.mark.parametrize("args,want", sorted(LARGE_ARRAY_RAYLEIGH.items()))
def test_large_rayleigh_arrays_through_the_defining_integral(args, want):
    # where the alternating sums lose digits or refuse, analytic_formula
    # keeps full accuracy
    for rule, value in zip(SelectionRule, want):
        assert analytic.analytic_formula(SystemConfig(*args, rule)) == pytest.approx(
            value, rel=1e-12)


# the largest L each alternating sum still returns, with its mpmath value;
# one antenna more cancels past the 1e-9 accuracy bound and raises
LAST_TRUSTED_SUM = {
    ("max_sir", 14, 1): 0.2434436124036163357,
    ("max_sir", 13, 2): 0.558769881290514786,
    ("max_sir", 11, 8): 1.580909114996684602,
    ("max_signal", 20, 1): 0.487576760626699316,
    ("max_signal", 20, 8): 1.532009987613676806,
}


@pytest.mark.parametrize("args,want", sorted(LAST_TRUSTED_SUM.items()))
def test_alternating_sums_keep_their_digits_or_raise(args, want):
    rule, antennas, interferers = args
    closed_form = {"max_sir": analytic.evm_max_sir_rayleigh,
                   "max_signal": analytic.evm_max_signal_rayleigh}[rule]
    assert closed_form(antennas, interferers) == pytest.approx(want, rel=1e-9)
    with pytest.raises(SeriesRangeError, match="analytic_formula"):
        closed_form(antennas + 1, interferers)


# the max-SIR sum by 60-digit mpmath at large M, where a term taken as a
# difference of log-gamma values would carry about lnGamma(kM) units of
# roundoff: from M = 29348 that alone would refuse L = 2. From M = 2^52 the
# sum is the max-signal sum: there each half-moment is taken by mpmath as
# sqrt(kM) (1 - 1/(8kM) + 1/(128 (kM)^2))
MAX_SIR_AT_LARGE_M = {
    (2, 29348): (177.8686551498837508, 1e-13),
    (2, 10**6): (1038.279140730858789, 1e-13),
    (2, 10**12): (1038279.427179745103, 1e-13),
    (15, 1024): (18.45373273651874596, 1e-9),
    (15, 10**12): (577116.4432037378707, 1e-9),
    (3, 2**2046): (7.797106144107841018e307, 1e-9),
    (8, 2**2045): (4.151771220308885778e307, 1e-9),
    (15, 2**2044): (2.593695669910805822e307, 1e-9),
    (20, 2**100): (619437994493084.9684, 1e-9),
}


@pytest.mark.parametrize("args,want", sorted(MAX_SIR_AT_LARGE_M.items()))
def test_max_sir_rayleigh_at_large_interferer_counts(args, want):
    value, rel = want
    assert analytic.evm_max_sir_rayleigh(*args) == pytest.approx(value, rel=rel, abs=0)


@pytest.mark.parametrize("antennas,interferers", [
    (16, 10**6), (1100, 1024), pytest.param(21, 2**2046, id="21-2^2046")])
def test_max_sir_rayleigh_refuses_at_large_interferer_counts(antennas, interferers):
    # at L = 1100 the middle binomial, C(1100, 550), is past the double range
    with pytest.raises(SeriesRangeError, match="analytic_formula"):
        analytic.evm_max_sir_rayleigh(antennas, interferers)


@pytest.mark.parametrize("antennas,interferers,returns", [
    pytest.param(antennas, interferers, returns,
                 id=f"L{antennas}-M{interferers}-{'returns' if returns else 'refuses'}")
    for antennas, edges in ((6, (536, 537, 1023, 1024)), (8, (112, 113, 1023, 1024)))
    for interferers, returns in zip(edges, (True, False, False, True))])
def test_max_sir_rayleigh_refusal_band_below_1024_interferers(antennas, interferers, returns):
    # the edges the docstring and README state: below M = 1024 the refusal
    # scale grows with lnGamma(LM), so L = 6 and 8 refuse in a band that ends
    # where the scale drops to 18; a returned value agrees with the integral
    if not returns:
        with pytest.raises(SeriesRangeError, match="analytic_formula"):
            analytic.evm_max_sir_rayleigh(antennas, interferers)
        return
    want = analytic.evm_from_sir_cdf(SystemConfig(antennas, interferers, SelectionRule.MAX_SIR))
    assert analytic.evm_max_sir_rayleigh(antennas, interferers) == pytest.approx(want, rel=1e-8)


def test_rayleigh_sums_refuse_a_large_array_before_forming_a_term():
    # from L = 25 each sum is refused up front; forming its L big-integer
    # binomials first would take seconds at L = 8000
    start = time.perf_counter()
    for closed_form in (analytic.evm_max_sir_rayleigh, analytic.evm_max_signal_rayleigh):
        for antennas in (25, 3000, 8000):
            for interferers in (1, 1024):
                with pytest.raises(SeriesRangeError, match="cancels too far"):
                    closed_form(antennas, interferers)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("call", [
    lambda: analytic.evm_max_sir_rayleigh(0, 1),
    lambda: analytic.evm_max_sir_rayleigh(2, 0),
    lambda: analytic.evm_max_signal_rayleigh(-1, 1),
    lambda: analytic.evm_max_signal_correlated(1.0, 2),
    lambda: analytic.evm_fully_correlated(0),
    lambda: analytic.evm_max_sir_rayleigh(True, True),
    lambda: analytic.evm_max_signal_rayleigh(2, True),
    lambda: analytic.evm_fully_correlated(True),
    lambda: analytic.evm_from_sir_cdf("not a config"),
    lambda: analytic.sir_cdf_single_antenna(0.5, 2, "rayleigh"),
    lambda: analytic.analytic_formula("not a config"),
    lambda: analytic.evm_max_signal_correlated(-0.1, 1),
    lambda: analytic.evm_max_signal_correlated(0.5, 0),
    lambda: analytic.sir_cdf_single_antenna(-1.0, 1, Fading.rayleigh()),
    lambda: analytic.evm_from_sir_cdf(SystemConfig(2, 2, SelectionRule.MAX_SIR, rho=0.5)),
    lambda: analytic.evm_max_sir_rayleigh(np.bool_(True), 1),
    lambda: analytic.evm_max_sir_rayleigh(np.int64(0), 1),
    lambda: analytic.evm_max_signal_rayleigh(2.0, 1),
    lambda: analytic.evm_fully_correlated(np.float64(1.0)),
])
def test_domain_validation(call):
    with pytest.raises(UnsupportedDomainError):
        call()


def test_counts_accept_numpy_integers():
    # the count rule of SystemConfig: Python and numpy integers alike
    assert analytic.evm_max_sir_rayleigh(np.int64(2), 1) == analytic.evm_max_sir_rayleigh(2, 1)
    assert (analytic.evm_max_signal_rayleigh(3, np.uint8(2))
            == analytic.evm_max_signal_rayleigh(3, 2))
    assert analytic.evm_fully_correlated(np.int32(4)) == analytic.evm_fully_correlated(4)
    assert (analytic.sir_cdf_single_antenna(0.5, np.int64(3), Fading.rayleigh())
            == analytic.sir_cdf_single_antenna(0.5, 3, Fading.rayleigh()))


@pytest.mark.parametrize("rho", [0.5, 0.999999999, 1.0])
@pytest.mark.parametrize("route", ["evm_max_signal_correlated", "analytic_formula"])
def test_defining_integral_names_the_routes_of_correlated_max_signal(rho, route):
    # max-signal selection of a correlated pair is no CDF of the selected
    # SIR, so the integral refuses it and names what covers it
    cfg = SystemConfig(2, 3, SelectionRule.MAX_SIGNAL, rho=rho)
    with pytest.raises(UnsupportedDomainError, match=route):
        analytic.evm_from_sir_cdf(cfg)


def test_single_antenna_cdf_rayleigh():
    fading = Fading.rayleigh()
    for interferers in (1, 2, 5):
        for x in (0.01, 0.5, 1.0, 7.0):
            want = 1.0 - (1.0 + x) ** -interferers
            got = analytic.sir_cdf_single_antenna(x, interferers, fading)
            assert got == pytest.approx(want, rel=1e-14)
    assert analytic.sir_cdf_single_antenna(0.0, 3, fading) == 0.0
    assert analytic.sir_cdf_single_antenna(math.inf, 3, fading) == 1.0


@pytest.mark.parametrize("args,want", sorted(NAKAGAMI_CDF_TWO_INTERFERERS.items()))
def test_single_antenna_cdf_nakagami_frozen(args, want):
    m, x = args
    got = analytic.sir_cdf_single_antenna(x, 2, Fading.nakagami(m))
    assert got == pytest.approx(want, rel=1e-13)


def test_single_antenna_cdf_matches_betainc():
    # I_z(m, M) at z = m x / (1 + m x), for every M and shape
    from scipy.special import betainc

    for interferers in (1, 3, 4, 7):
        for m in (0.3, 1.0, 2.5, 7.0):
            for x in (1e-6, 0.01, 0.3, 1.0, 4.0, 1e3):
                want = betainc(m, interferers, m * x / (1.0 + m * x))
                got = analytic.sir_cdf_single_antenna(x, interferers, Fading.nakagami(m))
                assert got == pytest.approx(want, rel=1e-14)


def test_cdf_shape_properties():
    for fading, interferers in ((Fading.rayleigh(), 3), (Fading.nakagami(2.5), 2)):
        previous = 0.0
        for exponent in range(-6, 7):
            x = 10.0 ** exponent
            value = analytic.sir_cdf_single_antenna(x, interferers, fading)
            assert 0.0 <= value <= 1.0
            assert value >= previous
            previous = value
        assert previous > 1.0 - 1e-4


def test_best_antenna_cdf_independent_is_a_power():
    cfg = SystemConfig(3, 2, SelectionRule.MAX_SIR)
    for x in (0.05, 0.7, 3.0):
        single = analytic.sir_cdf_single_antenna(x, 2, cfg.fading)
        assert analytic.sir_cdf_best_antenna(x, cfg) == pytest.approx(
            single ** 3, rel=1e-13)


def test_best_antenna_cdf_correlated_limits():
    # rho -> 0 recovers the squared single-antenna law; rho = 1 collapses
    # selection entirely
    for x in (0.05, 0.4, 1.0, 9.0):
        nearly_free = analytic.sir_cdf_best_antenna(
            x, SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=1e-12))
        squared = (x / (1.0 + x)) ** 2
        assert nearly_free == pytest.approx(squared, rel=1e-9)
        locked = analytic.sir_cdf_best_antenna(
            x, SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=1.0))
        assert locked == pytest.approx(x / (1.0 + x), rel=1e-12)


def test_best_antenna_cdf_correlated_shape():
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.7)
    previous = -1.0
    for exponent in range(-8, 9):
        x = 10.0 ** exponent
        value = analytic.sir_cdf_best_antenna(x, cfg)
        assert 0.0 <= value <= 1.0
        assert value >= previous
        previous = value
    assert analytic.sir_cdf_best_antenna(0.0, cfg) == 0.0


def test_best_antenna_cdf_tail_reaches_one():
    for cfg in (SystemConfig(1, 1, SelectionRule.MAX_SIR),
                SystemConfig(3, 4, SelectionRule.MAX_SIR),
                SystemConfig(2, 2, SelectionRule.MAX_SIR, Fading.nakagami(2.5)),
                SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.8)):
        assert analytic.sir_cdf_best_antenna(1e8, cfg) >= 1.0 - 1e-6


def test_best_antenna_cdf_correlated_guards():
    with pytest.raises(UnsupportedDomainError):
        analytic.sir_cdf_best_antenna(
            1.0, SystemConfig(2, 1, SelectionRule.MAX_SIGNAL, rho=0.5))
    with pytest.raises(UnsupportedDomainError):
        analytic.sir_cdf_best_antenna(
            1.0, SystemConfig(2, 2, SelectionRule.MAX_SIR, rho=0.5))


def test_best_antenna_cdf_rejects_max_signal():
    # max-signal keeps the strongest desired channel, not the best SIR, so
    # the CDF of the largest SIR is not its law even with independent antennas
    with pytest.raises(UnsupportedDomainError):
        analytic.sir_cdf_best_antenna(1.0, SystemConfig(2, 1, SelectionRule.MAX_SIGNAL))


@pytest.mark.parametrize("m", [25.0, 40.0, 200.0, 1000.0])
def test_signal_rule_closed_form_at_large_shape(m):
    # where the paper's 2F1 form lost digits (m = 25 to 40) or overflowed
    # (m above about 515), against the scipy oracle
    want = quad_oracle(SelectionRule.MAX_SIGNAL, 2, 2, m)
    assert want is not None
    assert analytic.analytic_formula(_signal_nakagami_cfg(m, 2)) == pytest.approx(
        want, rel=1e-9)


@pytest.mark.parametrize("interferers", [1, 3])
def test_signal_rule_at_huge_shape_reaches_the_deterministic_limit(interferers):
    # m y overflows to inf in the defining integral; P(m, inf) = 1 there
    got = analytic.analytic_formula(_signal_nakagami_cfg(1e305, interferers))
    assert got == pytest.approx(
        _interferer_moment(interferers), rel=1e-12)


@pytest.mark.parametrize("m", [3e305, 1e307, 1e308, 1.7e308])
@pytest.mark.parametrize("interferers", [1, 3])
def test_signal_rule_past_the_log_gamma_overflow(m, interferers):
    # log_gamma(m) overflows from m ~ 2.6e305, and the series' first term
    # 1/m is subnormal from m ~ 4.5e307
    got = analytic.analytic_formula(_signal_nakagami_cfg(m, interferers))
    assert got == pytest.approx(_interferer_moment(interferers), rel=0, abs=1e-12)


@pytest.mark.parametrize("m", [1e9, 1e50, 1e300])
def test_max_sir_at_huge_shape_reaches_the_deterministic_limit(m):
    # as m grows the desired power tends to 1; the m -> inf limit of L = 3,
    # M = 2 max-SIR, by mpmath, is 0.9309430468124
    cfg = SystemConfig(3, 2, SelectionRule.MAX_SIR, Fading.nakagami(m))
    assert analytic.analytic_formula(cfg) == pytest.approx(0.9309430468124, abs=1e-9)


@pytest.mark.parametrize("m", [2.0, 1e3, 1e7, 1e300, 1.7e308])
@pytest.mark.parametrize("interferers", [2, 64, 256, 1024])
def test_max_sir_single_antenna_past_the_sum_overflow(m, interferers):
    # the M-term sum of the single-antenna CDF overflows at large M m, and
    # k (1 + m x) at huge m; at L = 1 the EVM is exact, and from m = 1e7
    # sqrt(m) Gamma(m - 1/2) / Gamma(m) is 1 + 3 / (8 m) to double precision
    cfg = SystemConfig(1, interferers, SelectionRule.MAX_SIR, Fading.nakagami(m))
    want = (exact_single_antenna(m, interferers) if m < 1e7
            else _interferer_moment(interferers) * (1.0 + 3.0 / (8.0 * m)))
    assert analytic.analytic_formula(cfg) == pytest.approx(want, rel=0, abs=1e-9)


@pytest.mark.parametrize("m", [1e305, 1e307, 1e308, 1.7e308])
@pytest.mark.parametrize("antennas,interferers", [(2, 2), (2, 5), (3, 2), (3, 5)])
def test_max_sir_past_the_shape_overflow(m, antennas, interferers):
    # m x overflows from m ~ 1e305 in the CDF's range; m = 1e300 is already
    # the m -> inf limit
    limit = analytic.analytic_formula(
        SystemConfig(antennas, interferers, SelectionRule.MAX_SIR, Fading.nakagami(1e300)))
    cfg = SystemConfig(antennas, interferers, SelectionRule.MAX_SIR, Fading.nakagami(m))
    assert analytic.analytic_formula(cfg) == pytest.approx(limit, rel=0, abs=1e-13)


def test_rules_coincide_with_one_antenna():
    # nothing to select from, so both rules and the no-selection result
    # are the same half-inverse-moment expression; the max-SIR sum has one
    # term, which cannot cancel, at any M
    for interferers in (1, 2, 4, 8, 200_000, 10**6, 10**12, 2**52, 10**400, 2**2046):
        sir = analytic.evm_max_sir_rayleigh(1, interferers)
        assert sir == pytest.approx(
            analytic.evm_max_signal_rayleigh(1, interferers), rel=1e-13)
        assert sir == pytest.approx(
            analytic.evm_fully_correlated(interferers), rel=1e-13)
        assert sir == analytic.evm_fully_correlated(interferers)


# sqrt(pi) Gamma(M + 1/2) / Gamma(M) at M = 1e12 by 40-digit mpmath
HUGE_M = 10**12
HALF_MOMENT_AT_HUGE_M = 1772453.850905294470567


def test_half_moment_routes_at_huge_interferer_counts():
    # every route scaled by Gamma(M + 1/2) / Gamma(M); at rho = 0 the
    # correlated max-signal pair is two independent antennas, whose
    # E[max^-1/2] is (2 - sqrt 2) sqrt(pi)
    want = HALF_MOMENT_AT_HUGE_M
    assert analytic.evm_fully_correlated(HUGE_M) == pytest.approx(want, rel=1e-13)
    assert analytic.evm_max_signal_rayleigh(1, HUGE_M) == pytest.approx(want, rel=1e-13)
    assert analytic.evm_max_signal_correlated(0.0, HUGE_M) == pytest.approx(
        (2.0 - math.sqrt(2.0)) * want, rel=1e-13)
    cfg = SystemConfig(1, HUGE_M, SelectionRule.MAX_SIGNAL)
    assert analytic.analytic_formula(cfg) == pytest.approx(want, rel=1e-9)


# sqrt(pi) Gamma(M + 1/2) / Gamma(M) by mpmath, at 40 digits and, for 10^400, 460
HALF_MOMENT_PAST_2_52 = {
    2**52 - 1: 118947364.4266945354185101,
    2**52: 118947364.4266945486243204,
    2**52 + 1: 118947364.4266945618301307,
    10**400: 1.772453850905516027298167e200,
}


@pytest.mark.parametrize("interferers,want", HALF_MOMENT_PAST_2_52.items(),
                         ids=["2^52-1", "2^52", "2^52+1", "10^400"])
def test_half_moment_from_two_to_the_52(interferers, want):
    # from M = 2^52, M + 1/2 is not a double; the ratio is sqrt(M) there,
    # and an M past the double range never meets float()
    assert analytic.evm_fully_correlated(interferers) == pytest.approx(want, rel=4e-15, abs=0)
    cfg = SystemConfig(1, interferers, SelectionRule.MAX_SIGNAL)
    assert analytic.analytic_formula(cfg) == pytest.approx(want, rel=1e-9, abs=0)


def test_half_moment_past_the_double_range():
    # sqrt(pi M) passes the largest double, 1.8e308, between M = 2^2046 and 2^2047
    assert analytic.evm_fully_correlated(2**2046) == pytest.approx(
        math.sqrt(math.pi) * 2.0**1023, rel=4e-15, abs=0)
    for interferers in (2**2047, 10**700):
        with pytest.raises(NumericalError, match="passes the double range"):
            analytic.evm_fully_correlated(interferers)


def test_monotone_in_each_parameter():
    sir_in_l = [analytic.evm_max_sir_rayleigh(l, 2) for l in range(1, 7)]
    assert all(b < a for a, b in zip(sir_in_l, sir_in_l[1:]))
    signal_in_m = [analytic.evm_max_signal_rayleigh(2, m) for m in range(1, 6)]
    assert all(b > a for a, b in zip(signal_in_m, signal_in_m[1:]))
    in_shape = [analytic.analytic_formula(_signal_nakagami_cfg(m, 1))
                for m in (0.6, 0.8, 1.0, 1.5, 2.0, 4.0)]
    assert all(b < a for a, b in zip(in_shape, in_shape[1:]))
    in_rho = [analytic.analytic_formula(_sir_correlated_cfg(r))
              for r in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)]
    assert all(b > a for a, b in zip(in_rho, in_rho[1:]))
