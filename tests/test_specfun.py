"""Special-function kernels against frozen high-precision values and scipy.

The frozen numbers were produced with 40-digit mpmath evaluations of the
defining series/integrals and are embedded so the suite needs no symbolic
dependency at runtime; scipy provides a second, independently implemented
route for the same quantities.
"""

import math

import pytest
import scipy.special

from scevm.model import NumericalError, UnsupportedDomainError
from scevm.specfun import (
    gamma_ratio,
    gauss_2f1,
    log_gamma,
    regularized_gamma_p,
    regularized_gamma_q,
)

LOG_GAMMA_FROZEN = {
    0.001: 6.9071788853838536825,
    0.1: 2.2527126517342059599,
    0.25: 1.2880225246980774574,
    0.5: 0.57236494292470008707,
    1.0: 0.0,
    1.5: -0.12078223763524522235,
    2.0: 0.0,
    3.7: 1.4280723266653879219,
    10.5: 13.940625219403763633,
    64.5: 203.08680483582812261,
    150.5: 602.51395487058541195,
    2500.0: 17057.121976001839975,
    10000.0: 82099.717496442377273,
}

GAMMA_RATIO_FROZEN = {
    (1.5, 1.0): 0.88622692545275801365,
    (2.5, 2.0): 1.3293403881791370205,
    (4.5, 4.0): 1.9386213994279081549,
    (16.5, 16.0): 3.9688767938289397465,
    (64.5, 64.0): 7.9843904074837702029,
    (256.5, 256.0): 15.992189412002836125,
    (150.5, 150.0): 12.23724677694401327,
    (0.75, 2.25): 1.0815651841076555664,
}

UPPER_GAMMA_FROZEN = {
    (0.5, 0.25): 0.47950012218695346232,
    (0.5, 2.0): 0.045500263896358414401,
    (1.0, 1.0): 0.3678794411714423216,
    (2.0, 1.0): 0.73575888234288464319,
    (2.0, 3.5): 0.13588822540043325333,
    (3.5, 0.5): 0.99482853651651548226,
    (3.5, 7.7): 0.03120047666002951704,
    (10.0, 4.0): 0.99186775720306613684,
    (10.0, 14.0): 0.10939936964273900341,
    (150.0, 130.0): 0.95393445598510393402,
    (150.0, 170.0): 0.05563443131019329444,
    (2500.0, 2460.0): 0.78745775139459937935,
    (0.3, 1e-8): 0.99556412068635467142,
    (5.0, 1e-3): 0.99999999999999999167,
    (1.0, 30.0): 9.3576229688401746049e-14,
}

LOWER_GAMMA_FROZEN = {
    (0.5, 0.25): 0.52049987781304653768,
    (0.5, 2.0): 0.9544997361036415856,
    (1.0, 1.0): 0.6321205588285576784,
    (2.0, 1.0): 0.26424111765711535681,
    (2.0, 3.5): 0.86411177459956674667,
    (3.5, 0.5): 0.0051714634834845177365,
    (3.5, 7.7): 0.96879952333997048694,
    (10.0, 4.0): 0.0081322427969338631557,
    (10.0, 14.0): 0.89060063035726099659,
    (150.0, 130.0): 0.046065544014896065984,
    (150.0, 170.0): 0.94436556868980670556,
    (2500.0, 2460.0): 0.21254224860540062065,
    (0.3, 1e-8): 0.0044358793136453295066,
    (5.0, 1e-3): 8.3263918642115032568e-18,
    (1.0, 30.0): 0.99999999999990642377,
}

GAUSS_2F1_FROZEN = {
    (0.5, 1.5, 1.5, -1.0): 0.7071067811865475244,
    (0.5, -1.0, 1.5, 0.5): 0.83333333333333333333,
    (1.2, 0.7, 2.3, 0.4): 1.1918716684329117291,
    (0.25, 1.75, 2.5, -0.8): 0.89720926873273232515,
    (2.0, 3.0, 5.5, -1.0): 0.44056786426265888622,
    (0.5, 0.5, 1.5, -1.0): 0.88137358701954302523,
    (1.5, 2.5, 1.5, -0.5): 0.3628873693012115701,
    (0.0, 1.5, 2.5, -1.0): 1.0,
    (1.0, 1.5, 2.5, 0.0): 1.0,
}

@pytest.mark.parametrize("x,want", sorted(LOG_GAMMA_FROZEN.items()))
def test_log_gamma_frozen(x, want):
    got = log_gamma(x)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_log_gamma_matches_stdlib():
    x = 0.003
    while x < 300.0:
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=5e-14, abs=1e-12)
        x *= 1.37


def test_log_gamma_recurrence():
    for x in (0.05, 0.4, 1.3, 7.9, 42.0):
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_log_gamma_domain(x):
    with pytest.raises(UnsupportedDomainError):
        log_gamma(x)


@pytest.mark.parametrize("args,want", sorted(GAMMA_RATIO_FROZEN.items()))
def test_gamma_ratio_frozen(args, want):
    assert gamma_ratio(*args) == pytest.approx(want, rel=1e-13)


def test_gamma_ratio_recurrence():
    for a in (0.7, 3.0, 55.5):
        assert gamma_ratio(a + 1.0, a) == pytest.approx(a, rel=1e-13)


@pytest.mark.parametrize("args,want", sorted(UPPER_GAMMA_FROZEN.items()))
def test_regularized_gamma_q_frozen(args, want):
    assert regularized_gamma_q(*args) == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_regularized_gamma_complement():
    for s, z in UPPER_GAMMA_FROZEN:
        p, q = regularized_gamma_p(s, z), regularized_gamma_q(s, z)
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
        assert p + q == pytest.approx(1.0, abs=5e-14)


@pytest.mark.parametrize("args,want", sorted(LOWER_GAMMA_FROZEN.items()))
def test_regularized_gamma_p_frozen(args, want):
    assert regularized_gamma_p(*args) == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_regularized_gamma_edges():
    assert regularized_gamma_p(2.0, 0.0) == 0.0
    assert regularized_gamma_q(2.0, 0.0) == 1.0
    assert regularized_gamma_q(1.0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-13)
    assert regularized_gamma_p(1.0, 3.0) == pytest.approx(-math.expm1(-3.0), rel=1e-13)


@pytest.mark.parametrize("s", [0.3, 2.0, 1e300])
def test_regularized_gamma_p_at_infinity(s):
    # m y = inf for huge Nakagami shapes; the continued fraction would run
    # with a NaN prefactor there
    assert regularized_gamma_p(s, math.inf) == 1.0
    assert regularized_gamma_q(s, math.inf) == 0.0


def test_regularized_gamma_far_tail():
    # beyond z = 1e16 the continued fraction converges only where its first
    # step happens to round to 1, but its prefactor e^-z z^s / Gamma(s)
    # underflowed long before
    for s in (0.3, 0.55, 2.0):
        for exponent in [3] + list(range(17, 301, 7)):
            z = 1.6 * 10.0 ** exponent
            assert regularized_gamma_p(s, z) == 1.0
            assert regularized_gamma_q(s, z) == 0.0


def test_regularized_gamma_against_scipy():
    s = 0.1
    while s < 500.0:
        z = 0.05
        while z < 900.0:
            assert regularized_gamma_p(s, z) == pytest.approx(
                float(scipy.special.gammainc(s, z)), rel=2e-11, abs=1e-14)
            assert regularized_gamma_q(s, z) == pytest.approx(
                float(scipy.special.gammaincc(s, z)), rel=2e-11, abs=1e-14)
            z *= 2.1
        s *= 2.3


@pytest.mark.parametrize("args,want", sorted(GAUSS_2F1_FROZEN.items()))
def test_gauss_2f1_frozen(args, want):
    assert gauss_2f1(*args) == pytest.approx(want, rel=1e-12)


def test_gauss_2f1_against_scipy():
    for a in (0.25, 0.9, 1.6, 3.2):
        for b in (0.5, 1.5, 4.5):
            for c in (1.1, 2.7, 6.0):
                for z in (-1.0, -0.7, -0.2, 0.1, 0.45):
                    assert gauss_2f1(a, b, c, z) == pytest.approx(
                        float(scipy.special.hyp2f1(a, b, c, z)), rel=1e-10)


def test_gauss_2f1_halved_moment_family():
    # the shape-family arguments the closed forms feed it, against scipy
    for m in (0.5, 0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0):
        got = gauss_2f1(m - 0.5, 2.0 * m - 0.5, m + 0.5, -1.0)
        want = float(scipy.special.hyp2f1(m - 0.5, 2.0 * m - 0.5, m + 0.5, -1.0))
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("m", [20.0, 25.0, 40.0, 80.0])
def test_gauss_2f1_halved_moment_family_at_large_shape(m):
    # Pfaff's series for these arguments alternates unless a and b swap;
    # it was 6.5e-7 off at m = 25 and 3.9e-2 off at m = 40; the values are
    # tiny (1e-14 at m = 25), so no absolute tolerance
    got = gauss_2f1(m - 0.5, 2.0 * m - 0.5, m + 0.5, -1.0)
    want = float(scipy.special.hyp2f1(m - 0.5, 2.0 * m - 0.5, m + 0.5, -1.0))
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("args", [
    (0.5, 0.5, 1.5, -1.5),
    (0.5, 0.5, 1.5, 0.7),
    (0.5, 0.5, 1.5, 1.0),
    (0.5, 0.5, -2.0, 0.3),
])
def test_gauss_2f1_domain(args):
    with pytest.raises(UnsupportedDomainError):
        gauss_2f1(*args)


def test_numerical_error_is_loud():
    assert issubclass(NumericalError, ArithmeticError)
