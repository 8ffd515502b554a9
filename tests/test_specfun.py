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
from scevm.specfun import gamma_ratio, log_gamma, regularized_gamma_p

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


# Gamma(b + 1/2) / Gamma(b), the interference half-moment, by 40-digit
# mpmath; from b = 1024 a log_gamma difference would lose ln Gamma(b) units
# of roundoff (9e-4 relative at 1e12), which the Stirling difference avoids
HALF_MOMENT_FROZEN = {
    1023.0: 31.98046326360630521612,
    1024.0: 31.99609398856407955885,
    4096.0: 63.9980469048068697154,
    1e5: 316.2273707323774666388,
    1e7: 3162.277620639908826947,
    1e9: 31622.77659773094624503,
    1e12: 999999.999999875,
    1e15: 31622776.60168378936714,
}


@pytest.mark.parametrize("b,want", sorted(HALF_MOMENT_FROZEN.items()))
def test_gamma_ratio_half_moment_at_large_arguments(b, want):
    # below 1024 the ratio keeps its log_gamma difference, bit for bit, and
    # that difference's accuracy
    if b < 1024.0:
        assert gamma_ratio(b + 0.5, b) == math.exp(log_gamma(b + 0.5) - log_gamma(b))
        assert gamma_ratio(b + 0.5, b) == pytest.approx(want, rel=1e-12, abs=0)
    else:
        assert gamma_ratio(b + 0.5, b) == pytest.approx(want, rel=2e-15, abs=0)


@pytest.mark.parametrize("args,want", sorted(LOWER_GAMMA_FROZEN.items()))
def test_regularized_gamma_p_frozen(args, want):
    assert regularized_gamma_p(*args) == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_regularized_gamma_edges():
    assert regularized_gamma_p(2.0, 0.0) == 0.0
    assert regularized_gamma_p(1.0, 3.0) == pytest.approx(-math.expm1(-3.0), rel=1e-13)


@pytest.mark.parametrize("s", [0.3, 2.0, 1e300])
def test_regularized_gamma_p_at_infinity(s):
    # m y = inf for huge Nakagami shapes; the continued fraction would run
    # with a NaN prefactor there
    assert regularized_gamma_p(s, math.inf) == 1.0


def test_regularized_gamma_far_tail():
    # beyond z = 1e16 the continued fraction converges only where its first
    # step happens to round to 1, but its prefactor e^-z z^s / Gamma(s)
    # underflowed long before
    for s in (0.3, 0.55, 2.0):
        for exponent in [3] + list(range(17, 301, 7)):
            z = 1.6 * 10.0 ** exponent
            assert regularized_gamma_p(s, z) == 1.0


def test_regularized_gamma_against_scipy():
    s = 0.1
    while s < 500.0:
        z = 0.05
        while z < 900.0:
            assert regularized_gamma_p(s, z) == pytest.approx(
                float(scipy.special.gammainc(s, z)), rel=2e-11, abs=1e-14)
            z *= 2.1
        s *= 2.3


@pytest.mark.parametrize("s,z", [(3e305, 2.7e305), (3e305, 3.3e305)])
def test_regularized_gamma_p_past_the_prefactor_overflow(s, z):
    # log_gamma(s) and s ln z both overflow, and their difference is NaN;
    # Stirling's form of the prefactor underflows to 0 on either side of z = s
    assert regularized_gamma_p(s, z) == (0.0 if z < s else 1.0)


def test_regularized_gamma_p_where_s_plus_one_rounds_to_s():
    # z = s used to reach the continued fraction with b = z + 1 - s = 0
    with pytest.raises(NumericalError):
        regularized_gamma_p(1e300, 1e300)


def test_numerical_error_is_loud():
    assert issubclass(NumericalError, ArithmeticError)
