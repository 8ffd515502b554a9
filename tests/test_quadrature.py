"""Adaptive quadrature on the half line: accuracy, failure mode, weights."""

import math

import pytest

from scevm import quadrature
from scevm.analytic import sir_cdf_single_antenna
from scevm.model import Fading, NumericalError
from scevm.quadrature import (
    AccuracyNotReachedError,
    QuadratureResult,
    integrate_semi_infinite,
)

_KNOWN_INTEGRALS = [
    (lambda x: math.exp(-x), 1.0),
    (lambda x: x * math.exp(-x), 1.0),
    (lambda x: math.exp(-x * x), 0.5 * math.sqrt(math.pi)),
    (lambda x: 1.0 / (1.0 + x) ** 2, 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.5 * math.pi),
    (lambda x: x * x * math.exp(-2.0 * x), 0.25),
]


@pytest.mark.parametrize("f,want", _KNOWN_INTEGRALS)
def test_known_integrals(f, want):
    result = integrate_semi_infinite(f)
    assert isinstance(result, QuadratureResult)
    assert result.value == pytest.approx(want, abs=1e-9, rel=1e-9)
    assert result.abs_error_estimate < 1e-6
    assert result.evaluations % 15 == 0


def test_result_reports_effort():
    easy = integrate_semi_infinite(lambda x: math.exp(-x))
    spiky = integrate_semi_infinite(lambda x: math.exp(-abs(x - 3.0) * 40.0))
    assert spiky.evaluations > easy.evaluations
    assert spiky.value == pytest.approx(2.0 / 40.0, rel=1e-8)


def test_unreachable_tolerance_raises_with_best(monkeypatch):
    monkeypatch.setattr(quadrature, "ABS_TOL", 0.0)
    monkeypatch.setattr(quadrature, "REL_TOL", 0.0)
    monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", 600)
    with pytest.raises(AccuracyNotReachedError) as info:
        integrate_semi_infinite(lambda x: math.exp(-x))
    best = info.value.best
    assert isinstance(best, QuadratureResult)
    assert best.value == pytest.approx(1.0, rel=1e-6)
    assert best.evaluations <= 600


def test_non_finite_integrand_is_rejected():
    with pytest.raises(NumericalError):
        integrate_semi_infinite(lambda x: float("nan"))


def test_weighted_sqrt_modes():
    # int_0^inf x^-1/2 e^-x dx = Gamma(1/2), taken over x = t^2
    divide = integrate_semi_infinite(lambda t: 2.0 * math.exp(-t * t))
    assert divide.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_linearity():
    def combined(x):
        return 2.5 * math.exp(-x) - 0.75 / (1.0 + x * x)

    got = integrate_semi_infinite(combined).value
    assert got == pytest.approx(2.5 - 0.75 * math.pi / 2.0, abs=1e-8)


def _selected_cdf(x, antennas, interferers):
    return sir_cdf_single_antenna(x, interferers, Fading.rayleigh()) ** antennas


@pytest.mark.parametrize("antennas", [1, 2, 3])
@pytest.mark.parametrize("interferers", [1, 2, 4])
def test_substitution_invariance(antennas, interferers):
    # the same moment three ways: int F(x^-2) dx, and after u = x^-2 both
    # (1/2) int u^-3/2 F(u) du and (1/2) int u^-1/2 F(1/u) du
    def direct(x):
        if x == 0.0:
            return 1.0
        return _selected_cdf(x ** -2.0, antennas, interferers)

    reference = integrate_semi_infinite(direct).value

    def tail_weighted(u):
        if u <= 0.0:
            return 0.0
        return 0.5 * _selected_cdf(u, antennas, interferers) / u

    def head_weighted(u):
        if u <= 0.0:
            return 0.5
        return 0.5 * _selected_cdf(1.0 / u, antennas, interferers)

    # each integrand carries u^-1/2, removed by u = t^2
    via_tail = integrate_semi_infinite(lambda t: 2.0 * tail_weighted(t * t)).value
    via_head = integrate_semi_infinite(lambda t: 2.0 * head_weighted(t * t)).value
    assert via_tail == pytest.approx(reference, abs=1e-8)
    assert via_head == pytest.approx(reference, abs=1e-8)
