"""Property tests of the correlated routes over the whole rho range.

Each correlated EVM lies between its independent-antenna value (rho = 0)
and the single-antenna value that full correlation reaches (rho = 1), and
the max-signal route's cost stays bounded as rho -> 1. Examples are
derandomized, so every run draws the same configurations.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scevm import analytic

RHO = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
LAST_RHO = math.nextafter(1.0, 0.0)
SLACK = 1e-12
MAX_EVALUATIONS = 1000


@settings(derandomize=True, deadline=None)
@given(rho=RHO, interferers=st.integers(min_value=1, max_value=200))
@example(rho=0.0, interferers=1)
@example(rho=LAST_RHO, interferers=1)
@example(rho=LAST_RHO, interferers=200)
def test_max_signal_correlated_is_bounded_and_cheap(rho, interferers):
    counts = []
    integrate = analytic.integrate_semi_infinite

    def counting(f):
        result = integrate(f)
        counts.append(result.evaluations)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "integrate_semi_infinite", counting)
        evm = analytic.evm_max_signal_correlated(rho, interferers)
    assert math.isfinite(evm)
    lower = analytic.evm_max_signal_rayleigh(2, interferers)
    upper = analytic.evm_fully_correlated(interferers)
    assert lower * (1.0 - SLACK) <= evm <= upper * (1.0 + SLACK)
    assert len(counts) == 1 and counts[0] <= MAX_EVALUATIONS


@settings(derandomize=True, deadline=None)
@given(rho=RHO)
@example(rho=0.0)
@example(rho=LAST_RHO)
def test_max_sir_correlated_is_bounded(rho):
    evm = analytic.evm_max_sir_correlated(rho)
    assert math.isfinite(evm)
    lower = analytic.evm_max_sir_rayleigh(2, 1)
    assert lower * (1.0 - SLACK) <= evm <= 0.5 * math.pi * (1.0 + SLACK)
