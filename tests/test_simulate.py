"""Channel simulator: determinism, distributional faithfulness, selection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from scevm import analytic, verify
from scevm.model import ConfigError, Fading, SelectionRule, SystemConfig
from scevm.simulate import (
    CHUNK,
    DEFAULT_SEED,
    _chunk_rng,
    _collect,
    _sum_interferers,
    derive_seed,
    draw_channels,
    estimate_evm,
    estimate_evm_rules,
    estimate_evm_symbol_level,
    estimate_evm_symbol_level_rules,
    select_antenna,
)
from scevm.sweep import emit_csv

RAYLEIGH_21_SIR = SystemConfig(2, 1, SelectionRule.MAX_SIR)


def test_derive_seed_is_frozen_across_runs():
    assert derive_seed(12345, "power") == 2462872843935210183
    assert derive_seed(12345, "symbol", "qpsk", 2000) == 6255976013384086812
    assert derive_seed(0) == 16346261981903266951


def test_derive_seed_separates_labels():
    seeds = {derive_seed(7), derive_seed(7, "a"), derive_seed(7, "b"),
             derive_seed(7, "a", 1), derive_seed(7, "a", 2), derive_seed(8)}
    assert len(seeds) == 6


def test_estimate_is_deterministic():
    first = estimate_evm(RAYLEIGH_21_SIR, 100000, seed=3)
    second = estimate_evm(RAYLEIGH_21_SIR, 100000, seed=3)
    assert first == second
    assert first != estimate_evm(RAYLEIGH_21_SIR, 100000, seed=4)


def test_estimate_matches_manual_chunked_reconstruction():
    # pins the chunk layout: full chunks generated in order, tail sliced
    samples = CHUNK + 1000
    cfg = RAYLEIGH_21_SIR
    stream = derive_seed(9, "power")
    values = []
    for chunk in range(2):
        draw = draw_channels(cfg, _chunk_rng(stream, chunk), CHUNK)
        take = min(CHUNK, samples - chunk * CHUNK)
        desired = draw.desired_power[:take]
        interference = draw.interference_power[:take]
        idx = select_antenna(desired, interference, cfg.rule)
        rows = np.arange(take)
        values.append(np.sqrt(interference[rows, idx] / desired[rows, idx]))
    flat = np.concatenate(values)
    estimate = estimate_evm(cfg, samples, seed=9)
    assert estimate.samples == samples
    assert estimate.mean == pytest.approx(float(flat.mean()), rel=1e-12)


def test_draw_channels_unit_means():
    cfg = SystemConfig(2, 3, SelectionRule.MAX_SIR)
    draw = draw_channels(cfg, _chunk_rng(11, 0), 200000)
    assert draw.desired_power.shape == (200000, 2)
    assert draw.interference_power.shape == (200000, 2)
    assert float(draw.desired_power.mean()) == pytest.approx(1.0, abs=0.012)
    assert float(draw.interference_power.mean()) == pytest.approx(3.0, abs=0.03)


def test_draw_channels_nakagami_variance():
    m = 2.5
    cfg = SystemConfig(1, 1, SelectionRule.MAX_SIR, Fading.nakagami(m))
    draw = draw_channels(cfg, _chunk_rng(11, 0), 200000)
    power = draw.desired_power[:, 0]
    assert float(power.mean()) == pytest.approx(1.0, abs=0.01)
    assert float(power.var()) == pytest.approx(1.0 / m, abs=0.01)


def test_draw_channels_exponential_ks():
    draw = draw_channels(RAYLEIGH_21_SIR, _chunk_rng(13, 0), 100000)
    sample = np.sort(draw.desired_power[:, 0])
    n = sample.size
    cdf = 1.0 - np.exp(-sample)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    statistic = max(float(np.max(empirical_hi - cdf)),
                    float(np.max(cdf - empirical_lo)))
    # 1% critical value of the Kolmogorov statistic
    assert statistic * math.sqrt(n) < 1.628


def test_correlated_pair_power_correlation():
    rho = 0.6
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=rho)
    draw = draw_channels(cfg, _chunk_rng(17, 0), 200000)
    powers = draw.desired_power
    correlation = float(np.corrcoef(powers[:, 0], powers[:, 1])[0, 1])
    # complex-gain correlation rho shows up as rho^2 between powers
    assert correlation == pytest.approx(rho * rho, abs=0.02)
    interference = draw.interference_power
    correlation = float(np.corrcoef(interference[:, 0], interference[:, 1])[0, 1])
    assert correlation == pytest.approx(rho * rho, abs=0.02)


def test_correlated_interferers_can_be_disabled():
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.6)
    draw = draw_channels(cfg, _chunk_rng(17, 0), 200000,
                         correlated_interferers=False)
    interference = draw.interference_power
    correlation = float(np.corrcoef(interference[:, 0], interference[:, 1])[0, 1])
    assert abs(correlation) < 0.02


def test_select_antenna_rules_and_ties():
    desired = np.array([[3.0, 1.0], [2.0, 2.0], [0.0, 5.0], [1.0, 4.0]])
    interference = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 1.0], [0.25, 4.0]])
    assert select_antenna(desired, interference,
                          SelectionRule.MAX_SIGNAL).tolist() == [0, 0, 1, 1]
    assert select_antenna(desired, interference,
                          SelectionRule.MAX_SIR).tolist() == [0, 0, 1, 0]


def test_select_antenna_degenerate_rows():
    desired = np.array([[0.0, 0.0], [2.0, 0.0]])
    interference = np.array([[0.0, 1.0], [0.0, 1.0]])
    # 0/0 counts as zero SIR; x/0 counts as infinite SIR and wins
    assert select_antenna(desired, interference,
                          SelectionRule.MAX_SIR).tolist() == [0, 0]


def test_selection_is_the_rowwise_argmax_in_bulk():
    cfg = SystemConfig(4, 2, SelectionRule.MAX_SIR)
    rng = np.random.default_rng(99)
    draw = draw_channels(cfg, rng, 10000)
    rows = np.arange(10000)
    idx = select_antenna(draw.desired_power, draw.interference_power,
                         SelectionRule.MAX_SIR)
    sir = draw.desired_power / draw.interference_power
    assert np.all(sir[rows, idx] >= sir.max(axis=1))
    idx = select_antenna(draw.desired_power, draw.interference_power,
                         SelectionRule.MAX_SIGNAL)
    assert np.all(draw.desired_power[rows, idx] >= draw.desired_power.max(axis=1))


def test_estimate_agrees_with_closed_form():
    estimate = estimate_evm(RAYLEIGH_21_SIR, 400000, seed=21)
    z = (estimate.mean - analytic.evm_max_sir_rayleigh(2, 1)) / estimate.std_error
    assert abs(z) < 4.0


def test_stderr_scales_with_sample_count():
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    small = estimate_evm(cfg, 50000, seed=23)
    large = estimate_evm(cfg, 200000, seed=23)
    assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.2)


def test_vanishing_correlation_matches_independent_law():
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=1e-9)
    estimate = estimate_evm(cfg, 300000, seed=29)
    z = (estimate.mean - analytic.evm_max_sir_rayleigh(2, 1)) / estimate.std_error
    assert abs(z) < 4.0


def test_interferer_correlation_is_part_of_the_model():
    # with the interferer pair decorrelated the correlated-SIR closed form
    # must stop matching; this pins the calibrated model interpretation
    rho = 0.9
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=rho)
    exact = analytic.evm_max_sir_correlated(rho)
    coupled = estimate_evm(cfg, 500000, seed=31)
    decoupled = estimate_evm(cfg, 500000, seed=31, correlated_interferers=False)
    assert abs((coupled.mean - exact) / coupled.std_error) < 4.0
    assert (decoupled.mean - exact) / decoupled.std_error < -5.0


def test_zero_power_draws_are_rejected_and_counted():
    # shape 0.01 gammas underflow to exactly 0.0 often enough to observe
    cfg = SystemConfig(1, 1, SelectionRule.MAX_SIGNAL, Fading.nakagami(0.01))
    estimate = estimate_evm(cfg, 30000, seed=37)
    assert estimate.rejected > 0
    # rejected draws are replaced, so the mean still rests on every sample
    assert estimate.samples == 30000
    assert math.isfinite(estimate.mean)


def test_estimate_validates_arguments():
    with pytest.raises(ConfigError):
        estimate_evm(RAYLEIGH_21_SIR, 1)
    with pytest.raises(ConfigError):
        estimate_evm(RAYLEIGH_21_SIR, 2.5)
    with pytest.raises(ConfigError):
        draw_channels("not a config", _chunk_rng(1, 0), 10)


def test_symbol_level_matches_closed_forms():
    for rule, exact in ((SelectionRule.MAX_SIR, analytic.evm_max_sir_rayleigh(2, 1)),
                        (SelectionRule.MAX_SIGNAL,
                         analytic.evm_max_signal_rayleigh(2, 1))):
        cfg = SystemConfig(2, 1, rule)
        estimate = estimate_evm_symbol_level(cfg, slots=500, blocks=2000, seed=41)
        z = (estimate.mean - exact) / estimate.std_error
        assert abs(z) < 4.0, (rule, z)


def test_symbol_level_16qam():
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    estimate = estimate_evm_symbol_level(cfg, slots=500, blocks=1500,
                                         constellation="16qam", seed=43)
    z = (estimate.mean - analytic.evm_max_sir_rayleigh(2, 1)) / estimate.std_error
    assert abs(z) < 4.0


def test_symbol_level_multiple_interferers():
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIGNAL)
    estimate = estimate_evm_symbol_level(cfg, slots=400, blocks=1500, seed=47)
    z = (estimate.mean - analytic.evm_max_signal_rayleigh(2, 2)) / estimate.std_error
    assert abs(z) < 4.0


def test_symbol_level_is_constellation_independent():
    # the per-block EVM depends only on the gain ratio, not on which
    # unit-energy symbols were sent
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    qpsk = estimate_evm_symbol_level(cfg, slots=300, blocks=1200, seed=53)
    qam = estimate_evm_symbol_level(cfg, slots=300, blocks=1200, seed=53,
                                    constellation="16qam")
    combined = math.hypot(qpsk.std_error, qam.std_error)
    assert abs(qpsk.mean - qam.mean) < 3.0 * combined


def test_symbol_level_is_deterministic():
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    first = estimate_evm_symbol_level(cfg, slots=64, blocks=200, seed=51)
    second = estimate_evm_symbol_level(cfg, slots=64, blocks=200, seed=51)
    assert first == second


def test_symbol_level_without_interference_vanishes(monkeypatch):
    # equalization is by the true gain, so the only error source is the
    # interference; silence it and all that remains is the rounding of the
    # equalizing complex division, around 1e-16
    import scevm.simulate as module

    original = module._draw_gains

    def silenced(cfg, rng, count, correlated_interferers):
        desired, interferer = original(cfg, rng, count, correlated_interferers)
        return desired, np.zeros_like(interferer)

    monkeypatch.setattr(module, "_draw_gains", silenced)
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    estimate = estimate_evm_symbol_level(cfg, slots=64, blocks=50, seed=5)
    assert estimate.mean < 1e-15


def test_symbol_level_validates_arguments():
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    with pytest.raises(ConfigError):
        estimate_evm_symbol_level(cfg, slots=0, blocks=100)
    with pytest.raises(ConfigError):
        estimate_evm_symbol_level(cfg, slots=10, blocks=1)
    with pytest.raises(ConfigError):
        estimate_evm_symbol_level(cfg, slots=10, blocks=100, constellation="8psk")


def test_constellations_have_unit_energy():
    from scevm.simulate import CONSTELLATIONS
    for name, points in CONSTELLATIONS.items():
        energy = float(np.square(np.abs(points)).mean())
        assert energy == pytest.approx(1.0, rel=1e-12), name


BOTH_RULES = (SelectionRule.MAX_SIR, SelectionRule.MAX_SIGNAL)

# (cfg, correlated_interferers); shape 0.01 makes selected gains underflow
# now and then, so the power estimates at seed 4 reject a draw
SHARED_DRAW_CASES = [
    (SystemConfig(4, 4, SelectionRule.MAX_SIR), True),
    (SystemConfig(2, 2, SelectionRule.MAX_SIR, rho=0.6), True),
    (SystemConfig(2, 2, SelectionRule.MAX_SIR, rho=0.6), False),
    (SystemConfig(2, 1, SelectionRule.MAX_SIR, Fading.nakagami(0.01)), True),
]


@pytest.mark.parametrize("cfg, correlated", SHARED_DRAW_CASES)
def test_shared_draws_equal_single_rule_estimates(cfg, correlated):
    samples = CHUNK + 1000
    shared = estimate_evm_rules(cfg, BOTH_RULES, samples, seed=4,
                                correlated_interferers=correlated)
    assert tuple(shared) == BOTH_RULES
    for rule in BOTH_RULES:
        single = estimate_evm(replace(cfg, rule=rule), samples, seed=4,
                              correlated_interferers=correlated)
        assert shared[rule] == single, rule
    if cfg.fading.m == 0.01:
        assert all(e.rejected > 0 for e in shared.values())


@pytest.mark.parametrize("cfg, correlated", SHARED_DRAW_CASES)
def test_symbol_level_shared_draws_equal_single_rule_estimates(cfg, correlated):
    # 2000 slots make 524-block chunks, so 1100 blocks span three chunks
    shared = estimate_evm_symbol_level_rules(cfg, BOTH_RULES, 2000, 1100, seed=67,
                                             correlated_interferers=correlated)
    for rule in BOTH_RULES:
        single = estimate_evm_symbol_level(replace(cfg, rule=rule), 2000, 1100,
                                           seed=67, correlated_interferers=correlated)
        assert shared[rule] == single, rule


def test_rules_stop_taking_chunks_independently():
    # max-SIR loses the first block of every chunk, so it needs a third
    # chunk where max-signal is done after two; neither sees the other
    draws = []

    def draw(rng):
        draws.append(1)
        return rng.standard_normal(200)

    def per_block(values, rule):
        if rule is SelectionRule.MAX_SIR:
            values = values.copy()
            values[0] = np.nan
        return values

    def run(rules):
        draws.clear()
        return _collect(5, rules, 400, draw, per_block, lambda v: v, "{rejected}"), len(draws)

    shared, shared_chunks = run(BOTH_RULES)
    assert shared_chunks == 3
    for rule, chunks in ((SelectionRule.MAX_SIR, 3), (SelectionRule.MAX_SIGNAL, 2)):
        single, single_chunks = run((rule,))
        assert single_chunks == chunks
        parts, rejected = shared[rule]
        assert len(parts) == chunks
        assert rejected == single[rule][1] == (3 if rule is SelectionRule.MAX_SIR else 0)
        assert np.array_equal(np.concatenate(parts), np.concatenate(single[rule][0]))


def test_rules_are_validated():
    with pytest.raises(ConfigError):
        estimate_evm_rules(RAYLEIGH_21_SIR, (), 100)
    with pytest.raises(ConfigError):
        estimate_evm_rules(RAYLEIGH_21_SIR, ("max_sir",), 100)
    with pytest.raises(ConfigError):
        estimate_evm_symbol_level_rules("not a config", BOTH_RULES, 10, 100)


@pytest.mark.parametrize("interferers", range(1, 8))
def test_in_order_interferer_sum_is_numpys_below_eight(interferers):
    power = _chunk_rng(71, interferers).standard_exponential((5000, 3, interferers))
    assert np.array_equal(_sum_interferers(power), power.sum(axis=-1))


@pytest.mark.parametrize("interferers", (8, 9, 16))
def test_in_order_interferer_sum_is_exact_to_rounding(interferers):
    # numpy sums eight or more terms pairwise; both orders are exact to
    # rounding, so they agree to within a few ulps
    power = _chunk_rng(73, interferers).standard_exponential((5000, 3, interferers))
    np.testing.assert_allclose(_sum_interferers(power), power.sum(axis=-1),
                               rtol=1e-15, atol=0.0)


def test_verification_equals_per_rule_reference(monkeypatch):
    def text(report):
        return emit_csv(report.rows) + "".join(
            f"{c.name}|{c.passed}|{c.detail}\n" for c in report.checks)

    def per_rule(cfg, rules, samples, seed):
        return {rule: estimate_evm(replace(cfg, rule=rule), samples, seed=seed)
                for rule in rules}

    def per_rule_symbol(cfg, rules, slots, blocks, seed):
        return {rule: estimate_evm_symbol_level(replace(cfg, rule=rule), slots, blocks,
                                                seed=seed)
                for rule in rules}

    args = dict(samples=200000, seed=7, include_symbol_level=True, slots=200, blocks=400)
    shared = text(verify.run_verification(**args))
    monkeypatch.setattr(verify, "estimate_evm_rules", per_rule)
    monkeypatch.setattr(verify, "estimate_evm_symbol_level_rules", per_rule_symbol)
    assert text(verify.run_verification(**args)) == shared
