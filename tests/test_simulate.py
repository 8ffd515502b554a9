"""Channel simulator: determinism, distributional faithfulness, selection."""

import functools
import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import ChannelDraw, correlated_pairs, draw_channels

import scevm
from scevm import analytic, simulate, verify
from scevm.model import ConfigError, Fading, NumericalError, SelectionRule, SystemConfig
from scevm.simulate import (
    CHUNK,
    DEFAULT_SEED,
    _chunk_rng,
    _collect,
    _sum_interferers,
    derive_seed,
    estimate_evm,
    estimate_evm_batch,
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


@pytest.mark.parametrize("seed", [1.9, 7.0, True, False, np.bool_(True), "7", "abc", None])
def test_seeds_must_be_integers(seed):
    # int() would alias 1.9 and True to seed 1, and "abc" raised ValueError
    with pytest.raises(ConfigError):
        estimate_evm(RAYLEIGH_21_SIR, 2000, seed=seed)
    with pytest.raises(ConfigError):
        estimate_evm_batch([(RAYLEIGH_21_SIR, tuple(SelectionRule), 2000, seed)])
    with pytest.raises(ConfigError):
        estimate_evm_symbol_level(RAYLEIGH_21_SIR, slots=4, blocks=10, seed=seed)
    with pytest.raises(ConfigError):
        verify.run_verification(samples=2000, seed=seed)


@pytest.mark.parametrize("samples", [1, 0, 2000.0, True])
def test_verification_checks_samples_before_any_check(monkeypatch, samples):
    # samples=1 ran every closed-form check before the grid's plan refused it
    ran = []
    for family in ("anchor_checks", "reduction_checks", "quadrature_identity_checks",
                   "monotonicity_checks", "rule_ordering_checks", "asymptotic_checks",
                   "mc_grid", "symbol_level_checks"):
        monkeypatch.setattr(verify, family,
                            lambda *args, family=family, **kwargs: ran.append(family) or [])
    with pytest.raises(ConfigError, match="samples"):
        verify.run_verification(samples=samples)
    assert ran == []


@pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.int8(7)])
def test_numpy_integer_seeds_give_the_int_stream(seed):
    assert derive_seed(seed, "power") == derive_seed(7, "power")
    assert estimate_evm(RAYLEIGH_21_SIR, 2000, seed=seed) == \
        estimate_evm(RAYLEIGH_21_SIR, 2000, seed=7)
    assert estimate_evm_symbol_level(RAYLEIGH_21_SIR, slots=4, blocks=10, seed=seed) == \
        estimate_evm_symbol_level(RAYLEIGH_21_SIR, slots=4, blocks=10, seed=7)


@pytest.mark.parametrize("count", [np.int64(2000), np.uint32(2000), np.int16(2000)])
def test_numpy_integer_counts_give_the_int_estimates(count):
    assert repr(estimate_evm(RAYLEIGH_21_SIR, count)) == \
        repr(estimate_evm(RAYLEIGH_21_SIR, 2000))
    assert repr(estimate_evm_symbol_level(RAYLEIGH_21_SIR, count // 200, count // 100)) == \
        repr(estimate_evm_symbol_level(RAYLEIGH_21_SIR, 10, 20))


@pytest.mark.parametrize("count", [True, np.bool_(True), 2000.0, "2000", None])
def test_counts_must_be_integers(count):
    with pytest.raises(ConfigError, match="samples must be an integer"):
        estimate_evm(RAYLEIGH_21_SIR, count)
    with pytest.raises(ConfigError, match="slots must be an integer"):
        estimate_evm_symbol_level(RAYLEIGH_21_SIR, slots=count, blocks=10)
    with pytest.raises(ConfigError, match="blocks must be an integer"):
        estimate_evm_symbol_level(RAYLEIGH_21_SIR, slots=4, blocks=count)


def test_estimate_is_deterministic():
    first = estimate_evm(RAYLEIGH_21_SIR, 100000, seed=3)
    second = estimate_evm(RAYLEIGH_21_SIR, 100000, seed=3)
    assert first == second
    assert first != estimate_evm(RAYLEIGH_21_SIR, 100000, seed=4)


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
    # the simulator couples the interferer pair with the desired pair's rho
    # and matches the correlated-SIR closed form; a pair whose interferers
    # are drawn independently must stop matching, which pins the calibrated
    # model interpretation
    rho = 0.9
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=rho)
    exact = analytic.analytic_formula(cfg)
    coupled = estimate_evm(cfg, 500000, seed=31)
    assert abs((coupled.mean - exact) / coupled.std_error) < 4.0
    count = 500000
    rng = _chunk_rng(31, 0)
    desired = np.square(np.abs(correlated_pairs(rng, count, rho, 1)[0]))
    interference = rng.standard_exponential((count, 2))
    idx = select_antenna(desired, interference, SelectionRule.MAX_SIR)
    rows = np.arange(count)
    decoupled = np.sqrt(interference[rows, idx] / desired[rows, idx])
    std_error = float(decoupled.std(ddof=1)) / math.sqrt(count)
    assert (float(decoupled.mean()) - exact) / std_error < -5.0


def test_zero_power_draws_are_rejected_and_counted():
    # shape 0.01 gammas underflow to exactly 0.0 often enough to observe
    cfg = SystemConfig(1, 1, SelectionRule.MAX_SIGNAL, Fading.nakagami(0.01))
    estimate = estimate_evm(cfg, 30000, seed=37)
    assert estimate.rejected > 0
    # rejected draws are left out, so the mean rests on the rest of the request
    assert estimate.samples == 30000 - estimate.rejected
    assert math.isfinite(estimate.mean)


def test_estimate_validates_arguments():
    with pytest.raises(ConfigError):
        estimate_evm(RAYLEIGH_21_SIR, 1)
    with pytest.raises(ConfigError):
        estimate_evm(RAYLEIGH_21_SIR, 2.5)
    # a list is no constellation name, and unhashable
    with pytest.raises(ConfigError, match="unknown constellation"):
        estimate_evm_symbol_level(RAYLEIGH_21_SIR, 4, 10, constellation=["qpsk"])
    # a batch request is a (cfg, rules, samples, seed) tuple
    with pytest.raises(ConfigError, match=r"\(cfg, rules, samples, seed\)"):
        estimate_evm_batch([(RAYLEIGH_21_SIR, BOTH_RULES, 2000)])
    with pytest.raises(ConfigError, match=r"\(cfg, rules, samples, seed\)"):
        estimate_evm_batch([RAYLEIGH_21_SIR])


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


def test_symbol_level_correlated_antennas():
    # the waveform path draws the coupled pairs the correlated closed forms assume
    for cfg in (SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.6),
                SystemConfig(2, 2, SelectionRule.MAX_SIGNAL, rho=0.6)):
        exact = analytic.analytic_formula(cfg)
        estimate = estimate_evm_symbol_level(cfg, slots=500, blocks=4000, seed=61)
        z = (estimate.mean - exact) / estimate.std_error
        assert abs(z) < 4.0, (cfg, z)


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

    def silenced(cfg, rng, count):
        desired, interferer = original(cfg, rng, count)
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
        estimate_evm_symbol_level(cfg, slots=True, blocks=100)
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

# shape 0.01 makes selected gains underflow now and then, so the power
# estimates at seed 4 reject a draw. The ids are those the cases had when
# each also named an interferer model (True: pairs coupled like the desired
# pair, the one model drawn today), so results compare across versions.
SHARED_DRAW_CASES = [
    pytest.param(SystemConfig(4, 4, SelectionRule.MAX_SIR), id="cfg0-True"),
    pytest.param(SystemConfig(2, 2, SelectionRule.MAX_SIR, rho=0.6), id="cfg1-True"),
    pytest.param(SystemConfig(2, 1, SelectionRule.MAX_SIR, Fading.nakagami(0.01)),
                 id="cfg3-True"),
]


@pytest.mark.parametrize("cfg", SHARED_DRAW_CASES)
def test_shared_draws_equal_single_rule_estimates(cfg):
    samples = CHUNK + 1000
    shared = estimate_evm_batch([(cfg, BOTH_RULES, samples, 4)])[0]
    assert tuple(shared) == BOTH_RULES
    for rule in BOTH_RULES:
        single = estimate_evm(replace(cfg, rule=rule), samples, seed=4)
        assert shared[rule] == single, rule
    if cfg.fading.m == 0.01:
        assert all(e.rejected > 0 for e in shared.values())


@pytest.mark.parametrize("cfg", SHARED_DRAW_CASES)
def test_symbol_level_shared_draws_equal_single_rule_estimates(cfg):
    # 2000 slots make 524-block chunks, so 1100 blocks span three chunks
    shared = estimate_evm_symbol_level_rules(cfg, BOTH_RULES, 2000, 1100, seed=67)
    for rule in BOTH_RULES:
        single = estimate_evm_symbol_level(replace(cfg, rule=rule), 2000, 1100,
                                           seed=67)
        assert shared[rule] == single, rule


@pytest.mark.parametrize("wanted, rows", [
    pytest.param(400, [200, 200], id="400"),
    # the last chunk draws its 100 planned rows alone
    pytest.param(300, [200, 100], id="300"),
])
def test_rules_stop_taking_chunks_independently(wanted, rows):
    # max-SIR leaves out the first block of every chunk; neither rule sees
    # the other, and both take exactly the planned rows
    draws = []

    def chunk_values(rng, rules, rows):
        draws.append(rows)
        values = rng.standard_normal(200)[:rows]
        per_rule = []
        for rule in rules:
            if rule is SelectionRule.MAX_SIR:
                per_rule.append(values.copy())
                per_rule[-1][0] = np.nan
            else:
                per_rule.append(values)
        return per_rule

    def run(rules):
        draws.clear()
        request = simulate._Request(5, rules, wanted, 200, chunk_values, lambda v: v,
                                    "{rejected}")
        return _collect([request])[0], sorted(draws)

    shared, shared_draws = run(BOTH_RULES)
    assert shared_draws == sorted(rows)
    # what a serial loop keeps: each planned chunk's rows, finite values only
    planned = [_chunk_rng(5, chunk).standard_normal(200)[:count]
               for chunk, count in enumerate(rows)]
    for rule in BOTH_RULES:
        single, single_draws = run((rule,))
        assert single_draws == sorted(rows)
        parts, rejected = shared[rule]
        first = 1 if rule is SelectionRule.MAX_SIR else 0
        assert len(parts) == len(rows)
        assert rejected == single[rule][1] == first * len(rows)
        assert np.array_equal(np.concatenate(parts), np.concatenate(single[rule][0]))
        serial = np.concatenate([values[first:] for values in planned])
        assert np.array_equal(np.concatenate(parts), serial)


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

    args = dict(samples=200000, seed=7)
    shared = text(verify.run_verification(**args))
    monkeypatch.setattr(scevm.sweep, "estimate_evm_batch",
                        lambda requests: [per_rule(*request) for request in requests])
    monkeypatch.setattr(verify, "estimate_evm_symbol_level_rules", per_rule_symbol)
    assert text(verify.run_verification(**args)) == shared


# SHA-256 of every "name|passed|detail" line of run_verification(samples=2000,
# seed=3), then its grid rows as CSV: 107 checks, all passing. It pins the
# grid, shared-draw ordering and waveform lines beside the closed-form ones,
# whichever thread drew each chunk.
VERIFICATION_REPORT_SHA256 = "090c8208e1cd3b483a2335414c081c2184a285c19445f822c092e721d706d404"


@pytest.mark.threads
def test_verification_report_is_frozen():
    report = verify.run_verification(samples=2000, seed=3)
    text = "".join(f"{c.name}|{c.passed}|{c.detail}\n" for c in report.checks)
    text += emit_csv(report.rows)
    assert (len(report.checks), report.passed) == (107, True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == VERIFICATION_REPORT_SHA256


# the same text for seed=1, where three grid checks fail |z| <= 3 at first:
# it pins their re-run rows, drawn on each cell's retry seed
VERIFICATION_RERUN_REPORT_SHA256 = (
    "9d6930a7482088d24bf536321dfc3f75684440d74ca38fb236d9ded940716a39")


@pytest.mark.threads
def test_verification_report_with_grid_reruns_is_frozen():
    report = verify.run_verification(samples=2000, seed=1)
    text = "".join(f"{c.name}|{c.passed}|{c.detail}\n" for c in report.checks)
    text += emit_csv(report.rows)
    assert (len(report.checks), report.passed) == (107, True)
    assert sum("after one re-run" in c.detail for c in report.checks) == 3
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == VERIFICATION_RERUN_REPORT_SHA256


@pytest.mark.threads
def test_a_failing_waveform_check_gets_one_re_run_of_its_rule():
    # at seed 9 the max-SIR waveform estimate reads z -3.61; like a grid
    # point, its rule alone is drawn again once, on the derived retry seed
    sir, signal = verify.symbol_level_checks(seed=9)
    assert sir.passed and signal.passed
    assert "re-run" not in signal.detail
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    exact = analytic.evm_max_sir_rayleigh(2, 1)
    rerun = estimate_evm_symbol_level_rules(cfg, (SelectionRule.MAX_SIR,), 2000, 2000,
                                            seed=derive_seed(9, "retry"))[SelectionRule.MAX_SIR]
    z = (rerun.mean - exact) / rerun.std_error
    assert sir.detail == (f"exact {exact:.9g}, waveform mc {rerun.mean:.9g} "
                          f"+- {rerun.std_error:.2g}, z {z:+.2f} (after one re-run)")


# correlated powers: the pair kernel forms h2 over h1 in place, so its
# operand order must give the bits of pairs formed from whole fills. 70001
# blocks span three of the correlated path's row slices.
@pytest.mark.parametrize("rho", (0.3, 0.999))
@pytest.mark.parametrize("interferers", (1, 3))
@pytest.mark.parametrize("rows", (70001, 40000))
def test_correlated_powers_equal_pairs_from_whole_fills(rows, interferers, rho):
    count = 70001
    cfg = SystemConfig(2, interferers, SelectionRule.MAX_SIR, rho=rho)
    desired, slices = simulate._power_rows(cfg, _chunk_rng(89, 1), count, rows)
    interference = np.concatenate([part for _, part in slices])
    pairs = [np.square(np.abs(pair[:rows]))
             for pair in correlated_pairs(_chunk_rng(89, 1), count, rho, interferers + 1)]
    assert np.array_equal(desired, pairs[0])
    assert np.array_equal(interference, sum(pairs[1:]))
    gains = simulate._draw_gains(cfg, _chunk_rng(89, 1), count)
    pairs = correlated_pairs(_chunk_rng(89, 1), count, rho, interferers + 1)
    assert np.array_equal(gains[0], pairs[0])
    assert np.array_equal(gains[1], np.stack(pairs[1:], axis=2))


# sliced draws: the row slices of _interference_power, summed in place, give
# the values of one fill; the count is no multiple of any case's slice. The
# first two ids are as for SHARED_DRAW_CASES. One interferer is drawn straight
# into the interference array, nine are summed past numpy's pairwise limit.
SLICED_COUNT = 50021
SLICED_DRAW_CASES = [
    pytest.param(SystemConfig(4, 4, SelectionRule.MAX_SIR), id="cfg0-True"),
    pytest.param(SystemConfig(6, 2, SelectionRule.MAX_SIR, Fading.nakagami(0.5)),
                 id="cfg1-True"),
] + [
    pytest.param(SystemConfig(antennas, interferers, SelectionRule.MAX_SIR, fading),
                 id=f"L{antennas}-M{interferers}-{fading.kind}")
    for antennas in (1, 2, 6) for interferers in (1, 9)
    for fading in (Fading.rayleigh(), Fading.nakagami(0.5))
]


def _one_shot_draw(cfg, rng, count):
    # the whole (count, antennas, interferers) block in one fill, summed in
    # interferer order
    if cfg.fading.is_rayleigh_equivalent:
        desired = rng.standard_exponential((count, cfg.antennas))
    else:
        desired = rng.gamma(cfg.fading.m, 1.0 / cfg.fading.m, (count, cfg.antennas))
    power = rng.standard_exponential((count, desired.shape[1], cfg.interferers))
    interference = power[..., 0].copy()
    for j in range(1, cfg.interferers):
        interference += power[..., j]
    return desired, interference


@pytest.mark.parametrize("cfg", SLICED_DRAW_CASES)
def test_sliced_draw_equals_one_shot_fill(cfg):
    if cfg.interferers > 1:
        rows_per_slice = simulate._SLICE // (cfg.antennas * cfg.interferers)
        assert SLICED_COUNT > rows_per_slice and SLICED_COUNT % rows_per_slice
    draw = draw_channels(cfg, _chunk_rng(83, 2), SLICED_COUNT)
    desired, interference = _one_shot_draw(cfg, _chunk_rng(83, 2), SLICED_COUNT)
    assert np.array_equal(draw.desired_power, desired)
    assert np.array_equal(draw.interference_power, interference)


# the symbol level draws its indices a row slice at a time into one-byte
# arrays: int64 bounded draws take 32-bit words and keep the spare half of a
# 64-bit output in the generator. Every slice here holds an odd number of
# values, so each one starts on the half the one before left.
@pytest.mark.parametrize("after_float", (False, True), ids=("fresh", "after-float"))
@pytest.mark.parametrize("step", (1, 7, 33))
@pytest.mark.parametrize("points", (4, 16))
def test_sliced_integer_draw_equals_one_shot_fill(points, step, after_float):
    sliced, one_shot = _chunk_rng(89, points), _chunk_rng(89, points)
    if after_float:
        # the gains come first in a symbol chunk
        assert np.array_equal(sliced.standard_normal(3), one_shot.standard_normal(3))
    for shape in ((101, 7), (101, 3, 7)):  # the data, then the interferer symbols
        indices = simulate._symbol_indices(sliced, points, shape, step)
        assert indices.dtype == np.uint8
        assert np.array_equal(indices, one_shot.integers(0, points, shape))
    # both generators stand at the same word and hold the same spare half
    for draw in (lambda rng: rng.integers(0, points, 3), lambda rng: rng.random(3)):
        assert np.array_equal(draw(sliced), draw(one_shot))


# _serial_estimates below selects through select_antenna; these pin it and
# the estimator's gather to numpy's argmax and two-dimensional indexing
def _documented_key(desired, interference, rule):
    # select_antenna's documented key, built without it: the desired power,
    # or the SIR with 0/0 as zero and x/0 as +inf
    if rule is SelectionRule.MAX_SIGNAL:
        return desired
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = desired / interference
    return np.where(np.isnan(sir), 0.0, sir)


def _degenerate_draw(rng, count, antennas):
    # small whole-number powers: most rows hold exact ties, 0/0, x/0 or a
    # zero desired power; the first rows plant each case on its own
    desired = rng.integers(0, 3, (count, antennas)).astype(float)
    interference = rng.integers(0, 3, (count, antennas)).astype(float)
    desired[0], interference[0] = 1.0, 1.0        # every antenna ties
    desired[1], interference[1] = 0.0, 0.0        # every antenna 0/0
    desired[2], interference[2] = 0.0, 1.0        # no desired power anywhere
    desired[3], interference[3] = 2.0, 0.0        # x/0 on every antenna
    desired[4], interference[4] = 1.0, 2.0
    desired[4, -1], interference[4, 0] = 5.0, 0.0  # x/0 first, largest power last
    return desired, interference


@pytest.mark.parametrize("rule", BOTH_RULES)
@pytest.mark.parametrize("antennas", range(1, 9))
def test_selection_is_numpys_argmax_of_the_documented_key(antennas, rule):
    rng = np.random.default_rng(antennas)
    continuous = (rng.standard_exponential((20000, antennas)),
                  rng.standard_exponential((20000, antennas)))
    for desired, interference in (continuous, _degenerate_draw(rng, 20000, antennas)):
        idx = select_antenna(desired, interference, rule)
        assert idx.dtype == np.intp
        assert np.array_equal(
            idx, np.argmax(_documented_key(desired, interference, rule), axis=1))


@pytest.mark.parametrize("antennas", range(1, 9))
def test_flat_gather_equals_two_dimensional_indexing(antennas):
    # _kept_ratio is what estimate_evm_batch applies to each row slice of a chunk
    cfg = SystemConfig(antennas, 2, SelectionRule.MAX_SIR)
    rng = np.random.default_rng(100 + antennas)
    rows = np.arange(CHUNK)
    draws = (draw_channels(cfg, rng, CHUNK),
             ChannelDraw(*_degenerate_draw(rng, CHUNK, antennas)))
    for draw in draws:
        desired, interference = draw.desired_power, draw.interference_power
        for rule in BOTH_RULES:
            idx = np.argmax(_documented_key(desired, interference, rule), axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = np.sqrt(interference[rows, idx] / desired[rows, idx])
            got = simulate._kept_ratio(desired, interference, rule, np.empty(CHUNK))
            np.testing.assert_array_equal(got, expected)


def _serial_full_chunk_values(cfg, rule, samples, seed):
    # one rule, each chunk drawn in full and cut to its planned rows; the
    # non-finite values among the first `samples` stream positions are left
    # out. Returns the kept values per chunk and the left-out count.
    stream = derive_seed(seed, "power")
    chunks, rejected = [], 0
    for chunk in range(-(-samples // CHUNK)):
        draw = draw_channels(cfg, _chunk_rng(stream, chunk), CHUNK)
        idx = select_antenna(draw.desired_power, draw.interference_power, rule)
        rows = np.arange(CHUNK)
        with np.errstate(divide="ignore", over="ignore"):
            values = np.sqrt(draw.interference_power[rows, idx]
                             / draw.desired_power[rows, idx])
        values = values[:samples - chunk * CHUNK]
        finite = np.isfinite(values)
        chunks.append(values[finite])
        rejected += values.size - int(finite.sum())
    return chunks, rejected


def _serial_estimates(cfg, rules, samples, seed):
    # one rule and one chunk at a time, all on the calling thread, reduced
    # chunk by chunk over the kept values
    estimates = {}
    for rule in rules:
        chunks, rejected = _serial_full_chunk_values(cfg, rule, samples, seed)
        kept = samples - rejected
        mean = math.fsum(float(values.sum()) for values in chunks) / kept
        square_total = math.fsum(float(np.square(values).sum()) for values in chunks)
        variance = max(0.0, (square_total - kept * mean * mean) / (kept - 1))
        estimates[rule] = simulate.EvmEstimate(mean, math.sqrt(variance / kept), kept,
                                               rejected)
    return estimates


@pytest.mark.parametrize("samples", (CHUNK - 1, CHUNK, 2 * CHUNK + 5, 10 ** 6))
def test_chunks_drawn_ahead_equal_serial_reference(samples):
    cfg = SystemConfig(3, 2, SelectionRule.MAX_SIR)
    assert (estimate_evm_batch([(cfg, BOTH_RULES, samples, 89)])[0]
            == _serial_estimates(cfg, BOTH_RULES, samples, seed=89))


# a job failing on either thread, with an Exception or a BaseException; the
# RuntimeError cases keep their plain ids
FAILED_CHUNKS = [pytest.param(chunk, error, id=f"{chunk}" if error is RuntimeError
                              else f"{chunk}-{error.__name__}")
                 for error in (RuntimeError, KeyboardInterrupt) for chunk in (0, 1)]


@pytest.mark.threads
@pytest.mark.parametrize("failing_chunk, error", FAILED_CHUNKS)
def test_failed_draw_surfaces_and_next_estimate_works(monkeypatch, failing_chunk, error):
    # the caller takes chunk 0 and stays in it until the helper draws, so the
    # helper has taken chunk 1: a failure surfaces from either thread
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR)
    samples = 3 * CHUNK
    expected = estimate_evm(cfg, samples, seed=97)
    original = simulate._power_values
    worker_drawing = threading.Event()
    failed_on = []

    def failing(cfg, rng, rules, rows):
        chunk = rng.bit_generator.state["state"]["key"][1]
        if threading.current_thread() is not threading.main_thread():
            worker_drawing.set()
        elif chunk == 0:
            assert worker_drawing.wait(timeout=60)
        if chunk == failing_chunk:
            failed_on.append(threading.current_thread())
            raise error(f"draw failed in chunk {failing_chunk}")
        return original(cfg, rng, rules, rows)

    monkeypatch.setattr(simulate, "_power_values", failing)
    with pytest.raises(error, match=f"chunk {failing_chunk}"):
        estimate_evm(cfg, samples, seed=97)
    assert (failed_on[0] is threading.main_thread()) == (failing_chunk == 0)
    monkeypatch.undo()
    assert estimate_evm(cfg, samples, seed=97) == expected


@pytest.mark.threads
def test_chunks_finished_out_of_order_equal_serial_reference(monkeypatch):
    # the helper holds chunk 1 until the caller has finished chunks 2-4, so
    # the outcomes come in as 0, 2, 3, 4, 1
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR)
    samples = 4 * CHUNK + 5
    original = simulate._power_values
    helper_drawing, caller_done = threading.Event(), threading.Event()
    finished = []

    def held(cfg, rng, rules, rows):
        chunk = rng.bit_generator.state["state"]["key"][1]
        if chunk == 1:
            helper_drawing.set()
            assert caller_done.wait(timeout=60)
        elif chunk == 0:
            assert helper_drawing.wait(timeout=60)
        values = original(cfg, rng, rules, rows)
        finished.append(chunk)
        if chunk == 4:
            caller_done.set()
        return values

    monkeypatch.setattr(simulate, "_power_values", held)
    estimates = estimate_evm_batch([(cfg, BOTH_RULES, samples, 89)])[0]
    assert finished == [0, 2, 3, 4, 1]
    assert estimates == _serial_estimates(cfg, BOTH_RULES, samples, seed=89)


# plans of three estimates of one cell; every last chunk is partial, and at
# CHUNK + 1 it holds one row
PLAN_CELLS = [
    pytest.param(SystemConfig(3, 2, SelectionRule.MAX_SIR), id="rayleigh"),
    pytest.param(SystemConfig(2, 2, SelectionRule.MAX_SIR, Fading.nakagami(0.5)),
                 id="nakagami-0.5"),
    pytest.param(SystemConfig(2, 2, SelectionRule.MAX_SIR, rho=0.6), id="correlated-0.6"),
]
PLAN_SAMPLES = (CHUNK - 1, CHUNK + 1, 2 * CHUNK + 5)


@pytest.mark.parametrize("cfg", PLAN_CELLS)
def test_plan_of_estimates_equals_serial_references(cfg):
    requests = [(cfg, BOTH_RULES, samples, 100 + i) for i, samples in enumerate(PLAN_SAMPLES)]
    assert (simulate.estimate_evm_batch(requests)
            == [_serial_estimates(*request) for request in requests])


def test_last_chunk_draws_no_interferer_slice_past_its_rows(monkeypatch):
    counts = []
    original = simulate._interference_power

    def spy(rng, count, antennas, interferers):
        counts.append(count)
        return original(rng, count, antennas, interferers)

    monkeypatch.setattr(simulate, "_interference_power", spy)
    cfg = SystemConfig(3, 2, SelectionRule.MAX_SIR)
    samples = CHUNK + 1000
    estimates = estimate_evm_batch([(cfg, BOTH_RULES, samples, 89)])[0]
    # a full chunk, then slices of the second only as far as its 1000 rows
    assert sum(counts) == samples
    assert max(counts) <= simulate._SLICE // (cfg.antennas * cfg.interferers)
    monkeypatch.undo()
    assert estimates == _serial_estimates(cfg, BOTH_RULES, samples, seed=89)


# shape 0.01 desired powers underflow to zero about 100 times a chunk
ZERO_POWER = SystemConfig(1, 1, SelectionRule.MAX_SIGNAL, Fading.nakagami(0.01))


@pytest.mark.parametrize("samples, seed", [
    # the one chunk's first 3000 rows hold four zero powers
    (3000, 1),
    # chunk 0 leaves out 95 rows, and the last chunk's 3000 rows two more
    (CHUNK + 3000, 2),
    # chunks 0 and 1 leave out 198 rows, and chunk 2 draws its one row alone
    (2 * CHUNK + 1, 2),
])
def test_rejections_in_a_partial_last_chunk_equal_serial_reference(samples, seed):
    chunks, rejected = _serial_full_chunk_values(ZERO_POWER, ZERO_POWER.rule, samples, seed)
    assert rejected > 0
    # every kept value, as the shape-0.01 means rest on a few huge values
    request = simulate._Request(derive_seed(seed, "power"), (ZERO_POWER.rule,), samples,
                                CHUNK, functools.partial(simulate._power_values, ZERO_POWER),
                                lambda values: values, "{rejected}")
    parts, got_rejected = _collect([request])[0][ZERO_POWER.rule]
    assert got_rejected == rejected
    assert len(parts) == len(chunks)
    assert all(np.array_equal(part, values) for part, values in zip(parts, chunks))
    # and the estimate reduces them chunk by chunk, over the kept values
    assert estimate_evm(ZERO_POWER, samples, seed=seed) == _serial_estimates(
        ZERO_POWER, (ZERO_POWER.rule,), samples, seed)[ZERO_POWER.rule]


def test_rejections_add_no_chunk(monkeypatch):
    # a left-out draw is not refilled: the plan's chunks and rows are all
    # that an estimate draws
    rows = []
    original = simulate._power_values

    def spy(cfg, rng, rules, count):
        rows.append(count)
        return original(cfg, rng, rules, count)

    monkeypatch.setattr(simulate, "_power_values", spy)
    estimate = estimate_evm(ZERO_POWER, CHUNK + 3000, seed=2)
    assert estimate.rejected > 0
    assert sorted(rows) == [3000, CHUNK]


def test_symbol_level_leaves_out_zero_gain_blocks():
    # a block whose selected gain underflows to zero has no finite EVM; it
    # is left out and counted, and the estimate rests on the other blocks
    slots, blocks = 4, 20000
    estimate = estimate_evm_symbol_level(ZERO_POWER, slots, blocks, seed=3)
    assert estimate.rejected > 0
    # the one chunk's first blocks, as the estimator draws them
    rng = _chunk_rng(derive_seed(3, "symbol", "qpsk", slots), 0)
    (evms,) = simulate._symbol_evms(ZERO_POWER, simulate.CONSTELLATIONS["qpsk"], slots,
                                    simulate._SYMBOL_CHUNK_SYMBOLS // slots, rng,
                                    (ZERO_POWER.rule,), blocks)
    kept = evms[np.isfinite(evms)]
    assert estimate == simulate.EvmEstimate(
        float(kept.mean()), float(kept.std(ddof=1)) / math.sqrt(kept.size), kept.size,
        blocks - kept.size)


# the kept values of shape 0.001 reach 1e160, and their squares overflow
@pytest.mark.threads
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_failure_mid_plan_cancels_the_rest_and_leaves_the_worker_idle(monkeypatch):
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR)
    expected = estimate_evm_batch([(cfg, BOTH_RULES, 2 * CHUNK, 5)])[0]
    # shape 0.001 powers underflow to zero about half the time, so the
    # second estimate rejects more than 1% in its first chunk
    degenerate = SystemConfig(1, 1, SelectionRule.MAX_SIR, Fading.nakagami(0.001))
    requests = [(cfg, BOTH_RULES, 2 * CHUNK, 5), (degenerate, BOTH_RULES, 2 * CHUNK, 6),
                (cfg, BOTH_RULES, 40 * CHUNK, 7)]
    drawn = []
    original = simulate._power_values

    def counting(cfg, rng, rules, rows):
        drawn.append(rows)
        return original(cfg, rng, rules, rows)

    monkeypatch.setattr(simulate, "_power_values", counting)
    with pytest.raises(NumericalError, match="too degenerate"):
        simulate.estimate_evm_batch(requests)
    # the plan's helper is joined before the error reaches the caller
    assert not [thread for thread in threading.enumerate()
                if thread.name == "scevm-chunk-plan" and thread.is_alive()]
    # most of the third estimate's 40 chunks are left undrawn, and nothing runs on
    after = len(drawn)
    assert 3 <= after < 20
    time.sleep(0.2)
    assert len(drawn) == after
    monkeypatch.undo()
    assert estimate_evm_batch([(cfg, BOTH_RULES, 2 * CHUNK, 5)])[0] == expected


@pytest.mark.threads
@pytest.mark.parametrize("failing_chunk", (0, 1))
def test_failed_chunk_mid_plan_surfaces_and_stops_the_plan(monkeypatch, failing_chunk):
    # a chunk of the second of three estimates fails: its error is raised,
    # not one from a later job that never ran, and nothing is drawn after it
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR)
    requests = [(cfg, BOTH_RULES, 2 * CHUNK, 5), (cfg, BOTH_RULES, 2 * CHUNK, 6),
                (cfg, BOTH_RULES, 40 * CHUNK, 7)]
    failing_stream = derive_seed(6, "power")
    drawn = []
    original = simulate._power_values

    def failing(cfg, rng, rules, rows):
        drawn.append(rows)
        if rng.bit_generator.state["state"]["key"].tolist() == [failing_stream,
                                                                 failing_chunk]:
            raise RuntimeError("second estimate failed")
        return original(cfg, rng, rules, rows)

    monkeypatch.setattr(simulate, "_power_values", failing)
    with pytest.raises(RuntimeError, match="second estimate failed"):
        simulate.estimate_evm_batch(requests)
    assert not [thread for thread in threading.enumerate()
                if thread.name == "scevm-chunk-plan" and thread.is_alive()]
    after = len(drawn)
    assert 3 <= after < 20
    time.sleep(0.2)
    assert len(drawn) == after


# the kept values of shape 0.001 reach 1e160, and their squares overflow
@pytest.mark.threads
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_degenerate_plan_fails_with_the_same_message_each_time():
    # the count in the message is the plan-order one, whichever thread
    # finishes which chunk first
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR)
    degenerate = SystemConfig(1, 1, SelectionRule.MAX_SIR, Fading.nakagami(0.001))
    requests = [(cfg, BOTH_RULES, 2 * CHUNK, 5), (degenerate, BOTH_RULES, 2 * CHUNK, 6),
                (cfg, BOTH_RULES, 40 * CHUNK, 7)]
    messages = set()
    for _ in range(5):
        with pytest.raises(NumericalError, match="too degenerate") as raised:
            simulate.estimate_evm_batch(requests)
        messages.add(str(raised.value))
    assert len(messages) == 1


# 4096 slots make 256-block chunks
SYMBOL_SLOTS = 4096
SYMBOL_PER_CHUNK = simulate._SYMBOL_CHUNK_SYMBOLS // SYMBOL_SLOTS


def _serial_symbol_estimates(cfg, rules, slots, blocks, seed):
    # one chunk at a time on the calling thread; each chunk's data and
    # interferer symbols drawn in one fill each and indexed as int64
    points = simulate.CONSTELLATIONS["qpsk"]
    per_chunk = simulate._SYMBOL_CHUNK_SYMBOLS // slots
    stream = derive_seed(seed, "symbol", "qpsk", slots)
    evms = {rule: [] for rule in rules}
    for chunk in range(-(-blocks // per_chunk)):
        rng = _chunk_rng(stream, chunk)
        desired_gain, interferer_gain = simulate._draw_gains(cfg, rng, per_chunk)
        data = rng.integers(0, points.size, (per_chunk, slots))
        noise = rng.integers(0, points.size, (per_chunk, cfg.interferers, slots))
        powers = (np.square(np.abs(desired_gain)),
                  _sum_interferers(np.square(np.abs(interferer_gain))))
        for rule in rules:
            idx = select_antenna(*powers, rule)
            rows = np.arange(per_chunk)
            h0 = desired_gain[rows, idx][:, None]
            hj = interferer_gain[rows, idx, :]
            # 64 blocks at a time, to bound the complex temporaries
            for span in (slice(start, start + 64) for start in range(0, per_chunk, 64)):
                received = (h0[span] * points[data[span]]
                            + np.einsum("bj,bjs->bs", hj[span], points[noise[span]]))
                error = received / h0[span] - points[data[span]]
                evms[rule].append(np.sqrt(np.square(np.abs(error)).mean(axis=1)))
    estimates = {}
    for rule in rules:
        values = np.concatenate(evms[rule])[:blocks]
        assert np.all(np.isfinite(values))
        estimates[rule] = simulate.EvmEstimate(
            float(values.mean()), float(values.std(ddof=1)) / math.sqrt(blocks), blocks, 0)
    return estimates


@pytest.mark.parametrize("blocks", (SYMBOL_PER_CHUNK - 1, SYMBOL_PER_CHUNK,
                                    2 * SYMBOL_PER_CHUNK + 5))
def test_symbol_chunks_drawn_ahead_equal_serial_reference(blocks):
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR)
    assert (estimate_evm_symbol_level_rules(cfg, BOTH_RULES, SYMBOL_SLOTS, blocks, seed=91)
            == _serial_symbol_estimates(cfg, BOTH_RULES, SYMBOL_SLOTS, blocks, seed=91))


@pytest.mark.parametrize("cfg", [
    pytest.param(SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.6), id="correlated-0.6"),
    pytest.param(SystemConfig(3, 2, SelectionRule.MAX_SIR, Fading.nakagami(2.0)),
                 id="nakagami-2"),
])
def test_symbol_partial_last_chunk_equals_serial_reference(cfg):
    blocks = SYMBOL_PER_CHUNK + 7
    assert (estimate_evm_symbol_level_rules(cfg, BOTH_RULES, SYMBOL_SLOTS, blocks, seed=93)
            == _serial_symbol_estimates(cfg, BOTH_RULES, SYMBOL_SLOTS, blocks, seed=93))


@pytest.mark.threads
@pytest.mark.parametrize("failing_chunk, error", FAILED_CHUNKS)
def test_failed_symbol_chunk_surfaces_and_next_estimate_works(monkeypatch, failing_chunk,
                                                              error):
    # the caller takes chunk 0 and stays in it until the helper draws, so the
    # helper has taken chunk 1: a failure surfaces from either thread
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    blocks = 3 * SYMBOL_PER_CHUNK
    expected = estimate_evm_symbol_level(cfg, SYMBOL_SLOTS, blocks, seed=97)
    original = simulate._draw_gains
    worker_drawing = threading.Event()
    failed_on = []

    def failing(cfg, rng, count):
        chunk = rng.bit_generator.state["state"]["key"][1]
        if threading.current_thread() is not threading.main_thread():
            worker_drawing.set()
        elif chunk == 0:
            assert worker_drawing.wait(timeout=60)
        if chunk == failing_chunk:
            failed_on.append(threading.current_thread())
            raise error(f"draw failed in chunk {failing_chunk}")
        return original(cfg, rng, count)

    monkeypatch.setattr(simulate, "_draw_gains", failing)
    with pytest.raises(error, match=f"chunk {failing_chunk}"):
        estimate_evm_symbol_level(cfg, SYMBOL_SLOTS, blocks, seed=97)
    assert (failed_on[0] is threading.main_thread()) == (failing_chunk == 0)
    monkeypatch.undo()
    assert estimate_evm_symbol_level(cfg, SYMBOL_SLOTS, blocks, seed=97) == expected


# Peak traced memory of one estimate, both threads together. tracemalloc
# counts numpy's data buffers, and each bound holds however the two threads'
# chunks overlap; whole-chunk arrays peak above them, at 42, 30, 41 and
# 26-39 MB.
MEMORY_CASES = [
    pytest.param(lambda: estimate_evm_symbol_level_rules(
        RAYLEIGH_21_SIR, BOTH_RULES, 2000, 2000), 20.0, id="symbol-2000x2000"),
    pytest.param(lambda: estimate_evm_batch([(
        SystemConfig(4, 4, SelectionRule.MAX_SIR), BOTH_RULES, 10 ** 6, DEFAULT_SEED)]),
        20.0, id="L4-M4"),
    pytest.param(lambda: estimate_evm_batch([(
        SystemConfig(6, 2, SelectionRule.MAX_SIR, Fading.nakagami(2.0)), BOTH_RULES,
        200000, DEFAULT_SEED)]), 20.0, id="nakagami-L6-M2"),
    pytest.param(lambda: estimate_evm_batch([(
        SystemConfig(2, 2, SelectionRule.MAX_SIR, rho=0.6), BOTH_RULES, 200000,
        DEFAULT_SEED)]), 16.0, id="correlated"),
    pytest.param(lambda: estimate_evm_batch([(
        SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.9), BOTH_RULES, 10 ** 6,
        DEFAULT_SEED)]), 17.0, id="correlated-grid-cell"),
]


@pytest.mark.parametrize("estimate, bound_mb", MEMORY_CASES)
def test_estimates_hold_chunks_in_row_slices(estimate, bound_mb):
    estimate_evm(RAYLEIGH_21_SIR, 3 * CHUNK)  # first-use allocations stay out of the trace
    tracemalloc.start()
    try:
        estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_estimates_are_frozen():
    # values of the serial one-chunk-at-a-time loop, before chunks were
    # drawn ahead and interferer draws sliced
    l4m4 = estimate_evm(SystemConfig(4, 4, SelectionRule.MAX_SIR), 10 ** 6)
    assert repr(l4m4) == ("EvmEstimate(mean=1.401352163074867, "
                          "std_error=0.0005452347356034602, samples=1000000, rejected=0)")
    rho = SystemConfig(2, 3, SelectionRule.MAX_SIR, rho=0.6)
    frozen = {
        SelectionRule.MAX_SIR: (1.7658435689747263, 0.0021069573883341487),
        SelectionRule.MAX_SIGNAL: (1.8358498960607785, 0.0021991707167830113),
    }
    estimates = estimate_evm_batch([(rho, BOTH_RULES, 300000, 5)])[0]
    for rule in BOTH_RULES:
        mean, std_error = frozen[rule]
        assert repr(estimates[rule]) == (f"EvmEstimate(mean={mean!r}, std_error="
                                         f"{std_error!r}, samples=300000, rejected=0)")
    symbol = estimate_evm_symbol_level_rules(SystemConfig(2, 2, SelectionRule.MAX_SIR),
                                             BOTH_RULES, 2000, 600, seed=3)
    assert repr(symbol[SelectionRule.MAX_SIR]) == (
        "EvmEstimate(mean=1.2559467261705894, std_error=0.034936995628351536, "
        "samples=600, rejected=0)")
    assert repr(symbol[SelectionRule.MAX_SIGNAL]) == (
        "EvmEstimate(mean=1.3353299833136516, std_error=0.03798417216838246, "
        "samples=600, rejected=0)")


def test_correlated_symbol_level_estimates_are_frozen():
    # values of the pair-at-a-time gains, before each antenna was formed in
    # one reused buffer; one slot per block makes one chunk of 2**20 blocks
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR, rho=0.6)
    frozen = {
        2000: {SelectionRule.MAX_SIR: (1.3781337909546771, 0.03901976597098273),
               SelectionRule.MAX_SIGNAL: (1.461371475792582, 0.04162288852723513)},
        1: {SelectionRule.MAX_SIR: (1.2801686079553474, 0.042310973535956),
            SelectionRule.MAX_SIGNAL: (1.377959662489886, 0.05048215845627418)},
    }
    for slots, means in frozen.items():
        estimates = estimate_evm_symbol_level_rules(cfg, BOTH_RULES, slots, 600, seed=3)
        for rule in BOTH_RULES:
            mean, std_error = means[rule]
            assert repr(estimates[rule]) == (f"EvmEstimate(mean={mean!r}, std_error="
                                             f"{std_error!r}, samples=600, rejected=0)")


def _fresh_python(code):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(scevm.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.threads
def test_import_and_one_chunk_estimate_start_no_thread():
    loaded, threads_after_one_chunk, threads_after_two, threads_after_more = _fresh_python(
        "import sys, threading\n"
        "import scevm\n"
        "print(int(any(m in sys.modules for m in ('concurrent.futures', 'logging', 'scipy'))))\n"
        "cfg = scevm.SystemConfig(2, 1, scevm.SelectionRule.MAX_SIR)\n"
        "scevm.estimate_evm(cfg, 2)\n"
        "print(threading.active_count())\n"
        "scevm.estimate_evm(cfg, scevm.simulate.CHUNK + 1)\n"
        "print(threading.active_count())\n"
        "scevm.estimate_evm(cfg, 5 * scevm.simulate.CHUNK)\n"
        "print(threading.active_count())\n")
    assert loaded == "0"
    assert threads_after_one_chunk == "1"
    # an estimate of two or more chunks joins its helper before it returns
    assert threads_after_two == threads_after_more == "1"


@pytest.mark.threads
def test_forked_child_estimates_as_its_parent():
    # the parent has run plans with a helper; the child runs its own plan
    # and, like the parent, is left with its main thread alone
    equal, exited = _fresh_python(
        "import os, signal, threading, time\n"
        "import scevm\n"
        "cfg = scevm.SystemConfig(2, 1, scevm.SelectionRule.MAX_SIR)\n"
        "chunk = scevm.simulate.CHUNK\n"
        "scevm.estimate_evm(cfg, chunk + 1)\n"
        "expected = repr(scevm.estimate_evm(cfg, 3 * chunk)).encode()\n"
        "read, write = os.pipe()\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    got = repr(scevm.estimate_evm(cfg, 3 * chunk))\n"
        "    os.write(write, f'{got} threads={threading.active_count()}'.encode())\n"
        "    os._exit(0)\n"
        "os.close(write)\n"
        "deadline = time.monotonic() + 60\n"
        "while not (done := os.waitpid(child, os.WNOHANG))[0] "
        "and time.monotonic() < deadline:\n"
        "    time.sleep(0.01)\n"
        "if not done[0]:\n"
        "    os.kill(child, signal.SIGKILL)\n"
        "    os.waitpid(child, 0)\n"
        "print(int(os.read(read, 1 << 16) == expected + b' threads=1'),\n"
        "      int(bool(done[0]) and done[1] == 0))\n")
    assert equal == "1"
    assert exited == "1"


@pytest.mark.threads
def test_callers_on_several_threads_get_their_own_estimates():
    # four callers each bring their own helper; a short switch interval makes
    # their chunks interleave
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR)
    seeds = (101, 102, 103, 104)
    expected = {seed: _serial_estimates(cfg, BOTH_RULES, 3 * CHUNK, seed) for seed in seeds}
    got = {}

    def call(seed):
        got[seed] = estimate_evm_batch([(cfg, BOTH_RULES, 3 * CHUNK, seed)])[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(seed,)) for seed in seeds]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
