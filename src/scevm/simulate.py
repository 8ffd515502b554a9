"""Monte Carlo verification of the closed-form EVM results.

Two independent estimators are provided. `estimate_evm` draws channel
powers, applies the selection rule, and averages sqrt(interference /
desired) per draw; it assumes only the data-aided EVM reduction, none of
the order-statistics or integration results. `estimate_evm_symbol_level`
goes one layer deeper: it draws complex gains and random data symbols,
forms the received waveform, equalizes, and measures the error vector
directly, so the reduction itself is also under test.

Draws are organized in fixed-size chunks keyed by (seed, chunk index)
through a counter-based generator, so a given (config, seed) pair yields
bit-identical results regardless of how many samples are requested beyond
a chunk boundary: sample i always comes from the same place in the same
stream. The chunk streams do not depend on the selection rule, so
`estimate_evm_rules` and `estimate_evm_symbol_level_rules` draw each chunk
once and share it among every rule requested; each rule's estimate is
bit-for-bit the one its single-rule estimator gives. Interferer powers are
summed per antenna in interferer index order, which can differ from numpy's
pairwise `sum` in the last bit for eight or more interferers.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, NumericalError, SelectionRule, SystemConfig

DEFAULT_SEED = 12345

# samples per generator chunk; estimate_evm results are prefix-consistent
# because every chunk is always generated in full and sliced
CHUNK = 1 << 17

_SYMBOL_CHUNK_SYMBOLS = 1 << 20
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * _INV_SQRT2
_QAM16 = np.array([complex(a, b) for a in (-3, -1, 1, 3)
                   for b in (-3, -1, 1, 3)]) / math.sqrt(10.0)
CONSTELLATIONS = {"qpsk": _QPSK, "16qam": _QAM16}


@dataclass(frozen=True)
class ChannelDraw:
    """One batch of post-fading powers, one row per fading block."""

    desired_power: np.ndarray       # (count, antennas)
    interference_power: np.ndarray  # (count, antennas), summed over interferers


@dataclass(frozen=True)
class EvmEstimate:
    """Monte Carlo EVM estimate with its own accuracy assessment."""

    mean: float
    std_error: float
    samples: int   # draws (or blocks) that entered the mean
    rejected: int  # zero/underflowed-desired-power draws replaced by later ones


def derive_seed(base, *parts):
    """Derive a 64-bit child seed from a base seed and a label path.

    Hash-based so that distinct labels give unrelated streams and the
    mapping is stable across runs and platforms.
    """
    h = hashlib.blake2s(digest_size=8)
    h.update(str(int(base)).encode())
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


def _chunk_rng(stream_seed, chunk):
    return np.random.Generator(np.random.Philox(key=[stream_seed, chunk]))


def _correlated_pair_gains(rng, count, rho):
    # h2 = rho h1 + sqrt(1 - rho^2) w reproduces E[h2 conj(h1)] = rho
    # with both margins standard complex normal
    h1 = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * _INV_SQRT2
    w = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * _INV_SQRT2
    h2 = rho * h1 + math.sqrt((1.0 - rho) * (1.0 + rho)) * w
    return np.stack([h1, h2], axis=1)


def _sum_interferers(power):
    """Sum over the last (interferer) axis in index order.

    numpy's reduction over a short last axis costs several times more than
    drawing the numbers. For fewer than eight interferers this gives the
    same bits as power.sum(axis=-1); from eight on numpy sums pairwise, so
    the two can differ in the last bit.
    """
    total = power[..., 0].copy()
    for j in range(1, power.shape[-1]):
        total += power[..., j]
    return total


def draw_channels(cfg, rng, count, correlated_interferers=True):
    """Draw `count` fading blocks of per-antenna powers.

    Desired powers follow cfg.fading (unit mean); each interferer
    contributes a unit-mean exponential power, summed per antenna. With
    cfg.rho > 0 the two antennas' gains form correlated complex-normal
    pairs, for the interferers too unless `correlated_interferers` is
    cleared.

    Args:
        cfg: receiver configuration.
        rng: numpy Generator to consume.
        count: number of fading blocks.
        correlated_interferers: couple the interferer pair with cfg.rho
            as well (only meaningful when cfg.rho > 0).

    Returns:
        ChannelDraw of shape (count, cfg.antennas) arrays.
    """
    _check_config(cfg)
    antennas, interferers = cfg.antennas, cfg.interferers
    if cfg.rho > 0.0:
        desired = np.square(np.abs(_correlated_pair_gains(rng, count, cfg.rho)))
        interference = np.zeros((count, 2))
        if correlated_interferers:
            for _ in range(interferers):
                gains = _correlated_pair_gains(rng, count, cfg.rho)
                interference += np.square(np.abs(gains))
        else:
            interference += _sum_interferers(rng.standard_exponential((count, 2, interferers)))
        return ChannelDraw(desired, interference)
    if cfg.fading.is_rayleigh_equivalent:
        desired = rng.standard_exponential((count, antennas))
    else:
        m = cfg.fading.m
        desired = rng.gamma(m, 1.0 / m, (count, antennas))
    interference = _sum_interferers(rng.standard_exponential((count, antennas, interferers)))
    return ChannelDraw(desired, interference)


def select_antenna(desired_power, interference_power, rule):
    """Index of the antenna each fading block keeps; ties go to the lowest index."""
    if rule is SelectionRule.MAX_SIGNAL:
        return np.argmax(desired_power, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = desired_power / interference_power
    # 0/0 antennas cannot win; x/0 is +inf and wins as it should
    ratio = np.where(np.isnan(ratio), 0.0, ratio)
    return np.argmax(ratio, axis=1)


def _check_config(cfg):
    if not isinstance(cfg, SystemConfig):
        raise ConfigError("cfg must be a SystemConfig")


def _check_rules(cfg, rules):
    _check_config(cfg)
    rules = tuple(dict.fromkeys(rules))
    if not rules or not all(isinstance(rule, SelectionRule) for rule in rules):
        raise ConfigError(f"rules must be a non-empty sequence of SelectionRule, "
                          f"got {rules!r}")
    return rules


def _collect(stream, rules, wanted, draw, per_block, reduce, failure):
    """The chunk loop shared by both estimators.

    Chunk i is drawn once, by draw(rng) from the (stream, i) generator, and
    shared by every rule. per_block(chunk, rule) gives one value per block;
    non-finite values are skipped and replaced by later ones, and
    reduce(kept values) is stored. A rule stops taking chunks once it holds
    `wanted` values, so each rule's result is the one a single-rule run
    gives. NumericalError (message `failure`) is raised once a rule has
    rejected more than 1% of `wanted`.

    Returns:
        {rule: (list of reduce() results in chunk order, rejected count)}.
    """
    kept = dict.fromkeys(rules, 0)
    rejected = dict.fromkeys(rules, 0)
    parts = {rule: [] for rule in rules}
    chunk = 0
    while any(count < wanted for count in kept.values()):
        data = draw(_chunk_rng(stream, chunk))
        for rule in rules:
            need = wanted - kept[rule]
            if need <= 0:
                continue
            values = per_block(data, rule)
            # a zero or underflowed selected desired gain makes the value
            # non-finite; such blocks are skipped and replaced by later ones
            finite = np.flatnonzero(np.isfinite(values))
            if finite.size >= need:
                rejected[rule] += int(finite[need - 1]) + 1 - need
                values = values[finite[:need]]
            else:
                rejected[rule] += values.size - finite.size
                values = values[finite]
            parts[rule].append(reduce(values))
            kept[rule] += values.size
            if rejected[rule] > 0.01 * wanted:
                raise NumericalError(failure.format(rejected=rejected[rule],
                                                    wanted=wanted))
        chunk += 1
    return {rule: (parts[rule], rejected[rule]) for rule in rules}


def estimate_evm_rules(cfg, rules, samples, seed=DEFAULT_SEED,
                       correlated_interferers=True):
    """Estimate the EVM from channel-power draws, under each rule given.

    Each chunk of channel powers is drawn once and shared by every rule,
    so the rules are compared on identical channels; cfg.rule is ignored.

    Args:
        cfg: receiver configuration.
        rules: SelectionRules to estimate; duplicates are merged.
        samples: number of fading blocks per rule, >= 2.
        seed: base seed; same (cfg, samples, seed) gives identical output.
        correlated_interferers: see draw_channels.

    Returns:
        {rule: EvmEstimate}, in the order given. The standard error is the
        empirical one; for heavy tailed configurations it converges slowly
        but remains a valid basis for z scoring.
    """
    rules = _check_rules(cfg, rules)
    if not isinstance(samples, int) or samples < 2:
        raise ConfigError(f"samples must be an integer >= 2, got {samples!r}")

    def draw(rng):
        return draw_channels(cfg, rng, CHUNK, correlated_interferers)

    def per_block(powers, rule):
        idx = select_antenna(powers.desired_power, powers.interference_power, rule)
        rows = np.arange(CHUNK)
        selected_desired = powers.desired_power[rows, idx]
        selected_interference = powers.interference_power[rows, idx]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.sqrt(selected_interference / selected_desired)

    def reduce(values):
        return float(values.sum()), float(np.square(values).sum())

    collected = _collect(
        derive_seed(seed, "power"), rules, samples, draw, per_block, reduce,
        "{rejected} draws with zero selected desired power while collecting "
        "{wanted}; the configuration is too degenerate to average")
    estimates = {}
    for rule, (sums, rejected) in collected.items():
        total = math.fsum(chunk_sum for chunk_sum, _ in sums)
        square_total = math.fsum(chunk_square for _, chunk_square in sums)
        mean = total / samples
        variance = max(0.0, (square_total - samples * mean * mean) / (samples - 1))
        estimates[rule] = EvmEstimate(mean=mean, std_error=math.sqrt(variance / samples),
                                      samples=samples, rejected=rejected)
    return estimates


def estimate_evm(cfg, samples, seed=DEFAULT_SEED, correlated_interferers=True):
    """estimate_evm_rules for cfg.rule alone; returns its EvmEstimate."""
    _check_config(cfg)
    return estimate_evm_rules(cfg, (cfg.rule,), samples, seed,
                              correlated_interferers)[cfg.rule]


def _draw_gains(cfg, rng, count, correlated_interferers):
    # complex version of draw_channels for the waveform path
    antennas, interferers = cfg.antennas, cfg.interferers
    if cfg.rho > 0.0:
        desired = _correlated_pair_gains(rng, count, cfg.rho)
        if correlated_interferers:
            gains = [_correlated_pair_gains(rng, count, cfg.rho)
                     for _ in range(interferers)]
            interferer = np.stack(gains, axis=2)
        else:
            interferer = (rng.standard_normal((count, 2, interferers))
                          + 1j * rng.standard_normal((count, 2, interferers))) * _INV_SQRT2
        return desired, interferer
    if cfg.fading.is_rayleigh_equivalent:
        desired = (rng.standard_normal((count, antennas))
                   + 1j * rng.standard_normal((count, antennas))) * _INV_SQRT2
    else:
        m = cfg.fading.m
        power = rng.gamma(m, 1.0 / m, (count, antennas))
        phase = rng.uniform(0.0, 2.0 * math.pi, (count, antennas))
        desired = np.sqrt(power) * np.exp(1j * phase)
    interferer = (rng.standard_normal((count, antennas, interferers))
                  + 1j * rng.standard_normal((count, antennas, interferers))) * _INV_SQRT2
    return desired, interferer


def estimate_evm_symbol_level_rules(cfg, rules, slots, blocks, constellation="qpsk",
                                    seed=DEFAULT_SEED, correlated_interferers=True):
    """Estimate the EVM by demodulating simulated waveforms, under each rule given.

    Per fading block: select an antenna from the drawn gains, transmit
    `slots` uniformly random constellation points from the desired user
    and every interferer, equalize the received samples by the desired
    gain, and take the RMS error against the sent symbols. The estimate
    averages the per-block EVM over blocks, which is exactly the quantity
    the closed forms predict. Gains and symbols of each chunk are drawn
    once and shared by every rule; cfg.rule is ignored.

    Args:
        cfg: receiver configuration.
        rules: SelectionRules to estimate; duplicates are merged.
        slots: data symbols per fading block, >= 1.
        blocks: independent fading blocks per rule, >= 2.
        constellation: "qpsk" or "16qam" (unit average energy each).
        seed: base seed, domain-separated from estimate_evm.
        correlated_interferers: see draw_channels.

    Returns:
        {rule: EvmEstimate over blocks}, in the order given.
    """
    rules = _check_rules(cfg, rules)
    if not isinstance(slots, int) or slots < 1:
        raise ConfigError(f"slots must be an integer >= 1, got {slots!r}")
    if not isinstance(blocks, int) or blocks < 2:
        raise ConfigError(f"blocks must be an integer >= 2, got {blocks!r}")
    try:
        points = CONSTELLATIONS[constellation]
    except KeyError:
        raise ConfigError(
            f"unknown constellation {constellation!r}; "
            f"choose from {sorted(CONSTELLATIONS)}") from None
    per_chunk = max(1, _SYMBOL_CHUNK_SYMBOLS // slots)

    def draw(rng):
        desired_gain, interferer_gain = _draw_gains(
            cfg, rng, per_chunk, correlated_interferers)
        data = points[rng.integers(0, points.size, (per_chunk, slots))]
        noise_symbols = points[rng.integers(
            0, points.size, (per_chunk, cfg.interferers, slots))]
        powers = (np.square(np.abs(desired_gain)),
                  _sum_interferers(np.square(np.abs(interferer_gain))))
        return desired_gain, interferer_gain, data, noise_symbols, powers

    def per_block(chunk, rule):
        desired_gain, interferer_gain, data, noise_symbols, powers = chunk
        idx = select_antenna(*powers, rule)
        rows = np.arange(per_chunk)
        h0 = desired_gain[rows, idx]
        hj = interferer_gain[rows, idx, :]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            received = h0[:, None] * data + np.einsum("bj,bjs->bs", hj, noise_symbols)
            error = received / h0[:, None] - data
            return np.sqrt(np.square(np.abs(error)).mean(axis=1))

    collected = _collect(
        derive_seed(seed, "symbol", constellation, slots), rules, blocks,
        draw, per_block, lambda evms: evms,
        "{rejected} blocks with a zero selected gain while collecting {wanted}")
    estimates = {}
    for rule, (block_evms, rejected) in collected.items():
        values = np.concatenate(block_evms)
        estimates[rule] = EvmEstimate(
            mean=float(values.mean()),
            std_error=float(values.std(ddof=1)) / math.sqrt(blocks),
            samples=blocks, rejected=rejected)
    return estimates


def estimate_evm_symbol_level(cfg, slots, blocks, constellation="qpsk",
                              seed=DEFAULT_SEED, correlated_interferers=True):
    """estimate_evm_symbol_level_rules for cfg.rule alone; returns its EvmEstimate."""
    _check_config(cfg)
    return estimate_evm_symbol_level_rules(
        cfg, (cfg.rule,), slots, blocks, constellation, seed,
        correlated_interferers)[cfg.rule]
