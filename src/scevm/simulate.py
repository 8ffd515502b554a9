"""Monte Carlo verification of the closed-form EVM results.

Two independent estimators are provided. `estimate_evm` draws channel
powers, applies the selection rule, and averages sqrt(interference /
desired) per draw; it assumes only the data-aided EVM reduction, none of
the order-statistics or integration results. `estimate_evm_symbol_level`
goes one layer deeper: it draws complex gains and random data symbols,
forms the received waveform, equalizes, and measures the error vector
directly, so the reduction itself is also under test. Both estimators
draw one channel model, the one the closed forms assume: with rho > 0 the
desired pair and every interferer pair are correlated with the same rho.

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

Each estimator call of two or more chunks runs on the caller and one
helper thread, which the call starts and joins before it returns or
raises; `_collect` gives the plan they share. `estimate_evm_batch` plans
many estimates at once (the `verify` grid, a sweep's points). Every result
is bit for bit the one a one-thread run gives. A chunk is held in row
slices of about `_SLICE` values wherever the stream allows; a fill split
into row slices gives the values of one fill, so slicing changes no bit.
"""

import functools
import hashlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .model import (ConfigError, NumericalError, SelectionRule, SystemConfig, check_count,
                    check_seed)

DEFAULT_SEED = 12345

# samples per generator chunk; estimate_evm results are prefix-consistent
# because every chunk is always generated in full and sliced
CHUNK = 1 << 17

_SYMBOL_CHUNK_SYMBOLS = 1 << 20
# values per row slice of the interferer draws, the symbol indices and the
# per-rule selection and error, small enough for the slice's temporaries to
# stay in cache
_SLICE = 1 << 16
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * _INV_SQRT2
_QAM16 = np.array([complex(a, b) for a in (-3, -1, 1, 3)
                   for b in (-3, -1, 1, 3)]) / math.sqrt(10.0)
CONSTELLATIONS = {"qpsk": _QPSK, "16qam": _QAM16}


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
    h.update(str(check_seed(base)).encode())
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


def _chunk_rng(stream_seed, chunk):
    return np.random.Generator(np.random.Philox(key=[stream_seed, chunk]))


def _correlated_antennas(rng, count, rho, pairs):
    """Each antenna's gains of `pairs` correlated pairs, in stream order.

    Yields (pair, antenna, gains, scratch): `gains` is one (count,) complex
    buffer that every step overwrites, `scratch` a (count,) float array free
    until the next step. A pair takes four fills, h1's real and imaginary
    parts then w's, and h2 = rho h1 + sqrt(1 - rho^2) w, formed over h1 in
    place, has E[h2 conj(h1)] = rho with both margins standard complex
    normal. In each complex product the cross term is an exact zero, so
    forming the parts one at a time keeps the bits of complex arithmetic.
    """
    gains = np.empty(count, dtype=complex)
    normal = np.empty(count)
    parts = (gains.real, gains.imag)
    scale = math.sqrt((1.0 - rho) * (1.0 + rho))
    for pair in range(pairs):
        for part in parts:
            np.multiply(rng.standard_normal(out=normal), _INV_SQRT2, out=part)
        yield pair, 0, gains, normal
        for part in parts:
            np.multiply(rng.standard_normal(out=normal), _INV_SQRT2, out=normal)
            normal *= scale
            part *= rho
            part += normal
        yield pair, 1, gains, normal


def _sum_interferers(power):
    """Sum over the last (interferer) axis in index order.

    numpy's reduction over a short last axis costs several times more than
    drawing the numbers. For fewer than eight interferers this gives the
    same bits as power.sum(axis=-1); from eight on numpy sums pairwise, so
    the two can differ in the last bit.
    """
    if power.shape[-1] == 1:
        return power[..., 0]
    out = np.add(power[..., 0], power[..., 1])
    for j in range(2, power.shape[-1]):
        out += power[..., j]
    return out


def _row_slices(count, step):
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _interference_power(rng, count, antennas, interferers):
    # the (count, antennas, interferers) exponentials, summed in interferer order
    return _sum_interferers(rng.standard_exponential((count, antennas, interferers)))


def _power_rows(cfg, rng, count, rows=None):
    """Powers of the first `rows` (default all) of `count` blocks, by row slice.

    Returns the (rows, antennas) desired powers and an iterator of (row
    slice, interference powers of those rows). The desired powers of all
    `count` blocks are drawn, as the stream orders them first. Independent
    interferers are drawn as the iterator advances, only as far as `rows`,
    as one fill would draw them. A correlated pair draws each interferer
    over all `count` blocks, so its interference is drawn in full up front,
    and summed and handed out in slices for the first `rows` alone.
    """
    antennas, interferers = cfg.antennas, cfg.interferers
    rows = count if rows is None else rows
    if cfg.rho > 0.0:
        # each antenna's power of the first rows is added into its column,
        # the desired pair's into `desired`, the interferer pairs' in order
        desired, interference = np.zeros((rows, 2)), np.zeros((rows, 2))
        for pair, antenna, gains, scratch in _correlated_antennas(
                rng, count, cfg.rho, interferers + 1):
            power = np.abs(gains[:rows], out=scratch[:rows])
            (interference if pair else desired)[:, antenna] += np.square(power, out=power)
        spans = _row_slices(rows, _SLICE // 2)
        return desired, ((span, interference[span]) for span in spans)
    if cfg.fading.is_rayleigh_equivalent:
        desired = rng.standard_exponential((count, antennas))
    else:
        m = cfg.fading.m
        desired = rng.gamma(m, 1.0 / m, (count, antennas))
    spans = _row_slices(rows, max(1, _SLICE // (antennas * interferers)))
    return desired[:rows], ((span, _interference_power(rng, span.stop - span.start,
                                                       antennas, interferers))
                            for span in spans)


def select_antenna(desired_power, interference_power, rule):
    """Index of the antenna each fading block keeps; ties go to the lowest index.

    The rowwise argmax of the key: the desired power under max-signal, the
    SIR under max-SIR, where 0/0 counts as zero SIR and x/0 as infinite. One
    antenna needs no key and two need one comparison; numpy's argmax over a
    short row costs several times more than either.
    """
    rows, antennas = desired_power.shape
    if antennas == 1:
        return np.zeros(rows, dtype=np.intp)
    if rule is SelectionRule.MAX_SIGNAL:
        key = desired_power
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            key = desired_power / interference_power
        # 0/0 antennas cannot win; x/0 is +inf and wins as it should
        key[np.isnan(key)] = 0.0
    if antennas == 2:
        return (key[:, 1] > key[:, 0]).astype(np.intp)
    return np.argmax(key, axis=1)


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


class _Plan:
    """Jobs that the caller and one helper thread take in order; outcomes by index.

    The caller holds job 0; a plan of two or more jobs starts a helper that
    takes the next untaken job, and close() joins it.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.outcomes = {}  # index: (value, error), until the caller reads it
        self.taken = min(1, len(jobs))
        self.closed = False
        self.changed = threading.Condition()
        self.helper = None
        if len(jobs) > 1:
            self.helper = threading.Thread(target=self.work, name="scevm-chunk-plan")
            self.helper.start()

    def take(self):
        with self.changed:
            if self.closed or self.taken == len(self.jobs):
                return None
            self.taken += 1
            return self.taken - 1

    def run(self, index):
        try:
            outcome = self.jobs[index](), None
        except BaseException as error:  # raised on the caller by result()
            outcome = None, error
        with self.changed:
            self.outcomes[index] = outcome
            self.changed.notify_all()

    def work(self):
        """Run untaken jobs until none is left; the helper's share of the plan."""
        while (index := self.take()) is not None:
            self.run(index)

    def result(self, index):
        """The value of job `index`, running untaken jobs here until it is in."""
        while index not in self.outcomes and (taken := self.take()) is not None:
            self.run(taken)
        with self.changed:
            self.changed.wait_for(lambda: index in self.outcomes)
            value, error = self.outcomes.pop(index)
        if error is not None:
            raise error
        return value

    def close(self):
        """Take no further job, and join the helper once its running job is done."""
        with self.changed:
            self.closed = True
        if self.helper is not None:
            self.helper.join()


@dataclass(frozen=True)
class _Request:
    """One estimate of a plan: `wanted` values per rule, chunk by chunk.

    chunk_values(rng, rules, rows) draws a chunk of `size` blocks from rng
    and returns, per rule, the values of its first `rows` blocks.
    reduce(values) is what the estimate keeps of a chunk's kept values.
    """

    stream: int
    rules: tuple
    wanted: int
    size: int
    chunk_values: object
    reduce: object
    failure: str

    def values(self, chunk, rules, rows=None):
        """Chunk `chunk` under each of `rules`: its first `rows` values, default all."""
        return self.chunk_values(_chunk_rng(self.stream, chunk), rules,
                                 self.size if rows is None else rows)

    def planned(self):
        """(chunk, rows) of every chunk an estimate needs if no block is rejected."""
        chunks = -(-self.wanted // self.size)
        return [(chunk, min(self.size, self.wanted - chunk * self.size))
                for chunk in range(chunks)]


def _keep(values, need):
    """The first `need` finite values, or all if fewer, and the non-finite ones skipped.

    A zero or underflowed selected desired gain makes a value non-finite;
    such blocks are skipped and replaced by later ones.
    """
    finite = np.isfinite(values)
    if finite.all():
        return values[:need], 0
    finite = np.flatnonzero(finite)
    if finite.size >= need:
        return values[finite[:need]], int(finite[need - 1]) + 1 - need
    return values[finite], values.size - finite.size


def _planned_chunk(request, chunk, rows):
    # per rule, the serial loop's (reduced, kept, skipped) of the chunk's first rows
    kept = []
    for values in request.values(chunk, request.rules, rows):
        values, skipped = _keep(values, rows)
        kept.append((request.reduce(values), values.size, skipped))
    return kept


def _collect(requests):
    """The chunk loop shared by both estimators, over a plan of estimates.

    A request's chunk i comes from the (stream, i) generator. Non-finite
    values are skipped and replaced by later ones, and reduce(kept values)
    is stored. A rule stops taking chunks once it holds `wanted` values, so
    each rule's result is the one a single-rule run gives. NumericalError
    (message `failure`) is raised once a rule has rejected more than 1% of
    `wanted`.

    The plan holds every chunk that each estimate needs if no block is
    rejected: ceil(wanted / size) chunks, the last of which draws only the
    rows it keeps. Rejections only add chunks, so a serial run draws every
    planned chunk too. The caller and the plan's helper thread each take the
    next chunk of the plan that no thread has taken, so neither waits at the
    end of an estimate for the other's chunk. A job keeps and reduces its
    finite values, and the caller tallies the jobs in plan order. A partial
    last chunk stands for the full one only where it holds all that a rule
    still needs. Otherwise the caller's serial loop draws it in full for
    that rule, and then any chunks past the plan. So every result is the
    serial one bit for bit. An exception raised by a job is raised here.
    The helper is joined before this returns or raises, so no job runs on
    and no thread outlives the call; concurrent calls each bring their own
    helper. The two threads overlap because numpy releases the interpreter
    lock while it fills and combines arrays; a third would hold a third
    chunk in memory, for a core that two-core machines do not have.

    Returns:
        per request, {rule: (list of reduce() results in chunk order,
        rejected count)}.
    """
    planned = [request.planned() for request in requests]
    plan = _Plan([functools.partial(_planned_chunk, request, chunk, rows)
                  for request, chunks in zip(requests, planned) for chunk, rows in chunks])
    collected = []
    index = 0
    try:
        if plan.jobs:
            plan.run(0)
        for request, chunks in zip(requests, planned):
            rules, wanted = request.rules, request.wanted
            kept = dict.fromkeys(rules, 0)
            rejected = dict.fromkeys(rules, 0)
            parts = {rule: [] for rule in rules}

            def tally(rule, part, count, skipped):
                parts[rule].append(part)
                kept[rule] += count
                rejected[rule] += skipped
                if rejected[rule] > 0.01 * wanted:
                    raise NumericalError(request.failure.format(
                        rejected=rejected[rule], wanted=wanted))

            for _, rows in chunks:
                for rule, (part, count, skipped) in zip(rules, plan.result(index)):
                    # a partial chunk counts only if it holds all the rule needs
                    if rows == request.size or count >= wanted - kept[rule]:
                        tally(rule, part, count, skipped)
                index += 1
            # the serial loop, from the partial last chunk if there is one
            chunk = len(chunks) - (chunks[-1][1] < request.size)
            while active := [rule for rule in rules if kept[rule] < wanted]:
                for rule, values in zip(active, request.values(chunk, active)):
                    values, skipped = _keep(values, wanted - kept[rule])
                    tally(rule, request.reduce(values), values.size, skipped)
                chunk += 1
            collected.append({rule: (parts[rule], rejected[rule]) for rule in rules})
    finally:
        plan.close()
    return collected


def _kept_ratio(desired, interference, rule, out):
    """sqrt(interference / desired) at the antenna each row keeps, into `out`.

    The kept powers are gathered from the flattened arrays at
    index + row * antennas.
    """
    rows, antennas = desired.shape
    kept = select_antenna(desired, interference, rule)
    kept += np.arange(0, rows * antennas, antennas)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(np.take(interference.reshape(-1), kept),
                  np.take(desired.reshape(-1), kept), out=out)
        return np.sqrt(out, out=out)


def _power_values(cfg, rng, rules, rows):
    """sqrt(interference / desired) at the kept antenna, per rule, of a chunk's first rows."""
    desired, slices = _power_rows(cfg, rng, CHUNK, rows)
    values = [np.empty(rows) for _ in rules]
    for span, interference in slices:
        for rule, out in zip(rules, values):
            _kept_ratio(desired[span], interference, rule, out[span])
    return values


def _sums(values):
    return float(values.sum()), float(np.square(values).sum())


def estimate_evm_batch(requests):
    """estimate_evm_rules for each (cfg, rules, samples, seed) request, as one plan.

    The two threads share out the chunks of every request, so neither
    waits at the end of one estimate for the other to finish its chunk.
    Every request is checked before any chunk is drawn.

    Returns:
        one {rule: EvmEstimate} per request, in order, each bit for bit what
        estimate_evm_rules(cfg, rules, samples, seed) returns.
    """
    plan = []
    for cfg, rules, samples, seed in requests:
        rules = _check_rules(cfg, rules)
        samples = check_count(samples, "samples", 2)
        plan.append(_Request(
            derive_seed(seed, "power"), rules, samples, CHUNK,
            functools.partial(_power_values, cfg), _sums,
            "{rejected} draws with zero selected desired power while collecting "
            "{wanted}; the configuration is too degenerate to average"))
    estimates = []
    for request, collected in zip(plan, _collect(plan)):
        samples = request.wanted
        estimates.append({})
        for rule, (sums, rejected) in collected.items():
            total = math.fsum(chunk_sum for chunk_sum, _ in sums)
            square_total = math.fsum(chunk_square for _, chunk_square in sums)
            mean = total / samples
            variance = max(0.0, (square_total - samples * mean * mean) / (samples - 1))
            estimates[-1][rule] = EvmEstimate(
                mean=mean, std_error=math.sqrt(variance / samples), samples=samples,
                rejected=rejected)
    return estimates


def estimate_evm_rules(cfg, rules, samples, seed=DEFAULT_SEED):
    """Estimate the EVM from channel-power draws, under each rule given.

    Each chunk of channel powers is drawn once and shared by every rule,
    so the rules are compared on identical channels; cfg.rule is ignored.

    Args:
        cfg: receiver configuration.
        rules: SelectionRules to estimate; duplicates are merged.
        samples: number of fading blocks per rule, an integer >= 2.
        seed: base seed; same (cfg, samples, seed) gives identical output.

    Returns:
        {rule: EvmEstimate}, in the order given. The standard error is the
        empirical one; it supports z scoring only where E[SIR'^-1] is
        finite, which with independent antennas needs L m > 1.
    """
    return estimate_evm_batch([(cfg, rules, samples, seed)])[0]


def estimate_evm(cfg, samples, seed=DEFAULT_SEED):
    """estimate_evm_rules for cfg.rule alone; returns its EvmEstimate."""
    _check_config(cfg)
    return estimate_evm_rules(cfg, (cfg.rule,), samples, seed)[cfg.rule]


def _draw_gains(cfg, rng, count):
    # each block's complex gains for the waveform path: desired (count,
    # antennas), interferers (count, antennas, interferers)
    antennas, interferers = cfg.antennas, cfg.interferers
    if cfg.rho > 0.0:
        desired = np.empty((count, 2), dtype=complex)
        interferer = np.empty((count, 2, interferers), dtype=complex)
        for pair, antenna, gains, _ in _correlated_antennas(rng, count, cfg.rho,
                                                            interferers + 1):
            (interferer[:, antenna, pair - 1] if pair else desired[:, antenna])[:] = gains
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


def _symbol_indices(rng, size, shape, step):
    # one byte per index, drawn `step` rows at a time: int64 bounded draws
    # below 2**32 take 32-bit words and keep a spare half in the generator,
    # so the slices continue one another as one fill of `shape` would
    indices = np.empty(shape, dtype=np.uint8)
    for rows in _row_slices(shape[0], step):
        indices[rows] = rng.integers(0, size, indices[rows].shape)
    return indices


def _symbol_evms(cfg, points, slots, per_chunk, rng, rules, rows):
    """One chunk of `per_chunk` blocks: the EVM of its first `rows` blocks, per rule.

    The stream holds the gains, then every block's data indices, then every
    block's interferer indices; the last are drawn only as far as `rows`.
    """
    step = max(1, _SLICE // slots)
    desired_gain, interferer_gain = _draw_gains(cfg, rng, per_chunk)
    data = _symbol_indices(rng, points.size, (per_chunk, slots), step)
    noise = _symbol_indices(rng, points.size, (rows, cfg.interferers, slots), step)
    desired_gain, interferer_gain = desired_gain[:rows], interferer_gain[:rows]
    powers = (np.square(np.abs(desired_gain)),
              _sum_interferers(np.square(np.abs(interferer_gain))))
    kept = [select_antenna(*powers, rule) for rule in rules]
    evms = [np.empty(rows) for _ in rules]
    blocks = np.arange(rows)
    for span in _row_slices(rows, step):
        # intp indices gather about three times faster than uint8 ones
        sent = points[data[span].astype(np.intp)]
        interfering = points[noise[span].astype(np.intp)]
        # each block's EVM depends on its own row alone
        for idx, evm in zip(kept, evms):
            h0 = desired_gain[blocks[span], idx[span]][:, None]
            hj = interferer_gain[blocks[span], idx[span], :]
            # received / h0 - sent, formed in place
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                error = h0 * sent
                error += np.einsum("bj,bjs->bs", hj, interfering)
                np.divide(error, h0, out=error)
                error -= sent
                evm[span] = np.sqrt(np.square(np.abs(error)).mean(axis=1))
    return evms


def estimate_evm_symbol_level_rules(cfg, rules, slots, blocks, constellation="qpsk",
                                    seed=DEFAULT_SEED):
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
        slots: data symbols per fading block, an integer >= 1.
        blocks: independent fading blocks per rule, an integer >= 2.
        constellation: "qpsk" or "16qam" (unit average energy each).
        seed: base seed, domain-separated from estimate_evm.

    Returns:
        {rule: EvmEstimate over blocks}, in the order given.
    """
    rules = _check_rules(cfg, rules)
    slots = check_count(slots, "slots", 1)
    blocks = check_count(blocks, "blocks", 2)
    try:
        points = CONSTELLATIONS[constellation]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown constellation {constellation!r}; "
            f"choose from {sorted(CONSTELLATIONS)}") from None
    per_chunk = max(1, _SYMBOL_CHUNK_SYMBOLS // slots)
    (collected,) = _collect([_Request(
        derive_seed(seed, "symbol", constellation, slots), rules, blocks, per_chunk,
        functools.partial(_symbol_evms, cfg, points, slots, per_chunk), lambda evms: evms,
        "{rejected} blocks with a zero selected gain while collecting {wanted}")])
    estimates = {}
    for rule, (block_evms, rejected) in collected.items():
        values = np.concatenate(block_evms)
        estimates[rule] = EvmEstimate(
            mean=float(values.mean()),
            std_error=float(values.std(ddof=1)) / math.sqrt(blocks),
            samples=blocks, rejected=rejected)
    return estimates


def estimate_evm_symbol_level(cfg, slots, blocks, constellation="qpsk",
                              seed=DEFAULT_SEED):
    """estimate_evm_symbol_level_rules for cfg.rule alone; returns its EvmEstimate."""
    _check_config(cfg)
    return estimate_evm_symbol_level_rules(
        cfg, (cfg.rule,), slots, blocks, constellation, seed)[cfg.rule]
