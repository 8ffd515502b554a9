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
`estimate_evm_batch` and `estimate_evm_symbol_level_rules` draw each chunk
once and share it among every rule of a request; each rule's estimate is
bit-for-bit the one its single-rule estimator gives. Interferer powers are
summed per antenna in interferer index order, which can differ from numpy's
pairwise `sum` in the last bit for eight or more interferers.

Each estimator call of two or more chunks runs on the caller and one
helper thread, which the call starts and joins before it returns or
raises: `_collect` hands out the plan's chunks one at a time under one
lock, and adds their outcomes up in plan order after the join.
`estimate_evm_batch`, which `estimate_evm` calls with one request, plans
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
    """Monte Carlo EVM estimate with its own accuracy assessment.

    A draw whose selected desired gain is zero is left out and counted, so
    `samples` falls short of the request by `rejected`.
    """

    mean: float
    std_error: float
    samples: int   # draws (or blocks) that entered the mean
    rejected: int  # draws left out for a zero/underflowed selected desired power


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


def _power_rows(cfg, rng, count, rows):
    """Powers of the first `rows` of `count` blocks, by row slice.

    Returns the (rows, antennas) desired powers and an iterator of (row
    slice, interference powers of those rows). The desired powers of all
    `count` blocks are drawn, as the stream orders them first. Independent
    interferers are drawn as the iterator advances, only as far as `rows`,
    as one fill would draw them. A correlated pair draws each interferer
    over all `count` blocks, so its interference is drawn in full up front,
    and summed and handed out in slices for the first `rows` alone.
    """
    antennas, interferers = cfg.antennas, cfg.interferers
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


@dataclass(frozen=True)
class _Request:
    """One estimate of a plan: `wanted` values per rule, chunk by chunk.

    chunk_values(rng, rules, rows) draws a chunk of `size` blocks from rng
    and returns, per rule, the values of its first `rows` blocks.
    reduce(values) is what the estimate keeps of a chunk's finite values.
    """

    stream: int
    rules: tuple
    wanted: int
    size: int
    chunk_values: object
    reduce: object
    failure: str

    def planned(self):
        """(chunk, rows) of every chunk of the estimate; only the last may be partial."""
        chunks = -(-self.wanted // self.size)
        return [(chunk, min(self.size, self.wanted - chunk * self.size))
                for chunk in range(chunks)]


def _planned_chunk(request, chunk, rows):
    """Per rule, (reduce() of the finite values of the chunk's first rows, count left out).

    A zero or underflowed selected desired gain makes a value non-finite.
    """
    reduced = []
    for values in request.chunk_values(_chunk_rng(request.stream, chunk), request.rules, rows):
        finite = np.isfinite(values)
        left_out = values.size - int(np.count_nonzero(finite))
        reduced.append((request.reduce(values[finite] if left_out else values), left_out))
    return reduced


def _over_budget(rejected, wanted):
    """Whether a rule has left out more than 1% of the `wanted` values."""
    return rejected > 0.01 * wanted


def _collect(requests):
    """The chunk loop shared by both estimators, over a plan of estimates.

    A request's plan is ceil(wanted / size) chunks, and chunk i comes from
    the (stream, i) generator. Every chunk but the last gives `size` rows,
    and the last draws only the rest of `wanted`. Of each chunk's rows, the
    values that are not finite are left out and counted, and reduce(the
    rest) is stored, so a rule's result rests on wanted minus its left-out
    count. NumericalError (message `failure`) is raised once a rule has left
    out more than 1% of `wanted`.

    The chunks of the plan are jobs in one list. The caller takes job 0 and
    a helper thread job 1, and then each takes the next untaken job under one
    lock, so neither waits at the end of an estimate for the other. A job
    that raises, or whose own chunk leaves out more than 1% of `wanted`,
    empties the list. The helper is joined before any outcome is read, so no
    job runs on and no thread outlives the call; concurrent calls each bring
    their own helper. The caller adds the outcomes up in plan order, so every
    result is the one-thread one bit for bit, each rule's is the one a
    single-rule run gives, and what is raised is the first stored exception
    or 1% overrun in plan order. The two threads overlap because numpy
    releases the interpreter lock while it fills and combines arrays; a
    third would hold a third chunk in memory, for a core that two-core
    machines do not have.

    Returns:
        per request, {rule: (list of reduce() results in chunk order,
        left-out count)}.
    """
    jobs = [(request, chunk, rows) for request in requests for chunk, rows in request.planned()]
    outcomes = [None] * len(jobs)  # per job, (value, error) once it has run
    pending = iter(range(len(jobs)))
    lock = threading.Lock()

    def take(stop=False):
        """The next untaken job, or None; `stop` empties the list first."""
        with lock:
            if stop:
                for _ in pending:
                    pass
            return next(pending, None)

    def work(index):
        """Run job `index`, then each next untaken job until none is left."""
        while index is not None:
            request, chunk, rows = jobs[index]
            try:
                value, error = _planned_chunk(request, chunk, rows), None
            except BaseException as caught:  # raised on the caller after the join
                value, error = None, caught
            outcomes[index] = value, error
            index = take(stop=error is not None or any(
                _over_budget(left_out, request.wanted) for _, left_out in value))

    helper = None
    try:
        first = take()
        if (second := take()) is not None:
            helper = threading.Thread(target=work, args=(second,), name="scevm-chunk-plan")
            helper.start()
        work(first)
    finally:
        take(stop=True)
        if helper is not None:
            helper.join()
    collected = []
    ran = iter(outcomes)
    for request in requests:
        parts = {rule: [] for rule in request.rules}
        rejected = dict.fromkeys(request.rules, 0)
        for _ in request.planned():
            value, error = next(ran)
            if error is not None:
                raise error
            for rule, (part, left_out) in zip(request.rules, value):
                parts[rule].append(part)
                rejected[rule] += left_out
                if _over_budget(rejected[rule], request.wanted):
                    raise NumericalError(request.failure.format(
                        rejected=rejected[rule], wanted=request.wanted))
        collected.append({rule: (parts[rule], rejected[rule]) for rule in request.rules})
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
    """Estimate the EVM from channel-power draws, per (cfg, rules, samples, seed) request.

    Each chunk of a request's channel powers is drawn once and shared by its
    rules (duplicates merged), so they are compared on identical channels;
    cfg.rule is ignored. samples is the fading blocks per rule, an integer
    >= 2, and the same (cfg, samples, seed) gives identical output. A block
    whose selected desired power is zero is left out and counted, so an
    estimate's samples fall short of the request by its rejected count. The
    requests run as one plan: the two threads share out their chunks, so
    neither waits at the end of one estimate for the other to finish its
    chunk. Every request is checked before any chunk is drawn.

    Returns:
        one {rule: EvmEstimate} per request, in order, each bit for bit what
        the request alone gives. The standard error is the empirical one; it
        supports z scoring only where E[SIR'^-1] is finite, which with
        independent antennas needs L m > 1.
    """
    plan = []
    for request in requests:
        try:
            cfg, rules, samples, seed = request
        except (TypeError, ValueError):
            raise ConfigError(f"each request must be a (cfg, rules, samples, seed) "
                              f"tuple, got {request!r}") from None
        rules = _check_rules(cfg, rules)
        samples = check_count(samples, "samples", 2)
        plan.append(_Request(
            derive_seed(seed, "power"), rules, samples, CHUNK,
            functools.partial(_power_values, cfg), _sums,
            "{rejected} draws with zero selected desired power while collecting "
            "{wanted}; the configuration is too degenerate to average"))
    estimates = []
    for request, collected in zip(plan, _collect(plan)):
        estimates.append({})
        for rule, (sums, rejected) in collected.items():
            samples = request.wanted - rejected
            total = math.fsum(chunk_sum for chunk_sum, _ in sums)
            square_total = math.fsum(chunk_square for _, chunk_square in sums)
            mean = total / samples
            variance = max(0.0, (square_total - samples * mean * mean) / (samples - 1))
            estimates[-1][rule] = EvmEstimate(
                mean=mean, std_error=math.sqrt(variance / samples), samples=samples,
                rejected=rejected)
    return estimates


def estimate_evm(cfg, samples, seed=DEFAULT_SEED):
    """estimate_evm_batch for cfg.rule alone; returns its EvmEstimate."""
    _check_config(cfg)
    return estimate_evm_batch([(cfg, (cfg.rule,), samples, seed)])[0][cfg.rule]


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
        {rule: EvmEstimate over the blocks kept}, in the order given.
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
            std_error=float(values.std(ddof=1)) / math.sqrt(values.size),
            samples=values.size, rejected=rejected)
    return estimates


def estimate_evm_symbol_level(cfg, slots, blocks, constellation="qpsk",
                              seed=DEFAULT_SEED):
    """estimate_evm_symbol_level_rules for cfg.rule alone; returns its EvmEstimate."""
    _check_config(cfg)
    return estimate_evm_symbol_level_rules(
        cfg, (cfg.rule,), slots, blocks, constellation, seed)[cfg.rule]
