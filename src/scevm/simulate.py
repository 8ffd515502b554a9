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

Both estimators use one extra thread. While the caller handles chunk c, a
single module-level worker thread draws chunk c+1 and computes its values,
but only when every rule still needs chunk c+1 whatever chunk c keeps, so
no chunk is drawn that a serial run would not draw. The bookkeeping stays
on the caller, in chunk order, so the results are those of a serial run bit
for bit. The two threads overlap because numpy releases the interpreter
lock while it fills and combines arrays; a third would hold a third chunk
in memory, for a core that two-core machines do not have.

A chunk is held in row slices of about `_SLICE` values wherever the
stream allows. Generator fills are sequential, so a fill split into row
slices gives the values of one fill, and each row is reduced on its own, so
slicing changes no bit. The power level draws a chunk's desired powers in
full, as the stream orders them first, then draws each slice's interferers
and selects and gathers that slice for every rule; a correlated pair draws
each interferer over all rows, so its interference is drawn in full and
selected slice by slice. The symbol level draws a chunk's gains in full and
its symbol indices a slice at a time into one-byte arrays, about a megabyte
per million symbols; the complex symbols exist one slice at a time, gathered
once for every rule.

Selecting the kept antenna is a comparison at two antennas (an argmax at
three or more, nothing at one), and the kept powers are gathered from the
flattened arrays at index + row * antennas; both give the bits of numpy's
rowwise argmax and two-dimensional indexing.
"""

import functools
import hashlib
import math
import operator
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, NumericalError, SelectionRule, SystemConfig

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


def _as_int(value):
    # Python and numpy integers as an int, else None; bool is an int
    # subclass but neither a seed nor a count
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_seed(seed):
    """The seed as an int; Python and numpy integers pass, all else is a ConfigError.

    int() would truncate 1.9 to seed 1 and take True for seed 1, silently
    aliasing another stream; bool is an int subclass but not a seed, and a
    float is refused even when whole.
    """
    integer = _as_int(seed)
    if integer is None:
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return integer


def check_count(value, name, minimum):
    """The count as an int >= minimum; Python and numpy integers pass, all else
    (a bool or a whole float included) is a ConfigError."""
    count = _as_int(value)
    if count is None or count < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return count


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


def _correlated_pair_gains(rng, count, rho, out=None, scratch=None):
    """(count, 2) complex gains of correlated pairs, written into `out` if given.

    h2 = rho h1 + sqrt(1 - rho^2) w reproduces E[h2 conj(h1)] = rho with
    both margins standard complex normal. The real and imaginary parts are
    formed in place: in each complex product the cross term is an exact
    zero, so the parts carry the bits of the complex arithmetic. `scratch`,
    if given, is a contiguous float array of `count` values to draw into.
    """
    gains = np.empty((count, 2), dtype=complex) if out is None else out
    first, second = gains[:, 0], gains[:, 1]
    scale = math.sqrt((1.0 - rho) * (1.0 + rho))
    normal = np.empty(count) if scratch is None else scratch
    for part in (first.real, first.imag):
        np.multiply(rng.standard_normal(out=normal), _INV_SQRT2, out=part)
    for part, before in ((second.real, first.real), (second.imag, first.imag)):
        np.multiply(rng.standard_normal(out=normal), _INV_SQRT2, out=part)
        part *= scale
        part += np.multiply(before, rho, out=normal)
    return gains


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
    if interferers == 1:
        return rng.standard_exponential((count, antennas))
    return _sum_interferers(rng.standard_exponential((count, antennas, interferers)))


def _power_rows(cfg, rng, count):
    """Desired powers of `count` blocks, and their interference powers by row slice.

    Returns the (count, antennas) desired powers and an iterator of
    (rows, interference powers of those rows). Independent interferers are
    drawn as the iterator advances, after the desired powers, as one fill
    would draw them. A correlated pair draws each interferer over all rows,
    so its interference is drawn in full up front and handed out in slices.
    """
    antennas, interferers = cfg.antennas, cfg.interferers
    if cfg.rho > 0.0:
        # one gains buffer serves every pair, and one power buffer holds each
        # interferer pair's power and, before it, the pair's normal draws
        power = np.empty((count, 2))
        scratch = power.reshape(-1)[:count]
        gains = _correlated_pair_gains(rng, count, cfg.rho, scratch=scratch)
        desired = np.abs(gains)
        np.square(desired, out=desired)
        interference = np.zeros((count, 2))
        for _ in range(interferers):
            _correlated_pair_gains(rng, count, cfg.rho, out=gains, scratch=scratch)
            interference += np.square(np.abs(gains, out=power), out=power)
        rows = _row_slices(count, _SLICE // 2)
        return desired, ((span, interference[span]) for span in rows)
    if cfg.fading.is_rayleigh_equivalent:
        desired = rng.standard_exponential((count, antennas))
    else:
        m = cfg.fading.m
        desired = rng.gamma(m, 1.0 / m, (count, antennas))
    rows = _row_slices(count, max(1, _SLICE // (antennas * interferers)))
    return desired, ((span, _interference_power(rng, span.stop - span.start, antennas,
                                                interferers)) for span in rows)


def draw_channels(cfg, rng, count):
    """Draw `count` fading blocks of per-antenna powers.

    Desired powers follow cfg.fading (unit mean); each interferer
    contributes a unit-mean exponential power, summed per antenna. With
    cfg.rho > 0 the two antennas' gains form correlated complex-normal
    pairs, for the desired user and every interferer alike: the antenna
    spacing correlates every signal that reaches the pair.

    Args:
        cfg: receiver configuration.
        rng: numpy Generator to consume.
        count: number of fading blocks.

    Returns:
        ChannelDraw of shape (count, cfg.antennas) arrays.
    """
    _check_config(cfg)
    desired, slices = _power_rows(cfg, rng, count)
    interference = np.empty(desired.shape)
    for rows, part in slices:
        interference[rows] = part
    return ChannelDraw(desired, interference)


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


# the worker thread and its job queue, started by the first estimate that
# draws a chunk ahead; every job carries its own reply queue, so callers on
# different threads only share the worker's time, never their results
_worker = None
_worker_lock = threading.Lock()


def _work(jobs):
    while True:
        job, reply = jobs.get()
        try:
            reply.put((job(), None))
        except BaseException as error:  # re-raised on the caller by _collect
            reply.put((None, error))


def _submit(job):
    """Run job() on the worker thread; returns the queue its outcome goes to."""
    global _worker
    with _worker_lock:
        # a forked child inherits the record of a thread it does not have
        if _worker is None or not _worker[0].is_alive():
            jobs = queue.SimpleQueue()
            thread = threading.Thread(target=_work, args=(jobs,), daemon=True,
                                      name="scevm-chunk-ahead")
            thread.start()
            _worker = thread, jobs
        reply = queue.SimpleQueue()
        _worker[1].put((job, reply))
    return reply


def _collect(stream, rules, wanted, chunk_values, reduce, failure, ahead=None):
    """The chunk loop shared by both estimators.

    Chunk i is drawn once, by chunk_values(rng, active rules) from the
    (stream, i) generator, which returns one value per block for each active
    rule, in order. Non-finite values are skipped and replaced by later
    ones, and reduce(kept values) is stored. A rule stops taking chunks once
    it holds `wanted` values, so each rule's result is the one a single-rule
    run gives. NumericalError (message `failure`) is raised once a rule has
    rejected more than 1% of `wanted`.

    With `ahead`, the number of blocks in a chunk, chunk i+1 is drawn on the
    worker thread while the caller handles chunk i, whenever every rule
    still taking chunks would fall short of `wanted` even if it kept all of
    chunk i. The keep-finite and reduce steps run on the caller in chunk
    order, so the results are the serial ones; an exception raised on the
    worker is raised here.

    Returns:
        {rule: (list of reduce() results in chunk order, rejected count)}.
    """
    kept = dict.fromkeys(rules, 0)
    rejected = dict.fromkeys(rules, 0)
    parts = {rule: [] for rule in rules}

    def values_of(chunk, active):
        return chunk_values(_chunk_rng(stream, chunk), active)

    chunk = 0
    drawn_ahead = None  # (rules, reply queue) of the next chunk, on the worker
    try:
        while any(count < wanted for count in kept.values()):
            if drawn_ahead is not None:
                active, reply = drawn_ahead
                drawn_ahead = None
                selected, error = reply.get()
                if error is not None:
                    raise error
            else:
                active = [rule for rule in rules if kept[rule] < wanted]
                if ahead is not None and all(kept[rule] + ahead < wanted for rule in active):
                    drawn_ahead = active, _submit(
                        functools.partial(values_of, chunk + 1, active))
                selected = values_of(chunk, active)
            for rule, values in zip(active, selected):
                need = wanted - kept[rule]
                # a zero or underflowed selected desired gain makes the value
                # non-finite; such blocks are skipped and replaced by later ones
                finite = np.isfinite(values)
                if finite.all():
                    values = values[:need]
                else:
                    finite = np.flatnonzero(finite)
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
            # free this chunk's values before the next chunk is drawn
            del selected, values
            chunk += 1
    finally:
        # leave no chunk running once the caller has an answer or an error
        if drawn_ahead is not None:
            drawn_ahead[1].get()
    return {rule: (parts[rule], rejected[rule]) for rule in rules}


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


def _power_values(cfg, rng, rules):
    """One chunk's sqrt(interference / desired) at the kept antenna, per rule."""
    desired, slices = _power_rows(cfg, rng, CHUNK)
    values = [np.empty(CHUNK) for _ in rules]
    for rows, interference in slices:
        for rule, out in zip(rules, values):
            _kept_ratio(desired[rows], interference, rule, out[rows])
    return values


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
    rules = _check_rules(cfg, rules)
    samples = check_count(samples, "samples", 2)

    def reduce(values):
        return float(values.sum()), float(np.square(values).sum())

    collected = _collect(
        derive_seed(seed, "power"), rules, samples, functools.partial(_power_values, cfg),
        reduce, "{rejected} draws with zero selected desired power while collecting "
        "{wanted}; the configuration is too degenerate to average", ahead=CHUNK)
    estimates = {}
    for rule, (sums, rejected) in collected.items():
        total = math.fsum(chunk_sum for chunk_sum, _ in sums)
        square_total = math.fsum(chunk_square for _, chunk_square in sums)
        mean = total / samples
        variance = max(0.0, (square_total - samples * mean * mean) / (samples - 1))
        estimates[rule] = EvmEstimate(mean=mean, std_error=math.sqrt(variance / samples),
                                      samples=samples, rejected=rejected)
    return estimates


def estimate_evm(cfg, samples, seed=DEFAULT_SEED):
    """estimate_evm_rules for cfg.rule alone; returns its EvmEstimate."""
    _check_config(cfg)
    return estimate_evm_rules(cfg, (cfg.rule,), samples, seed)[cfg.rule]


def _draw_gains(cfg, rng, count):
    # complex version of draw_channels for the waveform path
    antennas, interferers = cfg.antennas, cfg.interferers
    if cfg.rho > 0.0:
        gains = [_correlated_pair_gains(rng, count, cfg.rho) for _ in range(interferers + 1)]
        return gains[0], np.stack(gains[1:], axis=2)
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


def _symbol_evms(cfg, points, slots, per_chunk, rng, rules):
    """One chunk of `per_chunk` blocks: the per-block EVM under each rule.

    The stream holds the gains, then every block's data indices, then every
    block's interferer indices.
    """
    step = max(1, _SLICE // slots)
    desired_gain, interferer_gain = _draw_gains(cfg, rng, per_chunk)
    data = _symbol_indices(rng, points.size, (per_chunk, slots), step)
    noise = _symbol_indices(rng, points.size, (per_chunk, cfg.interferers, slots), step)
    powers = (np.square(np.abs(desired_gain)),
              _sum_interferers(np.square(np.abs(interferer_gain))))
    kept = [select_antenna(*powers, rule) for rule in rules]
    evms = [np.empty(per_chunk) for _ in rules]
    blocks = np.arange(per_chunk)
    for rows in _row_slices(per_chunk, step):
        # intp indices gather about three times faster than uint8 ones
        sent = points[data[rows].astype(np.intp)]
        interfering = points[noise[rows].astype(np.intp)]
        # each block's EVM depends on its own row alone
        for idx, evm in zip(kept, evms):
            h0 = desired_gain[blocks[rows], idx[rows]][:, None]
            hj = interferer_gain[blocks[rows], idx[rows], :]
            # received / h0 - sent, formed in place
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                error = h0 * sent
                error += np.einsum("bj,bjs->bs", hj, interfering)
                np.divide(error, h0, out=error)
                error -= sent
                evm[rows] = np.sqrt(np.square(np.abs(error)).mean(axis=1))
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
    except KeyError:
        raise ConfigError(
            f"unknown constellation {constellation!r}; "
            f"choose from {sorted(CONSTELLATIONS)}") from None
    per_chunk = max(1, _SYMBOL_CHUNK_SYMBOLS // slots)
    collected = _collect(
        derive_seed(seed, "symbol", constellation, slots), rules, blocks,
        functools.partial(_symbol_evms, cfg, points, slots, per_chunk), lambda evms: evms,
        "{rejected} blocks with a zero selected gain while collecting {wanted}",
        ahead=per_chunk)
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
