"""Parameter sweeps comparing closed-form EVM against Monte Carlo.

A sweep varies one axis of a base configuration under one or more
selection rules. At each point it evaluates whichever closed form covers
each rule, and draws the channels once for all of the point's rules,
with a seed derived from everything except the rule, so the rules are
compared on identical channels. evaluate_cells does this for estimate_evm_batch's
(cfg, rules, samples, seed) requests: sweep points, verify's grid cells and
re-runs, and eval --mc. One row per point and rule, z scored by cell_row.
Rows serialize to CSV, fields in CSV_HEADER order, and to a gnuplot script
whose columns are looked up in that header.
"""

import dataclasses
from dataclasses import dataclass

from .analytic import analytic_formula
from .model import (
    ConfigError,
    DivergentMomentError,
    Fading,
    NumericalError,
    SelectionRule,
    SystemConfig,
    check_config,
)
from .simulate import DEFAULT_SEED, check_request, derive_seed, estimate_evm_batch

# Monte Carlo draws per sweep point, unless a spec or preset says otherwise
DEFAULT_POINT_SAMPLES = 200000

# axis (a CSV column) -> its SweepRow field, also SystemConfig's but for m_d
_AXIS_FIELDS = {"L": "antennas", "M": "interferers", "m_d": "shape", "rho": "rho"}
SWEEP_AXES = tuple(_AXIS_FIELDS)
CSV_HEADER = "L,M,rule,m_d,rho,analytic,mc_mean,mc_stderr,z_score,status"

STATUS_OK = "ok"
STATUS_UNSUPPORTED = "unsupported"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True)
class SweepSpec:
    """Swept curves: an axis, its values, the fixed remainder, and the rules.

    Each rule in `rules` gives one curve; all of them are estimated on the
    same channel draws. `rules` defaults to (base.rule,); when it is given,
    base.rule is ignored.
    """

    axis: str
    values: tuple
    base: SystemConfig
    samples: int = DEFAULT_POINT_SAMPLES
    seed: int = DEFAULT_SEED
    rules: tuple = None

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        values = tuple(self.values)
        if not values:
            raise ConfigError("values must be non-empty")
        if any(not b > a for a, b in zip(values, values[1:])):  # NaN too
            raise ConfigError(f"values must be strictly increasing, got {values}")
        object.__setattr__(self, "values", values)
        check_config(self.base)  # before base.rule is read
        _, rules, samples, seed = check_request(
            (self.base, (self.base.rule,) if self.rules is None else self.rules,
             self.samples, self.seed))
        for name, value in (("rules", rules), ("samples", samples), ("seed", seed)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated sweep point."""

    antennas: int
    interferers: int
    rule: str
    shape: float
    rho: float
    analytic: float = None
    mc_mean: float = None
    mc_stderr: float = None
    z_score: float = None
    status: str = STATUS_OK


def cell_seed(seed, cfg):
    """Per-point seed that deliberately ignores the selection rule.

    Every rule of a sweep point or verification grid cell then sees the
    same channel draws, so one shared-draw estimate serves them all,
    and rule-ordering comparisons hold draw by draw instead of only in
    expectation.
    """
    return derive_seed(seed, cfg.antennas, cfg.interferers,
                       cfg.fading.kind, cfg.fading.m, cfg.rho)


def _apply_axis(base, axis, value):
    if axis == "m_d":
        return dataclasses.replace(base, fading=Fading.nakagami(value))
    return dataclasses.replace(base, **{_AXIS_FIELDS[axis]: value})


def cell_row(cfg, rule, analytic, estimate):
    """The SweepRow of cfg under rule; `diverged` when estimate is None.

    The z score needs both a closed form and a positive standard error.
    """
    row = SweepRow(cfg.antennas, cfg.interferers, rule.value, cfg.fading.m, cfg.rho)
    if estimate is None:
        return dataclasses.replace(row, status=STATUS_DIVERGED)
    scored = analytic is not None and estimate.std_error > 0.0
    return dataclasses.replace(
        row, analytic=analytic, mc_mean=estimate.mean, mc_stderr=estimate.std_error,
        z_score=(estimate.mean - analytic) / estimate.std_error if scored else None)


def evaluate_cells(requests):
    """estimate_evm_batch's (cfg, rules, samples, seed) requests, with closed forms and z.

    Every request is checked by check_request before any closed form. Per
    rule: a provably infinite EVM gives a `diverged` row and no draws; no
    closed form, or a route that fails numerically (NumericalError, e.g. a
    tail past the double range), leaves the analytic and z columns empty.
    The rules left are estimated as one estimate_evm_batch plan, which gives
    each rule the bits of estimate_evm(cfg, samples, seed) under that rule.

    Returns:
        one {rule: SweepRow} per request, in the order of its rules.
    """
    requests = [check_request(request) for request in requests]
    exacts = []  # per request: {rule: closed form or None}, but the diverged rules
    for cfg, rules, _, _ in requests:
        exact = {}
        for rule in rules:
            try:
                exact[rule] = analytic_formula(dataclasses.replace(cfg, rule=rule))
            except DivergentMomentError:
                pass
            except NumericalError:
                exact[rule] = None
        exacts.append(exact)
    batch = iter(estimate_evm_batch(
        [(cfg, tuple(exact), samples, seed)
         for (cfg, _, samples, seed), exact in zip(requests, exacts) if exact]))
    evaluated = []
    for (cfg, rules, _, _), exact in zip(requests, exacts):
        estimates = next(batch) if exact else {}
        evaluated.append({rule: cell_row(cfg, rule, exact.get(rule), estimates.get(rule))
                          for rule in rules})
    return evaluated


def run_sweep(spec):
    """Evaluate every point of a SweepSpec under each of its rules.

    Points whose configuration is invalid come back as `unsupported` with
    the swept coordinate filled in; evaluate_cells evaluates the others, all
    points in one plan.

    Returns:
        SweepRows, rule-major: every point of rules[0], then of rules[1], ...
    """
    points = []
    for value in spec.values:
        try:
            points.append(_apply_axis(spec.base, spec.axis, value))
        except (ConfigError, ValueError):
            points.append(None)
    evaluated = iter(evaluate_cells([(point, spec.rules, spec.samples, cell_seed(spec.seed, point))
                                     for point in points if point is not None]))
    cells = [next(evaluated) if point is not None else _unsupported(spec, value)
             for value, point in zip(spec.values, points)]
    return [cell[rule] for rule in spec.rules for cell in cells]


def _unsupported(spec, value):
    at = {_AXIS_FIELDS[spec.axis]: value, "status": STATUS_UNSUPPORTED}
    return {rule: dataclasses.replace(cell_row(spec.base, rule, None, None), **at)
            for rule in spec.rules}


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".12g")


def emit_csv(rows):
    """CSV text: CSV_HEADER, then each row's fields in order, with '\\n' endings."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(v) for v in dataclasses.astuple(row)))
    return "\n".join(lines) + "\n"


def _curve_label(spec, rule):
    parts = [rule.value]
    if spec.axis != "L" and spec.base.antennas != 2:
        parts.append(f"L={spec.base.antennas}")
    if spec.axis != "M":
        parts.append(f"M={spec.base.interferers}")
    if spec.axis != "m_d" and spec.base.fading.kind == "nakagami":
        parts.append(f"m={spec.base.fading.m:g}")
    if spec.axis != "rho" and spec.base.rho > 0.0:
        parts.append(f"rho={spec.base.rho:g}")
    return " ".join(parts)


def emit_plot_script(specs, csv_name="sweep.csv"):
    """Gnuplot commands for the CSV produced from `specs` by emit_csv.

    Assumes the CSV concatenates the specs' rows in order. Each (spec,
    rule) curve becomes an analytic line plus Monte Carlo error bars.
    csv_name is quoted as a gnuplot string, so it may hold no quote and no
    line break.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("specs must be non-empty")
    if any(char in csv_name for char in "'\n\r"):
        raise ConfigError(f"csv_name {csv_name!r} cannot be quoted in a gnuplot script")
    axes = {spec.axis for spec in specs}
    if len(axes) != 1:
        raise ConfigError(f"specs plot on a common axis, got {sorted(axes)}")
    axis = specs[0].axis
    # gnuplot counts CSV columns from 1
    x, exact, mean, stderr = (CSV_HEADER.split(",").index(name) + 1
                              for name in (axis, "analytic", "mc_mean", "mc_stderr"))
    lines = [
        "set datafile separator ','",
        f"set xlabel '{axis}'",
        "set ylabel 'EVM'",
        "set key top left",
        "plot \\",
    ]
    clauses = []
    first_row = 1  # data line 0 is the header
    for spec in specs:
        for rule in spec.rules:
            last_row = first_row + len(spec.values) - 1
            span = f"every ::{first_row}::{last_row}"
            clauses.append(f"  '{csv_name}' {span} using {x}:{exact} "
                           f"with lines title '{_curve_label(spec, rule)}'")
            clauses.append(f"  '{csv_name}' {span} using {x}:{mean}:{stderr} "
                           f"with yerrorbars notitle")
            first_row = last_row + 1
    lines.append(", \\\n".join(clauses))
    return "\n".join(lines) + "\n"


def preset(name, samples=DEFAULT_POINT_SAMPLES, seed=DEFAULT_SEED):
    """Built-in sweep families; returns a list of SweepSpec.

    fig1: EVM against antenna count under max-SIR selection, two
        interferers, desired-channel shapes 0.5, 1, 2.
    fig2: EVM against antenna correlation for both rules, two antennas,
        one interferer; one spec, so the rules share every draw.
    fig3: EVM against the desired-channel shape under max-signal
        selection, two antennas, 1, 2, and 4 interferers.
    """
    if name == "fig1":
        return [SweepSpec(axis="L", values=(1, 2, 3, 4, 5, 6),
                          base=SystemConfig(1, 2, SelectionRule.MAX_SIR,
                                            Fading.nakagami(m)),
                          samples=samples, seed=seed)
                for m in (0.5, 1.0, 2.0)]
    if name == "fig2":
        rhos = (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 0.95, 0.99)
        return [SweepSpec(axis="rho", values=rhos,
                          base=SystemConfig(2, 1, SelectionRule.MAX_SIR),
                          samples=samples, seed=seed,
                          rules=(SelectionRule.MAX_SIR, SelectionRule.MAX_SIGNAL))]
    if name == "fig3":
        shapes = (0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)
        return [SweepSpec(axis="m_d", values=shapes,
                          base=SystemConfig(2, m_count, SelectionRule.MAX_SIGNAL,
                                            Fading.nakagami(1.0)),
                          samples=samples, seed=seed)
                for m_count in (1, 2, 4)]
    raise ConfigError(f"unknown preset {name!r}; choose fig1, fig2, or fig3")
