"""Parameter sweeps comparing closed-form EVM against Monte Carlo.

A sweep varies one axis of a base configuration under one or more
selection rules. At each point it evaluates whichever closed form covers
each rule, and draws the channels once for all of the point's rules,
with a seed derived from everything except the rule, so the rules are
compared on identical channels. It reports one row per point and rule,
with a z score. Rows serialize to CSV and to a gnuplot script for quick
looks.
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
    check_count,
    check_seed,
)
from .simulate import DEFAULT_SEED, derive_seed, estimate_evm_batch

SWEEP_AXES = ("L", "M", "m_d", "rho")
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
    samples: int = 200000
    seed: int = DEFAULT_SEED
    rules: tuple = None

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        values = tuple(self.values)
        if not values:
            raise ConfigError("values must be non-empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"values must be strictly increasing, got {values}")
        object.__setattr__(self, "values", values)
        if not isinstance(self.base, SystemConfig):
            raise ConfigError("base must be a SystemConfig")
        object.__setattr__(self, "samples", check_count(self.samples, "samples", 2))
        object.__setattr__(self, "seed", check_seed(self.seed))
        rules = (self.base.rule,) if self.rules is None else tuple(self.rules)
        if (not rules or not all(isinstance(rule, SelectionRule) for rule in rules)
                or len(set(rules)) != len(rules)):
            raise ConfigError(f"rules must be distinct SelectionRules, at least one, "
                              f"got {self.rules!r}")
        object.__setattr__(self, "rules", rules)


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
    if axis == "L":
        return dataclasses.replace(base, antennas=value)
    if axis == "M":
        return dataclasses.replace(base, interferers=value)
    if axis == "m_d":
        return dataclasses.replace(base, fading=Fading.nakagami(value))
    return dataclasses.replace(base, rho=value)


def run_sweep(spec):
    """Evaluate every point of a SweepSpec under each of its rules.

    Points whose configuration is invalid come back as `unsupported` with
    the swept coordinate filled in; points whose EVM is provably infinite
    come back as `diverged` and skip the simulator.  Valid points with no
    closed form, or whose route fails numerically (NumericalError, e.g. a
    tail past the double range just above the divergence boundary), stay
    `ok` with empty analytic and z columns, so the simulator still covers
    them. Coverage and divergence are decided per rule; the rules left to
    simulate share one estimate per point, which gives each rule the bits
    of its own single-rule estimate. The closed forms are evaluated first,
    and then every point's estimate comes from one estimate_evm_batch plan.

    Returns:
        SweepRows, rule-major: every point of rules[0], then of rules[1], ...
    """
    points = []  # per value: (point, {rule: closed form} but the diverged rules)
    for value in spec.values:
        try:
            point = _apply_axis(spec.base, spec.axis, value)
        except (ConfigError, ValueError):
            points.append((None, None))
            continue
        exact = {}
        for rule in spec.rules:
            try:
                exact[rule] = analytic_formula(dataclasses.replace(point, rule=rule))
            except DivergentMomentError:
                pass
            except NumericalError:
                exact[rule] = None
        points.append((point, exact))
    batch = iter(estimate_evm_batch(
        [(point, tuple(exact), spec.samples, cell_seed(spec.seed, point))
         for point, exact in points if exact]))
    rows = {rule: [] for rule in spec.rules}
    for value, (point, exact) in zip(spec.values, points):
        if point is None:
            placeholder = {"L": spec.base.antennas, "M": spec.base.interferers,
                           "m_d": spec.base.fading.m, "rho": spec.base.rho}
            placeholder[spec.axis] = value
            for rule in spec.rules:
                rows[rule].append(SweepRow(
                    antennas=placeholder["L"], interferers=placeholder["M"],
                    rule=rule.value, shape=placeholder["m_d"],
                    rho=placeholder["rho"], status=STATUS_UNSUPPORTED))
            continue
        estimates = next(batch) if exact else {}
        for rule in spec.rules:
            row = dict(antennas=point.antennas, interferers=point.interferers,
                       rule=rule.value, shape=point.fading.m, rho=point.rho)
            if rule not in estimates:
                rows[rule].append(SweepRow(**row, status=STATUS_DIVERGED))
                continue
            estimate = estimates[rule]
            z_score = None
            if exact[rule] is not None and estimate.std_error > 0.0:
                z_score = (estimate.mean - exact[rule]) / estimate.std_error
            rows[rule].append(SweepRow(
                **row, analytic=exact[rule], mc_mean=estimate.mean,
                mc_stderr=estimate.std_error, z_score=z_score))
    return [row for rule in spec.rules for row in rows[rule]]


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".12g")


def emit_csv(rows):
    """Serialize sweep rows to CSV text with a fixed header and '\\n' endings."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(v) for v in (
            row.antennas, row.interferers, row.rule, row.shape, row.rho,
            row.analytic, row.mc_mean, row.mc_stderr, row.z_score, row.status)))
    return "\n".join(lines) + "\n"


_AXIS_COLUMN = {"L": 1, "M": 2, "m_d": 4, "rho": 5}


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
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("specs must be non-empty")
    axes = {spec.axis for spec in specs}
    if len(axes) != 1:
        raise ConfigError(f"specs plot on a common axis, got {sorted(axes)}")
    axis = specs[0].axis
    column = _AXIS_COLUMN[axis]
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
            clauses.append(f"  '{csv_name}' {span} using {column}:6 "
                           f"with lines title '{_curve_label(spec, rule)}'")
            clauses.append(f"  '{csv_name}' {span} using {column}:7:8 "
                           f"with yerrorbars notitle")
            first_row = last_row + 1
    lines.append(", \\\n".join(clauses))
    return "\n".join(lines) + "\n"


def preset(name, samples=200000, seed=DEFAULT_SEED):
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
