"""Self-contained verification of every closed form in this package.

Checks are layered from cheap to expensive: exact anchor values, closed
form against closed form where parameter ranges overlap, closed form
against direct quadrature of the defining integral, shape properties
(monotonicity, rule ordering, the many-interferer asymptote), then a
Monte Carlo grid, and finally the symbol-level simulator that re-derives
EVM from demodulated waveforms rather than channel powers. The grid has
no rho = 1 cell: evm_fully_correlated is checked only by the monotonicity
and asymptote checks.

Each grid cell is one configuration with every rule it checks. Its seed
ignores the rule, each chunk of draws is generated once and shared by the
cell's rules, and a cell with both rules and at least two antennas checks
that max-SIR beats max-signal on those draws, not merely on average. The
symbol-level check likewise demodulates one set of gains and symbols under
both rules. The grid's rows come from sweep.evaluate_cells, the one path
that also evaluates every sweep point: the closed forms, then all cells'
estimates, each cell on its own seed, as one plan of chunks shared out
between two threads. Grid and waveform checks alike print a sweep.cell_row
row through one |z| <= 3 line, and a failing row gets one re-run of its
rule alone on a derived seed (33 z checks trip on about 8.5% of seeds).
"""

import math
from dataclasses import dataclass

from . import analytic
from .analytic import analytic_formula
from .model import Fading, SelectionRule, SystemConfig, check_count, check_seed
from .simulate import DEFAULT_SEED, derive_seed, estimate_evm_symbol_level_rules
from .sweep import cell_row, cell_seed, evaluate_cells

_ANCHOR_TOL = 1e-10
_Z_LIMIT = 3.0
_SYMBOL_SLOTS = 2000   # waveform check: data symbols per fading block
_SYMBOL_BLOCKS = 2000  # waveform check: fading blocks per rule
DEFAULT_GRID_SAMPLES = 1000000  # Monte Carlo draws per grid cell


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    rows: tuple
    passed: bool


def _close(name, got, want, tol):
    err = abs(got - want)
    return CheckResult(name, err <= tol,
                       f"got {got:.12g}, want {want:.12g}, |err| {err:.3g} <= {tol:g}")


def anchor_checks():
    """Closed forms at parameters where the EVM is an exact constant."""
    quarter = math.pi / 4.0
    return [
        _close("anchor max_sir L=1 M=1",
               analytic.evm_max_sir_rayleigh(1, 1), 2.0 * quarter, _ANCHOR_TOL),
        _close("anchor max_sir L=2 M=1",
               analytic.evm_max_sir_rayleigh(2, 1), quarter, _ANCHOR_TOL),
        _close("anchor max_signal L=1 M=1",
               analytic.evm_max_signal_rayleigh(1, 1), 2.0 * quarter, _ANCHOR_TOL),
        _close("anchor max_signal L=2 M=1",
               analytic.evm_max_signal_rayleigh(2, 1),
               math.pi * (1.0 - 1.0 / math.sqrt(2.0)), _ANCHOR_TOL),
    ]


def quadrature_identity_checks():
    """Alternating-sum closed forms against their defining integral.

    The EVM equals the integral over x of the selected-SIR CDF at x^-2;
    evaluating that integral numerically, as analytic_formula does for
    independent antennas, exercises none of the term rearrangement behind
    the closed forms.
    """
    closed_forms = {SelectionRule.MAX_SIR: analytic.evm_max_sir_rayleigh,
                    SelectionRule.MAX_SIGNAL: analytic.evm_max_signal_rayleigh}
    checks = []
    for rule, closed_form in closed_forms.items():
        for antennas in (1, 2, 3, 4):
            for interferers in (1, 2, 4):
                checks.append(_close(
                    f"defining-integral {rule.value} L={antennas} M={interferers}",
                    analytic.evm_from_sir_cdf(SystemConfig(antennas, interferers, rule)),
                    closed_form(antennas, interferers), 1e-8))
    return checks


def reduction_checks():
    """Each general result against the special case it must contain, where
    the two sides run different code. analytic_formula at rho = 0 or at
    Nakagami m = 1 evaluates the Rayleigh defining integral again, so the
    correlated max-SIR side runs at rho = 1e-9, on the pair's closed-form CDF.
    """
    checks = [_close(
        "reduction correlated-sir rho=1e-9",
        analytic_formula(SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=1e-9)),
        analytic.evm_max_sir_rayleigh(2, 1), 1e-6)]
    for interferers in (1, 2, 4):
        checks.append(_close(
            f"reduction correlated-signal rho=0 M={interferers}",
            analytic.evm_max_signal_correlated(0.0, interferers),
            analytic.evm_max_signal_rayleigh(2, interferers), 1e-6))
    return checks


def _strict(name, values, direction):
    ok = all(b < a if direction == "decreasing" else b > a
             for a, b in zip(values, values[1:]))
    listing = ", ".join(f"{v:.6g}" for v in values)
    return CheckResult(name, ok, f"{direction}: {listing}")


def monotonicity_checks():
    """EVM must fall with diversity and rise with interference and correlation."""
    checks = []
    for interferers in (1, 2):
        checks.append(_strict(
            f"monotone max_sir antennas M={interferers}",
            [analytic.evm_max_sir_rayleigh(l, interferers) for l in range(1, 7)],
            "decreasing"))
        checks.append(_strict(
            f"monotone max_signal antennas M={interferers}",
            [analytic.evm_max_signal_rayleigh(l, interferers) for l in range(1, 7)],
            "decreasing"))
    for antennas in (1, 2):
        checks.append(_strict(
            f"monotone max_sir interferers L={antennas}",
            [analytic.evm_max_sir_rayleigh(antennas, m) for m in range(1, 6)],
            "increasing"))
        checks.append(_strict(
            f"monotone max_signal interferers L={antennas}",
            [analytic.evm_max_signal_rayleigh(antennas, m) for m in range(1, 6)],
            "increasing"))
    checks.append(_strict(
        "monotone nakagami-sir antennas m=0.8",
        [analytic_formula(SystemConfig(l, 2, SelectionRule.MAX_SIR, Fading.nakagami(0.8)))
         for l in range(1, 5)],
        "decreasing"))
    checks.append(_strict(
        "monotone nakagami-sir shape L=2",
        [analytic_formula(SystemConfig(2, 2, SelectionRule.MAX_SIR, Fading.nakagami(m)))
         for m in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)],
        "decreasing"))
    checks.append(_strict(
        "monotone nakagami-signal shape M=1",
        [analytic_formula(SystemConfig(2, 1, SelectionRule.MAX_SIGNAL, Fading.nakagami(m)))
         for m in (0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)],
        "decreasing"))
    checks.append(_strict(
        "monotone nakagami-signal interferers m=1.5",
        [analytic_formula(SystemConfig(2, m, SelectionRule.MAX_SIGNAL, Fading.nakagami(1.5)))
         for m in range(1, 5)],
        "increasing"))
    rhos = (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 0.95, 0.99)
    checks.append(_strict(
        "monotone correlated-sir rho",
        [analytic_formula(SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=r)) for r in rhos],
        "increasing"))
    checks.append(_strict(
        "monotone correlated-signal rho M=1",
        [analytic.evm_max_signal_correlated(r, 1) for r in rhos], "increasing"))
    checks.append(_strict(
        "monotone fully-correlated interferers",
        [analytic.evm_fully_correlated(m) for m in (1, 2, 4, 8)], "increasing"))
    return checks


def rule_ordering_checks():
    """Max-SIR selection can only beat max-signal selection, never lose."""
    checks = []
    for antennas in (2, 3, 4, 6):
        for interferers in (1, 2, 4):
            sir = analytic.evm_max_sir_rayleigh(antennas, interferers)
            signal = analytic.evm_max_signal_rayleigh(antennas, interferers)
            checks.append(CheckResult(
                f"ordering analytic L={antennas} M={interferers}",
                sir < signal, f"max_sir {sir:.9g} < max_signal {signal:.9g}"))
    return checks


def asymptotic_checks():
    """Fully correlated EVM approaches sqrt(pi M) from below at rate 1/(8M)."""
    checks = []
    for interferers in (16, 64, 256):
        value = analytic.evm_fully_correlated(interferers)
        deviation = abs(value / math.sqrt(math.pi * interferers) - 1.0)
        bound = 1.0 / (8.0 * interferers) + 1e-3
        checks.append(CheckResult(
            f"asymptote fully-correlated M={interferers}",
            deviation <= bound,
            f"relative deviation {deviation:.3g} <= {bound:.3g}"))
    return checks


def _grid_cells():
    """(configuration, rules) per grid cell; the configuration has the first rule."""
    both = (SelectionRule.MAX_SIR, SelectionRule.MAX_SIGNAL)
    cells = []
    for antennas in (1, 2, 4):
        for interferers in (1, 2, 4):
            cells.append((antennas, interferers, Fading.rayleigh(), 0.0, both))
    # max-SIR only: a max-signal twin would add a z test at L m = 1 (infinite variance)
    cells.append((2, 2, Fading.nakagami(0.5), 0.0, (SelectionRule.MAX_SIR,)))
    for m in (1.0, 2.0, 3.0):
        cells.append((2, 2, Fading.nakagami(m), 0.0, both))
    for rho in (0.3, 0.6, 0.9):
        cells.append((2, 1, Fading.rayleigh(), rho, both))
    return [(SystemConfig(antennas, interferers, rules[0], fading, rho), rules)
            for antennas, interferers, fading, rho, rules in cells]


def _z_check(name, row, label, rerun, note=""):
    # the one agreement line of a SweepRow scored by sweep.cell_row: a row
    # failing |z| <= 3 is replaced by rerun(), its one re-run on a derived seed
    if abs(row.z_score) > _Z_LIMIT:
        row, note = rerun(), " (after one re-run)" + note
    return row, CheckResult(name, abs(row.z_score) <= _Z_LIMIT,
                            f"exact {row.analytic:.9g}, {label} {row.mc_mean:.9g} "
                            f"+- {row.mc_stderr:.2g}, z {row.z_score:+.2f}{note}")


def mc_grid(samples, seed=DEFAULT_SEED):
    """Monte Carlo z test of every grid configuration under each of its rules.

    A point failing |z| <= 3 is granted one deterministic re-run under a
    derived fresh seed, as a waveform check is; the report's 33 three-sigma
    tests trip on about 8.5% of seeds (1 - 0.9973^33), so a single honest
    retry keeps verify usable without masking real disagreement. At L m <= 1
    a draw has infinite variance, so z is uncalibrated; those checks say so
    in their detail. A configuration with both rules and at least two
    antennas also checks that max-SIR beats max-signal on its shared draws,
    before any re-run.

    Returns:
        (checks, rows): CheckResults including draw-by-draw rule ordering,
        and SweepRows for CSV emission.
    """
    checks = []
    rows = []
    requests = [(cfg, rules, samples, cell_seed(seed, cfg)) for cfg, rules in _grid_cells()]
    for (cell, _, _, _), cell_rows in zip(requests, evaluate_cells(requests)):
        where = (f"L={cell.antennas} M={cell.interferers} {cell.fading.kind} "
                 f"m={cell.fading.m:g} rho={cell.rho:g}")
        retry = derive_seed(cell_seed(seed, cell), "retry")
        note = " (infinite variance: L*m <= 1)" if cell.antennas * cell.fading.m <= 1.0 else ""
        for rule, row in cell_rows.items():
            row, check = _z_check(
                f"grid {rule.value} {where}", row, "mc",
                lambda: evaluate_cells([(cell, (rule,), samples, retry)])[0][rule], note)
            checks.append(check)
            rows.append(row)
        # one antenna leaves nothing to select, so the rules tie
        if cell.antennas >= 2 and len(cell_rows) == 2:
            sir = cell_rows[SelectionRule.MAX_SIR].mc_mean
            signal = cell_rows[SelectionRule.MAX_SIGNAL].mc_mean
            checks.append(CheckResult(
                f"ordering shared-draws {where}", sir < signal,
                f"max_sir {sir:.9g} < max_signal {signal:.9g} "
                f"on identical channel draws"))
    return checks, rows


def symbol_level_checks(seed=DEFAULT_SEED):
    """Waveform-level estimator against the closed forms at L=2, M=1.

    Both rules demodulate the same drawn gains and symbols.
    """
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR)
    exacts = {SelectionRule.MAX_SIR: analytic.evm_max_sir_rayleigh(2, 1),
              SelectionRule.MAX_SIGNAL: analytic.evm_max_signal_rayleigh(2, 1)}
    estimates = estimate_evm_symbol_level_rules(
        cfg, tuple(exacts), _SYMBOL_SLOTS, _SYMBOL_BLOCKS, seed=seed)
    retry = derive_seed(seed, "retry")
    return [_z_check(
        f"symbol-level {rule.value} L=2 M=1", cell_row(cfg, rule, exact, estimates[rule]),
        "waveform mc",
        lambda: cell_row(cfg, rule, exact, estimate_evm_symbol_level_rules(
            cfg, (rule,), _SYMBOL_SLOTS, _SYMBOL_BLOCKS, seed=retry)[rule]))[1]
        for rule, exact in exacts.items()]


def run_verification(samples=DEFAULT_GRID_SAMPLES, seed=DEFAULT_SEED):
    """Run every verification layer and collect the verdict.

    Args:
        samples: Monte Carlo draws per grid point; the waveform check's
            size is fixed.
        seed: base seed; identical arguments give identical reports.

    Returns:
        VerificationReport with all checks, the grid rows, and the
        overall pass flag.
    """
    # before the checks that take neither run
    samples, seed = check_count(samples, "samples", 2), check_seed(seed)
    checks = []
    checks.extend(anchor_checks())
    checks.extend(reduction_checks())
    checks.extend(quadrature_identity_checks())
    checks.extend(monotonicity_checks())
    checks.extend(rule_ordering_checks())
    checks.extend(asymptotic_checks())
    grid_checks, rows = mc_grid(samples, seed=seed)
    checks.extend(grid_checks)
    checks.extend(symbol_level_checks(seed=seed))
    return VerificationReport(checks=tuple(checks), rows=tuple(rows),
                              passed=all(c.passed for c in checks))
