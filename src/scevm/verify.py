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
both rules. The grid's estimates are drawn as one plan of chunks, shared
out between two threads; a grid re-run is per rule.
"""

import math
from dataclasses import dataclass, replace

from . import analytic
from .analytic import analytic_formula
from .model import Fading, SelectionRule, SystemConfig, check_seed
from .simulate import (
    DEFAULT_SEED,
    derive_seed,
    estimate_evm,
    estimate_evm_batch,
    estimate_evm_symbol_level_rules,
)
from .sweep import SweepRow, cell_seed

_ANCHOR_TOL = 1e-10
_Z_LIMIT = 3.0


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
        for antennas in (1, 2, 3):
            for interferers in (1, 2, 4):
                checks.append(_close(
                    f"defining-integral {rule.value} L={antennas} M={interferers}",
                    analytic.evm_from_sir_cdf(SystemConfig(antennas, interferers, rule)),
                    closed_form(antennas, interferers), 1e-7))
    return checks


def reduction_checks():
    """Each general result against the special case it must contain."""
    checks = []
    for antennas in (1, 2, 3, 4):
        checks.append(_close(
            f"reduction nakagami-sir m=1 L={antennas}",
            analytic_formula(SystemConfig(antennas, 2, SelectionRule.MAX_SIR,
                                          Fading.nakagami(1.0))),
            analytic.evm_max_sir_rayleigh(antennas, 2), 1e-6))
    for interferers in (1, 2, 4):
        checks.append(_close(
            f"reduction nakagami-signal m=1 M={interferers}",
            analytic_formula(SystemConfig(2, interferers, SelectionRule.MAX_SIGNAL,
                                          Fading.nakagami(1.0))),
            analytic.evm_max_signal_rayleigh(2, interferers), 1e-8))
    checks.append(_close(
        "reduction correlated-sir rho=0",
        analytic_formula(SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.0)),
        analytic.evm_max_sir_rayleigh(2, 1), 1e-6))
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


def mc_grid(samples, seed=DEFAULT_SEED):
    """Monte Carlo z test of every grid configuration under each of its rules.

    A point failing |z| <= 3 is granted one deterministic re-run under a
    derived fresh seed; 31 three-sigma tests are expected to trip roughly
    once per ten grids, so a single honest retry keeps the grid usable
    without masking real disagreement. At L m <= 1 a draw has infinite
    variance, so z is uncalibrated; those checks say so in their detail. A
    configuration with both rules and at least two antennas also checks
    that max-SIR beats max-signal on its shared draws, before any re-run.

    Returns:
        (checks, rows): CheckResults including draw-by-draw rule ordering,
        and SweepRows for CSV emission.
    """
    checks = []
    rows = []
    cells = _grid_cells()
    # every cell's estimates come from one plan; a re-run is a single estimate
    batch = estimate_evm_batch([(cell, rules, samples, cell_seed(seed, cell))
                                for cell, rules in cells])
    for (cell, rules), estimates in zip(cells, batch):
        antennas, interferers, fading, rho = (cell.antennas, cell.interferers,
                                              cell.fading, cell.rho)
        where = (f"L={antennas} M={interferers} {fading.kind} m={fading.m:g} "
                 f"rho={rho:g}")
        base_seed = cell_seed(seed, cell)
        for rule, estimate in estimates.items():
            cfg = replace(cell, rule=rule)
            exact = analytic_formula(cfg)
            z = (estimate.mean - exact) / estimate.std_error
            retried = False
            if abs(z) > _Z_LIMIT:
                retried = True
                estimate = estimate_evm(cfg, samples,
                                        seed=derive_seed(base_seed, "retry"))
                z = (estimate.mean - exact) / estimate.std_error
            detail = (f"exact {exact:.9g}, mc {estimate.mean:.9g} "
                      f"+- {estimate.std_error:.2g}, z {z:+.2f}")
            if retried:
                detail += " (after one re-run)"
            if antennas * fading.m <= 1.0:
                detail += " (infinite variance: L*m <= 1)"
            checks.append(CheckResult(f"grid {rule.value} {where}",
                                      abs(z) <= _Z_LIMIT, detail))
            rows.append(SweepRow(
                antennas=antennas, interferers=interferers, rule=rule.value,
                shape=fading.m, rho=rho, analytic=exact,
                mc_mean=estimate.mean, mc_stderr=estimate.std_error,
                z_score=z, status="ok"))
        # one antenna leaves nothing to select, so the rules tie
        if antennas >= 2 and len(estimates) == 2:
            sir = estimates[SelectionRule.MAX_SIR].mean
            signal = estimates[SelectionRule.MAX_SIGNAL].mean
            checks.append(CheckResult(
                f"ordering shared-draws {where}", sir < signal,
                f"max_sir {sir:.9g} < max_signal {signal:.9g} "
                f"on identical channel draws"))
    return checks, rows


def symbol_level_checks(slots, blocks, seed=DEFAULT_SEED):
    """Waveform-level estimator against the closed forms at L=2, M=1.

    Both rules demodulate the same drawn gains and symbols.
    """
    exacts = {SelectionRule.MAX_SIR: analytic.evm_max_sir_rayleigh(2, 1),
              SelectionRule.MAX_SIGNAL: analytic.evm_max_signal_rayleigh(2, 1)}
    estimates = estimate_evm_symbol_level_rules(
        SystemConfig(2, 1, SelectionRule.MAX_SIR), tuple(exacts), slots, blocks,
        seed=seed)
    checks = []
    for rule, exact in exacts.items():
        estimate = estimates[rule]
        z = (estimate.mean - exact) / estimate.std_error
        checks.append(CheckResult(
            f"symbol-level {rule.value} L=2 M=1",
            abs(z) <= _Z_LIMIT,
            f"exact {exact:.9g}, waveform mc {estimate.mean:.9g} "
            f"+- {estimate.std_error:.2g}, z {z:+.2f}"))
    return checks


def run_verification(samples=1000000, seed=DEFAULT_SEED, slots=2000, blocks=2000):
    """Run every verification layer and collect the verdict.

    Args:
        samples: Monte Carlo draws per grid point.
        seed: base seed; identical arguments give identical reports.
        slots: symbols per fading block for the waveform check.
        blocks: fading blocks for the waveform check.

    Returns:
        VerificationReport with all checks, the grid rows, and the
        overall pass flag.
    """
    seed = check_seed(seed)  # before the checks that take no seed run
    checks = []
    checks.extend(anchor_checks())
    checks.extend(reduction_checks())
    checks.extend(quadrature_identity_checks())
    checks.extend(monotonicity_checks())
    checks.extend(rule_ordering_checks())
    checks.extend(asymptotic_checks())
    grid_checks, rows = mc_grid(samples, seed=seed)
    checks.extend(grid_checks)
    checks.extend(symbol_level_checks(slots, blocks, seed=seed))
    return VerificationReport(checks=tuple(checks), rows=tuple(rows),
                              passed=all(c.passed for c in checks))
