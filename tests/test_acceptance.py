"""Acceptance gate: every contract-level claim, one pass/fail line each.

Run with -v for the per-criterion verdict lines; each test also prints a
[PASS]/[FAIL] line with the measured numbers.
"""

import hashlib
import time

import pytest

from scevm import analytic
from scevm.model import SelectionRule, SystemConfig
from scevm.simulate import estimate_evm_symbol_level_rules
from scevm.sweep import emit_csv
from scevm.verify import (
    anchor_checks,
    asymptotic_checks,
    mc_grid,
    monotonicity_checks,
    quadrature_identity_checks,
    reduction_checks,
    rule_ordering_checks,
    run_verification,
)

GRID_SAMPLES = 1000000
GRID_SECONDS = 120.0
GRID_SEED = 20260814


def _report(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def grid():
    start = time.perf_counter()
    checks, rows = mc_grid(GRID_SAMPLES, seed=GRID_SEED)
    elapsed = time.perf_counter() - start
    return checks, rows, elapsed


def _family(checks_of, label, seconds=None):
    # one `scevm verify` check family as one criterion: every check passes,
    # within the criterion's time bound when it has one
    start = time.perf_counter()
    checks = checks_of()
    elapsed = time.perf_counter() - start
    failures = [c.name for c in checks if not c.passed]
    ok = not failures and (seconds is None or elapsed < seconds)
    _report(ok, label,
            f"{len(checks)} checks, {elapsed:.3f}s"
            + ("" if seconds is None else f" < {seconds:g}s")
            + (f"; failures: {failures}" if failures else ""))


def test_exact_anchor_values():
    _family(anchor_checks, "exact anchors", 1.0)


def test_defining_integral_agreement():
    # the closed forms under both rules against direct quadrature of the
    # tail-probability integral they were derived from
    _family(quadrature_identity_checks, "defining-integral agreement", 5.0)


def test_reduction_web():
    _family(reduction_checks, "reduction web", 10.0)


def test_monte_carlo_grid(grid):
    checks, _, elapsed = grid
    z_checks = [c for c in checks if c.name.startswith("grid ")]
    failures = [c for c in z_checks if not c.passed]
    retried = sum(1 for c in z_checks if "re-run" in c.detail)
    ok = not failures and elapsed < GRID_SECONDS
    _report(ok, "simulation grid",
            f"{len(z_checks)} points at {GRID_SAMPLES} draws, |z| <= 3 "
            f"({retried} used the single allowed re-run), "
            f"{elapsed:.1f}s < {GRID_SECONDS:.0f}s"
            + (f"; failures: {[c.name for c in failures]}" if failures else ""))


def test_rule_ordering(grid):
    checks, _, _ = grid
    analytic_checks = rule_ordering_checks()
    shared = [c for c in checks if c.name.startswith("ordering shared-draws")]
    bad = [c for c in analytic_checks + shared if not c.passed]
    names = [c.name for c in checks]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    # one shared-draw comparison per both-rule configuration with L >= 2
    ok = not bad and not duplicates and len(shared) == 12
    _report(ok, "selection rule ordering",
            f"{len(analytic_checks)} closed-form and {len(shared)} of 12 shared-draw "
            f"comparisons, max-SIR always at or below max-signal"
            + (f"; failures: {[c.name for c in bad]}" if bad else "")
            + (f"; duplicated grid check names: {duplicates}" if duplicates else ""))


def test_monotonicity():
    checks = monotonicity_checks()
    bad = [c for c in checks if not c.passed]
    _report(not bad, "strict monotonicity",
            f"{len(checks)} parameter directions (antennas and shape down, "
            f"interferers and correlation up)"
            + (f"; failures: {[c.name for c in bad]}" if bad else ""))


def test_no_selection_asymptote():
    _family(asymptotic_checks, "many-interferer asymptote")


def test_symbol_level_full_size():
    slots, blocks = 10000, 10000
    start = time.perf_counter()
    exacts = {SelectionRule.MAX_SIR: analytic.evm_max_sir_rayleigh(2, 1),
              SelectionRule.MAX_SIGNAL: analytic.evm_max_signal_rayleigh(2, 1)}
    # both rules demodulate one set of drawn gains and symbols
    estimates = estimate_evm_symbol_level_rules(
        SystemConfig(2, 1, SelectionRule.MAX_SIR), tuple(exacts), slots=slots,
        blocks=blocks, seed=GRID_SEED)
    results = [(rule.value, (estimates[rule].mean - exact) / estimates[rule].std_error)
               for rule, exact in exacts.items()]
    elapsed = time.perf_counter() - start
    ok = all(abs(z) <= 3.0 for _, z in results) and elapsed < 60.0
    listing = ", ".join(f"{rule} z={z:+.2f}" for rule, z in results)
    _report(ok, "waveform-level agreement",
            f"{slots} symbols x {blocks} blocks per rule: {listing}, "
            f"{elapsed:.1f}s < 60s")


def test_verification_rerun_is_byte_identical():
    first = run_verification(samples=200000, seed=7)
    second = run_verification(samples=200000, seed=7)
    same = emit_csv(first.rows) == emit_csv(second.rows)
    _report(same and first.passed and second.passed,
            "verification determinism",
            f"two runs at the same seed produced byte-identical CSV "
            f"({len(first.rows)} rows) and both passed")


# SHA-256 of the "name | detail" lines of the analytic verification checks,
# as `scevm verify` prints them. The details carry every value to 9 to 12
# digits and every error to 3, so a change of route or of quadrature shows
# here; a change that moves these lines on purpose recomputes the hash.
ANALYTIC_CHECKS_SHA256 = "57894fa309198525caa47188a1377a064e0f2a1d4e94bd966c12d4e68fb6f05b"


def test_analytic_verification_output_is_frozen():
    checks = [check for family in (anchor_checks, reduction_checks,
                                   quadrature_identity_checks, monotonicity_checks,
                                   rule_ordering_checks, asymptotic_checks)
              for check in family()]
    text = "".join(f"{check.name} | {check.detail}\n" for check in checks)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    _report(len(checks) == 63 and digest == ANALYTIC_CHECKS_SHA256,
            "analytic verification output",
            f"{len(checks)} check lines, sha256 {digest[:16]}...")
