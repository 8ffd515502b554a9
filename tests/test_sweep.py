"""Sweep construction, formula dispatch, CSV and plot emission."""

import csv
import dataclasses
import hashlib
import io
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from scevm import analytic, simulate, sweep
from scevm.analytic import analytic_formula, formula_name
from scevm.model import (
    ConfigError,
    DivergentMomentError,
    Fading,
    SelectionRule,
    SystemConfig,
)
from scevm.simulate import estimate_evm
from scevm.sweep import (
    CSV_HEADER,
    SweepSpec,
    cell_seed,
    emit_csv,
    emit_plot_script,
    preset,
    run_sweep,
)

BASE = SystemConfig(2, 1, SelectionRule.MAX_SIR)
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("kwargs", [
    {"axis": "antennas", "values": (1, 2), "base": BASE},
    {"axis": "L", "values": (), "base": BASE},
    {"axis": "L", "values": (2, 2), "base": BASE},
    {"axis": "L", "values": (3, 1), "base": BASE},
    {"axis": "L", "values": (1, 2), "base": "nope"},
    {"axis": "rule", "values": (1, 2), "base": BASE},
    {"axis": "L", "values": (1, 2), "base": BASE, "samples": 2.5},
    {"axis": "L", "values": (1, 2), "base": BASE, "samples": 1},
    {"axis": "L", "values": (1, 2), "base": BASE, "seed": 7.5},
    {"axis": "L", "values": (1, 2), "base": BASE, "seed": True},
    {"axis": "L", "values": (1, 2), "base": BASE, "seed": "7"},
    {"axis": "L", "values": (1, 2), "base": BASE, "rules": ()},
    {"axis": "L", "values": (1, 2), "base": BASE, "rules": ("max_sir",)},
    {"axis": "L", "values": (1, 2), "base": BASE, "rules": (SelectionRule.MAX_SIR, None)},
    {"axis": "L", "values": (1, 2), "base": BASE,
     "rules": (SelectionRule.MAX_SIR, SelectionRule.MAX_SIGNAL, SelectionRule.MAX_SIR)},
])
def test_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        SweepSpec(**kwargs)


def test_spec_rules_default_to_the_base_rule():
    spec = SweepSpec(axis="L", values=(1, 2), base=SystemConfig(2, 1, "max_signal"))
    assert spec.rules == (SelectionRule.MAX_SIGNAL,)
    both = SweepSpec(axis="L", values=(1, 2), base=BASE,
                     rules=[SelectionRule.MAX_SIGNAL, SelectionRule.MAX_SIR])
    assert both.rules == (SelectionRule.MAX_SIGNAL, SelectionRule.MAX_SIR)


def test_spec_seed_accepts_numpy_integers():
    spec = SweepSpec(axis="L", values=(1, 2), base=BASE, seed=np.int64(7))
    assert spec.seed == 7 and type(spec.seed) is int


def test_spec_samples_accept_numpy_integers_not_bools():
    spec = SweepSpec(axis="L", values=(1, 2), base=BASE, samples=np.int64(1000))
    assert spec.samples == 1000 and type(spec.samples) is int
    for samples in (True, np.bool_(True), 1000.0):
        with pytest.raises(ConfigError, match="samples must be an integer"):
            SweepSpec(axis="L", values=(1, 2), base=BASE, samples=samples)


def test_dispatch_total_over_config_space():
    # every constructible configuration must land in exactly one bucket
    buckets = {"covered": 0, "uncovered": 0, "diverged": 0, "invalid": 0}
    for antennas, interferers, rule, kind, rho in itertools.product(
            (1, 2, 3), (1, 2, 3), SelectionRule,
            ("rayleigh", "nakagami"), (0.0, 0.5, 1.0)):
        fading = Fading.rayleigh() if kind == "rayleigh" else Fading.nakagami(2.0)
        try:
            cfg = SystemConfig(antennas, interferers, rule, fading, rho)
        except ConfigError:
            buckets["invalid"] += 1
            continue
        try:
            value = analytic_formula(cfg)
        except DivergentMomentError:
            buckets["diverged"] += 1
            continue
        if value is None:
            buckets["uncovered"] += 1
        else:
            assert value > 0.0
            buckets["covered"] += 1
    assert buckets["covered"] > 0 and buckets["uncovered"] > 0
    assert sum(buckets.values()) == 3 * 3 * 2 * 2 * 3


def test_dispatch_routes():
    assert analytic_formula(SystemConfig(2, 3, "max_sir", rho=1.0)) == pytest.approx(
        analytic.evm_fully_correlated(3), rel=1e-13)
    cfg = SystemConfig(2, 1, "max_sir", rho=0.5)
    assert analytic_formula(cfg) == pytest.approx(analytic.evm_from_sir_cdf(cfg), rel=1e-13)
    assert analytic_formula(SystemConfig(2, 2, "max_sir", rho=0.5)) is None
    assert analytic_formula(
        SystemConfig(2, 3, "max_signal", rho=0.5)) == pytest.approx(
        analytic.evm_max_signal_correlated(0.5, 3), rel=1e-13)
    # shape 1 is the same law as Rayleigh, and the series agrees with the
    # defining integral there
    assert analytic_formula(
        SystemConfig(3, 3, "max_sir", Fading.nakagami(1.0))) == pytest.approx(
        analytic.evm_max_sir_rayleigh(3, 3), rel=1e-13)
    # independent antennas, Rayleigh or Nakagami: the defining integral
    for cfg in (SystemConfig(3, 3, "max_sir", Fading.nakagami(2.0)),
                SystemConfig(3, 2, "max_signal", Fading.nakagami(2.0)),
                SystemConfig(3, 3, "max_sir"),
                SystemConfig(2, 2, "max_signal", Fading.nakagami(2.0)),
                SystemConfig(2, 2, "max_sir", Fading.nakagami(2.0))):
        assert analytic_formula(cfg) == pytest.approx(
            analytic.evm_from_sir_cdf(cfg), rel=1e-13)
    assert analytic_formula(SystemConfig(2, 3, "max_sir", rho=0.5)) is None


def test_formula_name_matches_route():
    assert formula_name(SystemConfig(2, 1, "max_sir")) == "evm_from_sir_cdf"
    assert formula_name(SystemConfig(5, 2, "max_signal")) == "evm_from_sir_cdf"
    assert formula_name(
        SystemConfig(2, 3, "max_signal", rho=0.5)) == "evm_max_signal_correlated"
    assert formula_name(SystemConfig(2, 3, "max_sir", rho=1.0)) == \
        "evm_fully_correlated"
    assert formula_name(SystemConfig(3, 3, "max_sir", Fading.nakagami(2.0))) == \
        "evm_from_sir_cdf"
    assert formula_name(SystemConfig(2, 3, "max_sir", rho=0.5)) is None
    # naming never evaluates, so even divergent points report their route
    assert formula_name(
        SystemConfig(2, 1, "max_signal", Fading.nakagami(0.2))) == \
        "evm_from_sir_cdf"


def test_readme_coverage_table_names_every_route():
    lines = README.read_text(encoding="utf-8").split("## Closed-form coverage\n")[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    listed = {name for line in table for name in re.findall(r"`(\w+)\(", line.split("|")[2])}
    routed = set()
    for antennas, interferers, rule, fading, rho in itertools.product(
            (1, 2, 3), (1, 2, 3), SelectionRule,
            (Fading.rayleigh(), Fading.nakagami(0.3), Fading.nakagami(2.0)),
            (0.0, 0.5, 1.0)):
        try:
            cfg = SystemConfig(antennas, interferers, rule, fading, rho)
        except ConfigError:
            continue
        routed.add(formula_name(cfg))
    routed.discard(None)
    assert listed == routed


def test_rayleigh_and_nakagami_configurations_route_to_the_defining_integral():
    # the paper's Nakagami cases (max-SIR at M = 2, max-signal at L = 2) and
    # its correlated max-SIR case (M = 1) are configurations of the integral,
    # and the route returns its bits unchanged
    configs = [SystemConfig(antennas, 2, "max_sir", Fading.nakagami(2.0))
               for antennas in (1, 2, 3)]
    configs += [SystemConfig(2, 3, "max_signal", Fading.nakagami(m))
                for m in (0.6, 2.0, 1000.0)]
    configs.append(SystemConfig(2, 1, "max_sir", rho=0.5))
    # Rayleigh is shape 1, and the alternating sums are references, not routes
    configs.append(SystemConfig(2, 3, "max_signal"))
    for cfg in configs:
        assert formula_name(cfg) == "evm_from_sir_cdf"
        assert analytic_formula(cfg) == analytic.evm_from_sir_cdf(cfg)


@pytest.mark.parametrize("cfg", [
    SystemConfig(3, 2, "max_signal", Fading.nakagami(2.0)),
    SystemConfig(2, 3, "max_sir", Fading.nakagami(2.0)),
])
def test_defining_integral_routes_agree_with_monte_carlo(cfg):
    # configurations no named formula covers, through evm_from_sir_cdf
    assert formula_name(cfg) == "evm_from_sir_cdf"
    exact = analytic_formula(cfg)
    estimate = estimate_evm(cfg, 1000000, seed=1)
    assert abs(estimate.mean - exact) <= 3.0 * estimate.std_error


def test_cell_seed_ignores_rule_only():
    sir = SystemConfig(2, 2, "max_sir")
    signal = SystemConfig(2, 2, "max_signal")
    assert cell_seed(5, sir) == cell_seed(5, signal)
    assert cell_seed(5, sir) != cell_seed(6, sir)
    assert cell_seed(5, sir) != cell_seed(5, SystemConfig(3, 2, "max_sir"))
    assert cell_seed(5, sir) != cell_seed(
        5, SystemConfig(2, 2, "max_sir", Fading.nakagami(2.0)))


def test_run_sweep_statuses():
    spec = SweepSpec(axis="m_d", values=(0.2, 0.6, 1.5),
                     base=SystemConfig(2, 1, SelectionRule.MAX_SIGNAL,
                                       Fading.nakagami(1.0)),
                     samples=5000, seed=1)
    rows = run_sweep(spec)
    assert [row.status for row in rows] == ["diverged", "ok", "ok"]
    assert rows[0].mc_mean is None and rows[0].analytic is None
    assert rows[1].analytic == pytest.approx(
        analytic.evm_from_sir_cdf(dataclasses.replace(spec.base, fading=Fading.nakagami(0.6))),
        rel=1e-12)
    assert rows[1].z_score is not None


def test_run_sweep_unsupported_configuration():
    spec = SweepSpec(axis="L", values=(2, 3),
                     base=SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.5),
                     samples=5000, seed=1)
    rows = run_sweep(spec)
    assert rows[0].status == "ok"
    # three correlated antennas cannot be configured at all
    assert rows[1].status == "unsupported"
    assert rows[1].antennas == 3 and rows[1].rho == 0.5
    assert rows[1].mc_mean is None and rows[1].analytic is None


def test_run_sweep_uncovered_configuration_still_simulates():
    spec = SweepSpec(axis="M", values=(1, 2),
                     base=SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.5),
                     samples=5000, seed=1)
    rows = run_sweep(spec)
    assert rows[0].status == "ok"
    # a valid point without a closed form is still ok, just analytic-empty
    assert rows[1].status == "ok"
    assert rows[1].mc_mean is not None and rows[1].analytic is None
    assert rows[1].z_score is None


def test_run_sweep_failed_closed_form_still_simulates():
    # 2 L m = 1.01: the defining integral's tail passes the double range
    spec = SweepSpec("m_d", (0.505, 0.6), SystemConfig(1, 2, "max_sir", Fading.nakagami(1)),
                     samples=2000, seed=1)
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert all(row.status == "ok" and row.mc_mean is not None for row in rows)
    assert rows[0].analytic is None and rows[0].z_score is None
    assert rows[1].analytic is not None and rows[1].z_score is not None


def test_run_sweep_past_the_alternating_sums():
    # L = 76 at M = 2, where the max-SIR alternating sum raises
    # SeriesRangeError, has an analytic value through the defining integral
    spec = SweepSpec("L", (20, 76), SystemConfig(1, 2, "max_sir"), samples=2000, seed=1)
    rows = run_sweep(spec)
    assert [row.status for row in rows] == ["ok", "ok"]
    assert all(row.analytic is not None and row.z_score is not None for row in rows)
    assert rows[1].analytic == pytest.approx(0.3262124851393210478, rel=1e-12)


def test_run_sweep_past_the_signal_rule_gamma_overflow():
    # from m ~ 515 the gamma ratio of the paper's 2F1 form overflows a
    # double, which once aborted the sweep; the defining integral has no
    # such limit
    spec = SweepSpec("m_d", (500.0, 1000.0),
                     SystemConfig(2, 2, "max_signal", Fading.nakagami(1.0)),
                     samples=2000, seed=1)
    rows = run_sweep(spec)
    assert [row.status for row in rows] == ["ok", "ok"]
    assert all(row.analytic is not None and row.z_score is not None for row in rows)


def test_run_sweep_correlation_axis_both_rules_consistent():
    spec = SweepSpec(axis="rho", values=(0.0, 0.2, 0.4, 0.6, 0.8), base=BASE,
                     samples=60000, seed=9, rules=tuple(SelectionRule))
    rows = run_sweep(spec)
    assert len(rows) == 10
    assert all(row.status == "ok" for row in rows)
    assert all(abs(row.z_score) <= 3.0 for row in rows)


@pytest.mark.parametrize("axis, values, base", [
    # 0.5 at M = 2 has a closed form for max-signal only; 1.5 is no correlation
    ("rho", (0.0, 0.5, 1.0, 1.5), SystemConfig(2, 2, "max_sir")),
    # 0.2 diverges; 0.505 has a route whose tail fails numerically
    ("m_d", (0.2, 0.505, 0.6), SystemConfig(1, 2, "max_sir", Fading.nakagami(1.0))),
], ids=["rho", "m_d"])
@pytest.mark.parametrize("rules", [
    (SelectionRule.MAX_SIR, SelectionRule.MAX_SIGNAL),
    (SelectionRule.MAX_SIGNAL, SelectionRule.MAX_SIR),
], ids=["sir-first", "signal-first"])
def test_two_rule_spec_equals_the_single_rule_specs(axis, values, base, rules):
    joint = run_sweep(SweepSpec(axis, values, base, samples=3000, seed=4, rules=rules))
    single = []
    for rule in rules:
        one = SweepSpec(axis, values, dataclasses.replace(base, rule=rule), samples=3000, seed=4)
        single.extend(run_sweep(one))
    assert joint == single
    statuses = {row.status for row in joint}
    assert statuses == ({"ok", "unsupported"} if axis == "rho" else {"ok", "diverged"})
    if axis == "rho":
        # the two rules disagree on coverage at rho = 0.5
        assert [row.analytic is None for row in joint if row.rho == 0.5] == \
            [rule is SelectionRule.MAX_SIR for rule in rules]


def test_two_rule_spec_draws_each_point_once(monkeypatch):
    calls = []
    original = sweep.estimate_evm_batch

    def counting(requests):
        calls.extend(tuple(rules) for _, rules, _, _ in requests)
        return original(requests)

    monkeypatch.setattr(sweep, "estimate_evm_batch", counting)
    (spec,) = preset("fig2", samples=2000)
    rows = run_sweep(spec)
    assert len(rows) == 2 * len(spec.values)
    assert calls == [(SelectionRule.MAX_SIR, SelectionRule.MAX_SIGNAL)] * len(spec.values)
    # the rules share the divergence boundary, so a diverged point draws nothing
    calls.clear()
    run_sweep(SweepSpec("m_d", (0.2, 0.6), SystemConfig(1, 2, "max_sir", Fading.nakagami(1)),
                        samples=2000, seed=1, rules=tuple(SelectionRule)))
    assert calls == [(SelectionRule.MAX_SIR, SelectionRule.MAX_SIGNAL)]


# fig2 at 2000 draws and seed 3, as written when each rule was its own spec
# and drew its own channels; sharing the draws must keep every byte
FIG2_CSV_SHA256 = "63e30b763eca1fbe7f66c51dd6fb2cf30bb4badb67f536128784158322e5705e"
FIG2_PLOT = """set datafile separator ','
set xlabel 'rho'
set ylabel 'EVM'
set key top left
plot \\
  'fig2.csv' every ::1::9 using 5:6 with lines title 'max_sir M=1', \\
  'fig2.csv' every ::1::9 using 5:7:8 with yerrorbars notitle, \\
  'fig2.csv' every ::10::18 using 5:6 with lines title 'max_signal M=1', \\
  'fig2.csv' every ::10::18 using 5:7:8 with yerrorbars notitle
"""


def test_fig2_output_is_frozen():
    specs = preset("fig2", samples=2000, seed=3)
    text = emit_csv([row for spec in specs for row in run_sweep(spec)])
    assert hashlib.sha256(text.encode()).hexdigest() == FIG2_CSV_SHA256
    assert emit_plot_script(specs, csv_name="fig2.csv") == FIG2_PLOT


# fig1 and fig3 at a sample count that leaves a partial last chunk, and seed
# 3, as written when every chunk was drawn in full; a partial chunk must keep
# every byte of the rows and their repr
FIG1_FIG3_SHA256 = "227fe934ef70f96e65469eac783a60dcadba92fab82e3c9719e32dd11384f6d2"


def test_fig1_and_fig3_output_is_frozen():
    samples = simulate.CHUNK + 4099
    specs = preset("fig1", samples=samples, seed=3) + preset("fig3", samples=samples, seed=3)
    rows = [row for spec in specs for row in run_sweep(spec)]
    text = emit_csv(rows) + repr(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == FIG1_FIG3_SHA256


def test_csv_header_and_round_trip():
    spec = SweepSpec(axis="L", values=(1, 2), base=BASE, samples=2000, seed=3)
    rows = run_sweep(spec)
    text = emit_csv(rows)
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n") and "\r" not in text
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 2
    first = parsed[0]
    assert first["L"] == "1" and first["M"] == "1"
    assert first["rule"] == "max_sir"
    assert float(first["analytic"]) == pytest.approx(
        analytic.evm_max_sir_rayleigh(1, 1), rel=1e-11)
    assert first["status"] == "ok"


def test_csv_empty_fields_for_missing_values():
    spec = SweepSpec(axis="m_d", values=(0.2,),
                     base=SystemConfig(2, 1, SelectionRule.MAX_SIGNAL,
                                       Fading.nakagami(1.0)),
                     samples=2000, seed=3)
    text = emit_csv(run_sweep(spec))
    line = text.splitlines()[1]
    assert line == "2,1,max_signal,0.2,0,,,,,diverged"


def test_sweep_rerun_is_byte_identical():
    spec = SweepSpec(axis="rho", values=(0.0, 0.5), base=BASE,
                     samples=20000, seed=7)
    assert emit_csv(run_sweep(spec)) == emit_csv(run_sweep(spec))


def test_plot_script_structure():
    specs = preset("fig2", samples=2000)
    script = emit_plot_script(specs, csv_name="fig2.csv")
    assert "plot \\" in script
    # a line and its error bars per (spec, rule) curve
    assert script.count("'fig2.csv'") == 2 * sum(len(spec.rules) for spec in specs) == 4
    assert "using 5:6" in script  # rho is column 5
    with pytest.raises(ConfigError):
        emit_plot_script([])
    mixed = [SweepSpec(axis="L", values=(1, 2), base=BASE),
             SweepSpec(axis="M", values=(1, 2), base=BASE)]
    with pytest.raises(ConfigError):
        emit_plot_script(mixed)


def test_presets():
    fig1 = preset("fig1", samples=4000, seed=9)
    assert len(fig1) == 3 and all(s.axis == "L" for s in fig1)
    assert sorted(s.base.fading.m for s in fig1) == [0.5, 1.0, 2.0]
    (fig2,) = preset("fig2")
    assert fig2.axis == "rho" and fig2.rules == tuple(SelectionRule)
    fig3 = preset("fig3")
    assert len(fig3) == 3 and all(s.axis == "m_d" for s in fig3)
    assert sorted(s.base.interferers for s in fig3) == [1, 2, 4]
    with pytest.raises(ConfigError):
        preset("fig9")
