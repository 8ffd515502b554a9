"""Command line behavior: output, precedence, exit codes, tamper detection."""

import json
import math
import re

import pytest

from scevm.cli import main
from scevm.model import Fading, SelectionRule, SystemConfig
from scevm.simulate import estimate_evm

ANALYTIC_LINE = re.compile(r"analytic evm: ([0-9.eE+-]+)")


def _eval_value(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    match = ANALYTIC_LINE.search(out)
    assert match, out
    return code, float(match.group(1)), out


def test_eval_defaults(capsys):
    code, value, out = _eval_value(capsys, ["eval"])
    assert code == 0
    assert value == pytest.approx(math.pi / 4.0, abs=1e-10)
    assert "L=2 M=1 rule=max_sir fading=rayleigh" in out
    # the report names the route it dispatched to
    assert "[evm_from_sir_cdf]" in out


def test_eval_single_antenna_anchor(capsys):
    code, value, _ = _eval_value(capsys, ["eval", "--L", "1", "--M", "1"])
    assert code == 0
    assert value == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_eval_signal_rule_anchor(capsys):
    code, value, _ = _eval_value(capsys, ["eval", "--rule", "max-signal"])
    assert code == 0
    assert value == pytest.approx(math.pi * (1.0 - 1.0 / math.sqrt(2.0)), abs=1e-10)


def test_eval_every_flag(capsys):
    code, value, out = _eval_value(capsys, [
        "eval", "--L", "2", "--M", "2", "--rule", "max-sir",
        "--fading", "nakagami", "--md", "2", "--rho", "0"])
    assert code == 0
    from scevm import analytic
    cfg = SystemConfig(2, 2, SelectionRule.MAX_SIR, Fading.nakagami(2.0))
    assert value == pytest.approx(analytic.analytic_formula(cfg), rel=1e-9)
    assert "fading=nakagami m=2" in out
    assert "[evm_from_sir_cdf]" in out


def test_eval_correlated(capsys):
    code, value, _ = _eval_value(capsys, ["eval", "--rho", "0.6"])
    assert code == 0
    from scevm import analytic
    cfg = SystemConfig(2, 1, SelectionRule.MAX_SIR, rho=0.6)
    assert value == pytest.approx(analytic.analytic_formula(cfg), rel=1e-9)


@pytest.mark.parametrize("rho", [0.999999999, math.nextafter(1.0, 0.0)])
def test_eval_header_shows_rho_exactly(capsys, rho):
    # short of full correlation the route is the correlated integral, so the
    # header must not round rho to 1
    code, value, out = _eval_value(capsys, [
        "eval", "--L", "2", "--M", "3", "--rule", "max-signal", "--rho", repr(rho)])
    assert code == 0
    assert f"m=1 rho={rho!r}\n" in out
    assert "[evm_max_signal_correlated]" in out
    from scevm import analytic
    assert value == pytest.approx(analytic.evm_max_signal_correlated(rho, 3), rel=1e-14)


def test_eval_signal_rule_at_huge_shape(capsys):
    code, _, out = _eval_value(capsys, [
        "eval", "--rule", "max-signal", "--fading", "nakagami", "--md", "1e305"])
    assert code == 0
    assert "m=1e+305 rho=0\n" in out


def test_eval_signal_rule_past_the_log_gamma_overflow(capsys):
    code, value, _ = _eval_value(capsys, [
        "eval", "--rule", "max-signal", "--fading", "nakagami", "--md", "3e305"])
    assert code == 0
    assert value == pytest.approx(math.gamma(1.5), rel=0, abs=1e-14)


def test_eval_with_mc(capsys):
    code = main(["eval", "--mc", "--samples", "20000", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mc evm:" in out and "20000 samples" in out and "z =" in out


def test_eval_mc_prints_the_estimate_of_its_raw_seed(capsys):
    # eval's seed is not cell_seed'ed as a sweep point's is
    assert main(["eval", "--mc", "--samples", "3000", "--seed", "5"]) == 0
    estimate = estimate_evm(SystemConfig(2, 1, SelectionRule.MAX_SIR), 3000, seed=5)
    assert (f"mc evm: {estimate.mean:.15g} +- {estimate.std_error:.3g} (3000 samples, z = "
            in capsys.readouterr().out)


def test_eval_mc_is_seed_deterministic(capsys):
    main(["eval", "--mc", "--samples", "20000", "--seed", "3"])
    first = capsys.readouterr().out
    main(["eval", "--mc", "--samples", "20000", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("argv", [
    ["eval", "--L", "0"],
    ["eval", "--M", "0"],
    ["eval", "--rho", "1.5"],
    ["eval", "--rho", "0.5", "--L", "3"],
    ["eval", "--fading", "nakagami", "--md", "-1"],
    ["eval", "--md", "2"],  # md without nakagami
    ["eval", "--rule", "best-random"],
    ["eval", "--no-such-flag"],
    ["no-such-command"],
])
def test_validation_failures_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_divergent_moment_exits_2(capsys):
    code = main(["eval", "--fading", "nakagami", "--md", "0.4",
                 "--M", "2", "--rule", "max-sir", "--L", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_past_the_double_range_exits_2(capsys):
    # the fully correlated sqrt(pi M) passes the largest double from M = 2^2047
    assert main(["eval", "--rho", "1", "--M", str(2**2047)]) == 2
    assert capsys.readouterr().err.startswith("error: the EVM passes the double range")


def test_divergent_moment_with_mc_exits_2_before_printing(capsys):
    # the diverged row draws nothing, so there is no value to print
    code = main(["eval", "--fading", "nakagami", "--md", "0.4", "--M", "2", "--L", "1",
                 "--mc", "--samples", "2000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "EVM is infinite" in captured.err


def test_uncovered_configuration_without_mc_exits_1(capsys):
    code = main(["eval", "--rho", "0.5", "--M", "2", "--rule", "max-sir", "--L", "2"])
    assert code == 1
    assert "--mc" in capsys.readouterr().err


def test_uncovered_configuration_with_mc_succeeds(capsys):
    code = main(["eval", "--rho", "0.5", "--M", "2", "--rule", "max-sir",
                 "--L", "2", "--mc", "--samples", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "analytic evm: none" in out and "mc evm:" in out
    # no closed form, so no z score
    assert "z =" not in out


def test_failing_route_with_mc_keeps_the_simulated_value(capsys):
    # the x^-1.01 tail of this route reaches past the double range; a sweep
    # point here is an ok row with Monte Carlo columns, and so is eval --mc
    argv = ["eval", "--L", "1", "--M", "2", "--fading", "nakagami", "--md", "0.505"]
    code = main(argv + ["--mc", "--samples", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "analytic evm: none (evm_from_sir_cdf failed numerically)" in out
    assert "mc evm:" in out and "2000 samples" in out
    assert "z =" not in out
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "double range" in captured.err


def test_eval_mc_refuses_samples_before_printing(capsys):
    assert main(["eval", "--mc", "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples must be an integer >= 2" in captured.err


def test_verify_refuses_samples_before_printing(capsys):
    assert main(["verify", "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples must be an integer >= 2" in captured.err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"L": 4, "M": 2, "rule": "max-signal"}))
    code, value, out = _eval_value(capsys, ["eval", "--config", str(path)])
    assert code == 0
    from scevm import analytic
    assert value == pytest.approx(analytic.evm_max_signal_rayleigh(4, 2), rel=1e-12)
    # an explicit flag beats the file
    code, value, out = _eval_value(
        capsys, ["eval", "--config", str(path), "--L", "3"])
    assert code == 0
    assert "L=3 M=2" in out
    assert value == pytest.approx(analytic.evm_max_signal_rayleigh(3, 2), rel=1e-12)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"L": 4, "antennas": 4}))
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "antennas" in err


def test_config_file_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([1, 2, 3]))
    assert main(["eval", "--config", str(path)]) == 1


def test_config_file_rejects_boolean_counts(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"L": True}))
    assert main(["eval", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "L=True" not in captured.out
    assert "antennas" in captured.err


@pytest.mark.parametrize("seed", [1.9, True, "abc"])
def test_config_file_rejects_a_seed_that_is_no_integer(tmp_path, capsys, seed):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": seed}))
    assert main(["eval", "--config", str(path), "--mc", "--samples", "2000"]) == 1
    captured = capsys.readouterr()
    assert "analytic evm" not in captured.out
    assert "mc evm" not in captured.out
    assert "seed must be an integer" in captured.err


@pytest.mark.parametrize("settings,message", [
    ({"samples": 2000.7}, "samples must be an integer"),
    ({"samples": "2000"}, "samples must be an integer"),
    ({"fading": "nakagami", "md": True}, "md must be a number"),
    ({"fading": "nakagami", "md": "2"}, "md must be a number"),
    ({"rho": True}, "rho must be a number"),
    ({"rho": "0.5"}, "rho must be a number"),
    ({"seed": 1.5}, "seed must be an integer"),
])
def test_config_file_values_are_not_coerced(tmp_path, capsys, settings, message):
    # int() and float() would run 2000 draws for 2000.7, and read true as 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(settings))
    assert main(["eval", "--config", str(path), "--mc"]) == 1
    captured = capsys.readouterr()
    assert "mc evm" not in captured.out
    assert message in captured.err


def test_sweep_writes_csv_and_plot(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code = main(["sweep", "--preset", "fig3", "--samples", "2000",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("L,M,rule,m_d,rho,analytic,mc_mean,mc_stderr,"
                           "z_score,status\n")
    assert len(text.splitlines()) == 1 + 3 * 7
    plot = tmp_path / "fig3.plot"
    assert plot.exists()
    assert "plot \\" in plot.read_text()


@pytest.mark.parametrize("config", ["missing.json", "."])
def test_config_file_that_cannot_be_read_exits_1(tmp_path, capsys, config):
    assert main(["eval", "--config", str(tmp_path / config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--samples", "2000"], id="verify"),
    pytest.param(["sweep", "--preset", "fig2", "--samples", "2000"], id="sweep"),
])
def test_out_into_a_missing_directory_exits_1(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "missing" / "grid.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("name", ["fig2.plot", "it's.csv"])
def test_sweep_refuses_an_out_before_drawing(tmp_path, capsys, monkeypatch, name):
    # fig2.plot would be overwritten by its own plot script, and a quote in
    # the name would unbalance the script's gnuplot string
    import scevm.cli as cli

    def no_draws(spec):
        raise AssertionError("drew a sweep for a refused --out")

    monkeypatch.setattr(cli, "run_sweep", no_draws)
    assert main(["sweep", "--preset", "fig2", "--samples", "2000",
                 "--out", str(tmp_path / name)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def _unwritable_out(tmp_path, case):
    # the --out of each case, and the files it must leave as they are
    (tmp_path / "grid.csv").write_text("kept\n")
    if case == "missing-directory":
        return tmp_path / "missing" / "grid.csv"
    if case == "directory":
        (tmp_path / "out.csv").mkdir()
        return tmp_path / "out.csv"
    # the CSV could be written, but its plot script's path is a directory
    (tmp_path / "grid.plot").mkdir()
    return tmp_path / "grid.csv"


def _refused_before_drawing(tmp_path, capsys, argv):
    before = sorted((path.name, path.is_dir()) for path in tmp_path.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert sorted((path.name, path.is_dir()) for path in tmp_path.iterdir()) == before
    assert (tmp_path / "grid.csv").read_text() == "kept\n"


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
def test_verify_refuses_an_unwritable_out_before_drawing(tmp_path, capsys, monkeypatch,
                                                         case):
    import scevm.cli as cli

    def no_run(samples, seed):
        raise AssertionError("ran the verification for a refused --out")

    monkeypatch.setattr(cli, "run_verification", no_run)
    out = _unwritable_out(tmp_path, case)
    _refused_before_drawing(tmp_path, capsys, ["verify", "--samples", "2000", "--out", str(out)])


@pytest.mark.parametrize("case", ["missing-directory", "directory", "plot-directory"])
def test_sweep_refuses_an_unwritable_out_before_drawing(tmp_path, capsys, monkeypatch,
                                                        case):
    import scevm.cli as cli

    def no_draws(spec):
        raise AssertionError("drew a sweep for a refused --out")

    monkeypatch.setattr(cli, "run_sweep", no_draws)
    out = _unwritable_out(tmp_path, case)
    _refused_before_drawing(tmp_path, capsys, ["sweep", "--preset", "fig2", "--samples", "2000",
                                               "--out", str(out)])


def test_sweep_stdout_when_no_out(capsys):
    code = main(["sweep", "--preset", "fig2", "--samples", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("L,M,rule,m_d,rho,")


def test_sweep_requires_preset(capsys):
    assert main(["sweep"]) == 1


def test_verify_passes_and_reports(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["verify", "--samples", "20000", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "checks passed" in text
    assert "FAIL" not in text
    # sample count is echoed so a short run explains its wider error bars
    assert "grid samples per cell: 20000" in text
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "L,M,rule,m_d,rho,analytic,mc_mean,mc_stderr,z_score,status"


def test_verify_catches_a_corrupted_formula(capsys, monkeypatch):
    # the whole verification chain must flow through the public formulas;
    # a one-percent perturbation has to be caught and exit as a failure
    import scevm.analytic as module

    original = module.evm_max_sir_rayleigh

    def skewed(antennas, interferers):
        return 1.01 * original(antennas, interferers)

    monkeypatch.setattr(module, "evm_max_sir_rayleigh", skewed)
    code = main(["verify", "--samples", "20000"])
    text = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in text
