"""The console script in a child process, as a user runs it.

Every check runs `python -m scevm.cli` and imports only the standard
library and pytest, so this module also runs where numpy is the only
dependency installed:

    pip install -e . && pip install pytest
    python -m pytest -q tests/test_console.py

Each check has a timeout; one without its own gets TIMEOUT.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

TIMEOUT = 60

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))))


def scevm(*args, timeout=TIMEOUT):
    """The finished `scevm` run with these arguments, its output captured."""
    return subprocess.run([sys.executable, "-m", "scevm.cli", *args], env=_ENV,
                          capture_output=True, text=True, timeout=timeout)


def analytic_value(*args, timeout=TIMEOUT):
    """The `analytic evm:` value that `scevm eval` prints, which must exit 0."""
    done = scevm("eval", *args, timeout=timeout)
    assert done.returncode == 0, done.stderr
    for line in done.stdout.splitlines():
        if line.startswith("analytic evm: "):
            return float(line.split()[2])
    pytest.fail(f"no analytic evm line in {done.stdout!r}")


def _half_moment_asymptote(interferers):
    # sqrt(pi) Gamma(M + 1/2) / Gamma(M) for large M
    m = float(interferers)
    return math.sqrt(math.pi * m) * (1 - 1 / (8 * m) + 1 / (128 * m * m))


def _nakagami_single_antenna(m, interferers):
    # the exact EVM at L = 1: sqrt(m) Gamma(m - 1/2) / Gamma(m) times the
    # interference half-moment Gamma(M + 1/2) / Gamma(M)
    return math.sqrt(m) * math.exp(math.lgamma(interferers + 0.5) - math.lgamma(interferers)
                                   + math.lgamma(m - 0.5) - math.lgamma(m))


# commands that must exit 0 within their timeout
RUNS = [
    pytest.param(("eval", "--L", "2", "--M", "2", "--fading", "nakagami", "--md", "2"),
                 TIMEOUT, id="nakagami-eval"),
    pytest.param(("sweep", "--preset", "fig3", "--samples", "2000"), TIMEOUT, id="fig3-sweep"),
    # sweeps whose points each plan a full chunk and a last chunk of one row,
    # independent (fig3) and correlated (fig2)
    pytest.param(("sweep", "--preset", "fig3", "--samples", "131073"), 30,
                 id="fig3-one-row-last-chunk"),
    pytest.param(("sweep", "--preset", "fig2", "--samples", "131073"), 30,
                 id="fig2-one-row-last-chunk"),
    # the paper's Nakagami and correlated special cases, through the general route
    pytest.param(("eval", "--L", "3", "--M", "2", "--fading", "nakagami", "--md", "0.8"),
                 TIMEOUT, id="paper-nakagami-case"),
    pytest.param(("eval", "--rho", "0.6"), TIMEOUT, id="paper-correlated-case"),
    pytest.param(("eval", "--L", "2", "--M", "3", "--rule", "max-signal",
                  "--rho", "0.999999999"), 10, id="correlated-max-signal-near-rho-1"),
    # large independent arrays through the defining integral
    pytest.param(("eval", "--L", "60", "--M", "2"), 10, id="max-sir-L-60"),
    pytest.param(("eval", "--L", "200", "--M", "4", "--rule", "max-signal"), 10,
                 id="max-signal-L-200"),
    # the benchmark's verify workload, within the grid time bound
    pytest.param(("verify",), 120, id="verify-at-defaults"),
    # a seed whose waveform max-SIR check passes only on its one re-run
    pytest.param(("verify", "--seed", "9"), 120, id="verify-seed-9"),
]


@pytest.mark.parametrize("args,timeout", RUNS)
def test_exits_0(args, timeout):
    done = scevm(*args, timeout=timeout)
    assert done.returncode == 0, done.stderr


# `eval` values against (want, tolerance); want is a number, or the value
# that `eval` prints at other arguments
VALUES = [
    # log_gamma(m) overflows from m ~ 2.6e305; the m -> inf limit at M = 1 is Gamma(1.5)
    pytest.param(("--rule", "max-signal", "--fading", "nakagami", "--md", "3e305"),
                 math.gamma(1.5), {"abs": 1e-14}, TIMEOUT, id="max-signal-past-log-gamma-overflow"),
    # the single-antenna CDF's M-term sum overflows at large M m; at L = 1
    # the EVM is exact
    pytest.param(("--L", "1", "--M", "1024", "--fading", "nakagami", "--md", "1000"),
                 _nakagami_single_antenna(1000, 1024), {"abs": 1e-9}, 10,
                 id="max-sir-past-the-sum-overflow"),
    # k (1 + m x) overflows at huge m; at L = 3, M = 2, m = 1e300 is already the limit
    pytest.param(("--L", "3", "--M", "2", "--fading", "nakagami", "--md", "1e308"),
                 ("--L", "3", "--M", "2", "--fading", "nakagami", "--md", "1e300"),
                 {"abs": 1e-13}, 10, id="max-sir-past-the-shape-overflow"),
    # Gamma(M + 1/2) / Gamma(M) scales the fully correlated and every
    # max-signal route: the constant to 1e-13, the defining integral to 1e-9
    pytest.param(("--rho", "1", "--M", "1000000000000"), _half_moment_asymptote(10**12),
                 {"rel": 1e-13, "abs": 0}, 10, id="half-moment-constant-at-M-1e12"),
    pytest.param(("--L", "1", "--M", "1000000000000", "--rule", "max-signal"),
                 _half_moment_asymptote(10**12), {"rel": 1e-9, "abs": 0}, 10,
                 id="half-moment-integral-at-M-1e12"),
    # from M = 2^52, M + 1/2 is not a double
    pytest.param(("--rho", "1", "--M", str(2**52)), _half_moment_asymptote(2**52),
                 {"rel": 1e-13, "abs": 0}, 10, id="half-moment-constant-at-M-two-to-the-52"),
]


@pytest.mark.parametrize("args,want,tolerance,timeout", VALUES)
def test_value(args, want, tolerance, timeout):
    if isinstance(want, tuple):
        want = analytic_value(*want, timeout=timeout)
    assert analytic_value(*args, timeout=timeout) == pytest.approx(want, **tolerance)


# refused before any draw or write; {tmp} is the test's empty directory
REFUSALS = [
    pytest.param(("eval", "--config", "{tmp}/missing.json"), id="unreadable-config"),
    pytest.param(("sweep", "--preset", "fig2", "--samples", "2000", "--out", "{tmp}/x.plot"),
                 id="sweep-out-is-its-plot-script"),
    pytest.param(("verify", "--out", "{tmp}/missing/grid.csv"), id="verify-out-missing-directory"),
    pytest.param(("sweep", "--preset", "fig1", "--out", "{tmp}/missing/f.csv"),
                 id="sweep-out-missing-directory"),
]


@pytest.mark.parametrize("args", REFUSALS)
def test_refused(args, tmp_path):
    # exit 1 with one error line and no traceback, no check line or CSV row,
    # and no file written
    done = scevm(*(arg.format(tmp=tmp_path) for arg in args))
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stderr.startswith("error:"), done.stderr
    assert "Traceback" not in done.stderr
    for line in done.stdout.splitlines():
        assert not line.startswith(("PASS ", "FAIL ")) and "," not in line, done.stdout
    assert not any(tmp_path.iterdir())


def test_two_rule_sweep_writes_one_plot_curve_per_rule(tmp_path):
    # fig2 is one spec with both rules
    done = scevm("sweep", "--preset", "fig2", "--samples", "2000", "--out", str(tmp_path / "fig2.csv"))
    assert done.returncode == 0, done.stderr
    plot = (tmp_path / "fig2.plot").read_text(encoding="utf-8")
    assert sum("with lines title" in line for line in plot.splitlines()) == 2


def test_a_failing_route_keeps_its_monte_carlo_line():
    # this route's x^-1.01 tail reaches past the double range: eval --mc
    # prints the simulated value, as a sweep point's row has it, and eval
    # alone exits 2
    args = ("eval", "--L", "1", "--M", "2", "--fading", "nakagami", "--md", "0.505")
    done = scevm(*args, "--mc", "--samples", "2000")
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("mc evm:") for line in done.stdout.splitlines()), done.stdout
    assert scevm(*args).returncode == 2


def test_the_smallest_monte_carlo_call_imports_no_test_oracle():
    # the benchmark's set-up call, one chunk of two rows, in a child where
    # importing scipy, mpmath or hypothesis fails
    code = ("import runpy, sys\n"
            "for name in ('scipy', 'mpmath', 'hypothesis'):\n"
            "    sys.modules[name] = None\n"
            "runpy.run_module('scevm.cli', run_name='__main__', alter_sys=True)\n")
    done = subprocess.run([sys.executable, "-c", code, "eval", "--L", "2", "--M", "1", "--mc",
                           "--samples", "2"], env=_ENV, capture_output=True, text=True,
                          timeout=TIMEOUT)
    assert done.returncode == 0, done.stderr
