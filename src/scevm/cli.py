"""Command line front end.

Three commands: `eval` prints the closed-form EVM of one configuration
(optionally with a Monte Carlo cross-check), `verify` runs the full
verification suite, and `sweep` produces the built-in comparison tables
with gnuplot companions.

Exit codes: 0 success, 1 invalid configuration or arguments, or a file
that cannot be read or written, 2 numerical
failure (divergent moment; without --mc, a tail or quadrature that cannot
reach its accuracy), 3 verification found a disagreement.
"""

import argparse
import json
import sys
from pathlib import Path

from .analytic import analytic_formula, formula_name
from .model import (ConfigError, Fading, NumericalError, SelectionRule, SystemConfig,
                    check_count, check_number, check_seed)
from .simulate import DEFAULT_SEED
from .sweep import STATUS_DIVERGED, emit_csv, emit_plot_script, evaluate_cells, preset, run_sweep
from .verify import run_verification

_EVAL_DEFAULTS = {
    "L": 2, "M": 1, "rule": "max-sir", "fading": "rayleigh",
    "md": 1.0, "rho": 0.0, "samples": 200000, "seed": DEFAULT_SEED,
}


class _Parser(argparse.ArgumentParser):
    # surface usage mistakes through the same exit code as any other
    # invalid configuration
    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(parser):
    parser.add_argument("--L", type=int, default=None, dest="L",
                        help="number of receive antennas")
    parser.add_argument("--M", type=int, default=None, dest="M",
                        help="number of interferers")
    parser.add_argument("--rule", choices=("max-sir", "max-signal"), default=None,
                        help="antenna selection rule")
    parser.add_argument("--fading", choices=("rayleigh", "nakagami"), default=None,
                        help="desired-channel fading law")
    parser.add_argument("--md", type=float, default=None,
                        help="Nakagami shape of the desired channel")
    parser.add_argument("--rho", type=float, default=None,
                        help="antenna correlation coefficient (two antennas)")


def build_parser():
    parser = _Parser(prog="scevm",
                     description="EVM of an interference-limited "
                                 "selection-combining receiver")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("eval", help="evaluate one configuration")
    _add_config_flags(cmd)
    cmd.add_argument("--config", default=None,
                     help="JSON file with the same keys as the flags; "
                          "flags take precedence")
    cmd.add_argument("--mc", action="store_true",
                     help="also run the channel simulator")
    cmd.add_argument("--samples", type=int, default=None,
                     help="Monte Carlo draws for --mc")
    cmd.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")

    cmd = commands.add_parser("verify", help="run every verification layer")
    cmd.add_argument("--samples", type=int, default=1000000,
                     help="Monte Carlo draws per grid point")
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cmd.add_argument("--out", default=None,
                     help="write the Monte Carlo grid as CSV")

    cmd = commands.add_parser("sweep", help="run a built-in sweep family")
    cmd.add_argument("--preset", required=True, choices=("fig1", "fig2", "fig3"))
    cmd.add_argument("--samples", type=int, default=200000,
                     help="Monte Carlo draws per sweep point")
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cmd.add_argument("--out", default=None,
                     help="write CSV here plus a gnuplot script alongside")
    return parser


def _load_config_file(path):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    unknown = sorted(set(data) - set(_EVAL_DEFAULTS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}; "
                          f"known keys are {sorted(_EVAL_DEFAULTS)}")
    return data


def _resolve_eval_settings(args):
    settings = dict(_EVAL_DEFAULTS)
    if args.config is not None:
        settings.update(_load_config_file(args.config))
    for key in _EVAL_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _system_config(settings):
    rule_token = str(settings["rule"]).replace("-", "_")
    try:
        rule = SelectionRule(rule_token)
    except ValueError:
        raise ConfigError(
            f"unknown rule {settings['rule']!r}; "
            f"choose max-sir or max-signal") from None
    fading = Fading(settings["fading"], check_number(settings["md"], "md"))
    return SystemConfig(settings["L"], settings["M"], rule, fading, settings["rho"])


def _exact_text(x):
    # shortest round-trip text, so rho 0.999999999 is not shown as rho=1
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text


def _cmd_eval(args):
    settings = _resolve_eval_settings(args)
    cfg = _system_config(settings)
    seed = check_seed(settings["seed"])
    name = formula_name(cfg)
    if args.mc:
        # a sweep point's row, on the raw seed: estimate_evm(cfg, samples, seed)
        row = evaluate_cells([(cfg, (cfg.rule,), seed)], settings["samples"])[0][cfg.rule]
    # raises for a diverged row, and without --mc for a failing route too
    exact = row.analytic if args.mc and row.status != STATUS_DIVERGED else analytic_formula(cfg)
    print(f"L={cfg.antennas} M={cfg.interferers} rule={cfg.rule.value} "
          f"fading={cfg.fading.kind} m={_exact_text(cfg.fading.m)} rho={_exact_text(cfg.rho)}")
    if name is None and not args.mc:
        raise ConfigError("no closed form covers this configuration; "
                          "re-run with --mc for a simulated value")
    if name is None:
        print("analytic evm: none (configuration not covered by a closed form)")
    elif exact is None:
        print(f"analytic evm: none ({name} failed numerically)")
    else:
        print(f"analytic evm: {exact:.15g} [{name}]")
    if args.mc:
        line = f"mc evm: {row.mc_mean:.15g} +- {row.mc_stderr:.3g} ({settings['samples']} samples"
        if row.z_score is not None:
            line += f", z = {row.z_score:+.2f}"
        print(line + ")")
    return 0


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _out_path(path):
    """`path` as a Path; refused unless its parent is a directory and it is not one.

    Checked before any draw, so an unwritable --out costs no run, and a
    refusal creates and truncates nothing.
    """
    path = Path(path)
    if not path.parent.is_dir():
        raise ConfigError(f"cannot write {path}: {path.parent} is not a directory")
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    return path


def _cmd_verify(args):
    check_count(args.samples, "samples", 2)
    if args.out is not None:
        _out_path(args.out)
    print(f"grid samples per cell: {args.samples} "
          f"(std error scales as 1/sqrt(samples); pass line stays |z| <= 3)")
    report = run_verification(samples=args.samples, seed=args.seed)
    for check in report.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name} | {check.detail}")
    if args.out is not None:
        _write_text(args.out, emit_csv(report.rows))
        print(f"wrote {args.out}")
    total = len(report.checks)
    good = sum(1 for check in report.checks if check.passed)
    print(f"{good}/{total} checks passed")
    return 0 if report.passed else 3


def _cmd_sweep(args):
    specs = preset(args.preset, samples=args.samples, seed=args.seed)
    if args.out is not None:
        # the script needs only the specs, so a refused --out costs no draws
        out = _out_path(args.out)
        plot_path = _out_path(out.with_suffix(".plot"))
        if plot_path == out:
            raise ConfigError(f"--out {args.out} is where the plot script goes; "
                              f"give the CSV another suffix")
        plot_text = emit_plot_script(specs, csv_name=out.name)
    rows = [row for spec in specs for row in run_sweep(spec)]
    csv_text = emit_csv(rows)
    if args.out is None:
        sys.stdout.write(csv_text)
        return 0
    _write_text(args.out, csv_text)
    _write_text(plot_path, plot_text)
    print(f"wrote {args.out} and {plot_path}")
    return 0


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
