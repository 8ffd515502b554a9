"""The benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload calls scevm through module attributes (``verify.run_verification``,
``sweep.run_sweep``, ...) so that the traced run sees the same call sites.
A pass returns one output per operation; `check` decides which outputs are
correct, outside the timed region. A check counts scevm's answer as issued:
no check is re-run under another seed.
"""

import math

from scevm import sweep, verify
from scevm.model import SelectionRule

SIR = SelectionRule.MAX_SIR
# sweep rows are checked at this line: run_sweep has no retry, so a 3-sigma
# line would trip about 13% of seeds, while a wrong closed form sits hundreds
# of standard errors away at 200k draws
SWEEP_Z_LIMIT = 5.0


def divergent(rule, antennas, shape):
    """True exactly where a Nakagami-m desired channel makes the EVM infinite.

    The selected-SIR tail needs 2 L m > 1 under max-SIR and m > 0.5 under
    max-signal; m = 1 is Rayleigh, always finite.
    """
    if shape == 1.0:
        return False
    if rule == SIR:
        return 2.0 * antennas * shape <= 1.0
    return shape <= 0.5


class Pass:
    """Outputs of one pass: one `outputs` entry per operation, in order."""

    def __init__(self, outputs, fingerprint):
        self.outputs = outputs
        self.fingerprint = fingerprint  # bytes; equal only for identical answers
        self.wall = None                # seconds for the whole pass, set by the caller


class Verify:
    """`run_verification()` at the CLI defaults with the workload seed."""

    def __init__(self, seed):
        self.seed = seed

    def run(self):
        report = verify.run_verification(seed=self.seed)
        text = sweep.emit_csv(report.rows) + "".join(
            f"{c.name}|{c.passed}|{c.detail}\n" for c in report.checks)
        return Pass(report, text.encode())

    def check(self, report):
        # every check counts; report.passed is their conjunction
        return [c.passed for c in report.checks]


class Sweep:
    """Presets fig1, fig2 and fig3 through `run_sweep` at 200k draws per point."""

    presets = ("fig1", "fig2", "fig3")

    def __init__(self, seed):
        self.seed = seed
        self.specs = [s for p in self.presets for s in sweep.preset(p, seed=seed)]

    def run(self):
        rows = [row for spec in self.specs for row in sweep.run_sweep(spec)]
        return Pass(rows, (sweep.emit_csv(rows) + repr(rows)).encode())

    def check(self, rows):
        ok = []
        for row in rows:
            diverged = divergent(row.rule, row.antennas, row.shape)
            status = sweep.STATUS_DIVERGED if diverged else sweep.STATUS_OK
            if status != row.status:
                ok.append(False)
            elif diverged:
                ok.append(row.analytic is None and row.mc_mean is None)
            else:
                values = (row.analytic, row.mc_mean, row.mc_stderr, row.z_score)
                ok.append(all(v is not None and math.isfinite(v) for v in values)
                          and row.mc_stderr > 0.0 and abs(row.z_score) <= SWEEP_Z_LIMIT)
        return ok


WORKLOADS = {"verify": Verify, "sweep": Sweep}
