"""Check the traced run: exact counters repeat, answers and coverage hold.

Usage, from the root of a checkout:

    python3 perfbench/check_counters.py [--workloads verify sweep symbol] [--seed 7]

For each workload it makes two traced runs with the same seed and asserts
that

- both runs are correct, which includes the traced pass giving answers
  bit-identical to the untraced pass (run.py compares them);
- every counter in `tracing.EXACT_COUNTERS` is identical in both runs;
- the spans cover the traced pass: the self times of all spans add up to
  at least 99% of the traced wall time, so the per-layer times account for
  the untraced wall time up to the tracing overhead.

Exits with 1 and names what differed otherwise.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from collect import run_once  # noqa: E402
from tracing import EXACT_COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workloads:
        # --seconds 0: one untraced and one traced pass per run
        runs = [run_once(workload, args.seed, 0, 1)[:2] for _ in range(2)]
        for result, logs in runs:
            if not result["correct"]:
                problems.append(f"{workload}: traced run not correct: "
                                f"{result['failed']}/{result['attempted']} failed")
            accounting = next(entry for entry in logs if "self_s_total" in entry)
            share = accounting["self_s_total"] / accounting["traced_wall_s"][-1]
            if share < 0.99:
                problems.append(f"{workload}: spans cover only {share:.3f} of the traced pass")
        counters = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTERS} for r, _ in runs]
        if counters[0] != counters[1]:
            problems.append(f"{workload}: exact counters differ: {counters}")
        print(f"{workload}: {counters[0]}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
