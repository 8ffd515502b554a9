"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --seeds 1 2 3 4 5 [--workloads verify sweep] \
        [--seconds 40] [--trace 0] [--out summary.json]

Runs are made one after another. For every metric it reports the median,
the quartiles (`statistics.quantiles(values, n=4)`), and the spread: the
interquartile distance as a share of the median. An end-to-end metric is
listed under `above_third_of_bound` when its spread exceeds a third of its
bound in BENCHMARK.json, and under `above_bound` when it exceeds the bound.
`--out` writes the whole summary, the command that made it included, as
JSON; `baseline.json` and `baseline_trace.json` are such files.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    """One run of run.py: (result, earlier log lines, wall seconds of the run)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[-1], lines[:-1], elapsed


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"command": ["python3", "perfbench/collect.py", *(argv or sys.argv[1:])],
               "seconds": args.seconds, "trace": args.trace, "workloads": {},
               "above_third_of_bound": [], "above_bound": []}
    for workload in args.workloads:
        results, run_seconds = [], []
        for seed in args.seeds:
            result, logs, elapsed = run_once(workload, seed, args.seconds, args.trace)
            env = logs[0]["environment"]
            results.append(result)
            run_seconds.append(elapsed)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name, entry in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = entry["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] > bound / 3:
                line = f"{workload}.{name}: spread {stats['spread']:.3f} (bound {bound})"
                summary["above_third_of_bound"].append(line)
                flag = f"  <-- spread above bound/3 = {bound / 3:.3f}"
                if stats["spread"] > bound:
                    summary["above_bound"].append(line)
                    flag = f"  <-- spread above bound = {bound}"
            print(f"  {name:44s} median {stats['median']:.6g} {entry['unit']:8s} "
                  f"spread {stats['spread']:.3f}{flag}", flush=True)
        env.pop("seed")
        summary["workloads"][workload] = {
            "runs": len(results), "seeds": args.seeds, "environment": env,
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_seconds": summarise(run_seconds), "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
