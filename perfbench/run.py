"""scevm benchmark: one workload, one seed, timed passes, checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it times whole passes of the workload, tracing off, and
reports the end-to-end metrics. With ``--trace 1`` it alternates an
untraced and a traced pass and reports the per-layer metrics plus the
tracing overhead. Either way every answer is checked outside the timed
region, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
record the environment and the detail behind the numbers.
"""

import os

# pinned before numpy is imported, here and in every child interpreter
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_PER_PASS = 5
# the smallest call of either workload: one Monte Carlo chunk through the CLI
SETUP_ARGV = ["-m", "scevm.cli", "eval", "--L", "2", "--M", "1", "--mc", "--samples", "2"]


def log(**fields):
    print(json.dumps(fields, sort_keys=True), flush=True)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def setup_seconds():
    """Wall time for a fresh interpreter to import scevm and make its smallest call."""
    # bytecode caching on, as for an installed package: only the first
    # interpreter compiles scevm
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    # no timeout: a timed wait polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def timed_pass(workload, keep_outputs):
    """One pass. Only a kept pass holds its outputs, so that memory and
    peak_rss_mb do not grow with the number of passes."""
    start = time.perf_counter()
    result = workload.run()
    result.wall = time.perf_counter() - start
    result.fingerprint = hashlib.sha256(result.fingerprint).digest()
    if not keep_outputs:
        result.outputs = None
    return result


def repeat_for(seconds, step):
    """Call step() at least once, and again while the next call should end within seconds."""
    calls = 0
    start = time.perf_counter()
    while True:
        step()
        calls += 1
        if (time.perf_counter() - start) * (calls + 1) / calls > seconds:
            return


def count_failures(workload, passes):
    """(attempted, failed): the first pass is checked, and every later pass
    must repeat its answers byte for byte or all of its operations fail."""
    first = passes[0]
    ok = workload.check(first.outputs)
    wrong = ok.count(False)
    failed = sum(wrong if p.fingerprint == first.fingerprint else len(ok) for p in passes)
    return len(ok) * len(passes), failed


def end_to_end(workload, seconds):
    setup, passes = [], []

    def step():
        passes.append(timed_pass(workload, not passes))
        # set-up interpreters run between passes, so that they sample the
        # machine's speed over the whole run and not in one burst
        setup.extend(setup_seconds() for _ in range(SETUPS_PER_PASS))

    repeat_for(seconds, step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = count_failures(workload, passes)
    log(passes=[p.wall for p in passes], setup=setup)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "passed_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, attempted, failed


def per_layer(workload, seconds):
    from tracing import Tracer, layer_metrics

    plain, traced, tables = [], [], []
    tracer = None

    def pair():
        nonlocal tracer
        plain.append(timed_pass(workload, not plain))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(timed_pass(workload, False))
        finally:
            tracer.restore()
        tables.append(layer_metrics(tracer))
        if tracer.missing:
            log(untraced_sites=tracer.missing)

    repeat_for(seconds, pair)
    # tracing must not change a single bit of any answer
    attempted, failed = count_failures(workload, plain + traced)

    metrics = {key: (statistics.median(t[key][0] for t in tables), unit)
               for key, (_, unit) in tables[0].items()}
    overhead = statistics.median(t.wall - p.wall for p, t in zip(plain, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    selfs = tracer.self_by_name()
    log(untraced_wall_s=[p.wall for p in plain], traced_wall_s=[t.wall for t in traced],
        self_s_total=sum(selfs.values()),
        self_s_top={k: round(v, 4) for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])[:8]})
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scevm" / "__init__.py").is_file():
        print(f"error: no scevm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    log(environment=environment(args))
    workload = WORKLOADS[args.workload](args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(workload, args.seconds)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
