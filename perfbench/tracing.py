"""Spans around the calls between scevm's modules, recorded from outside.

scevm's modules import each other's functions with ``from ... import``,
so a call is intercepted by replacing the name in the module where the
caller looks it up (``analytic.marcum_q1``, ``sweep.estimate_evm``, ...).
`Tracer.install` does that for every site in `SITES` and `Tracer.restore`
puts the originals back.

Spans are aggregated as they close, so memory stays flat however many
special-function calls a pass makes. A span's self time is its duration
minus the durations of its direct child spans.
"""

import inspect
import statistics
import time
from collections import defaultdict

from scevm import analytic, simulate, specfun, sweep, verify

SPECFUN = ("marcum_q1", "regularized_gamma_p", "regularized_gamma_q",
           "gauss_2f1", "log_gamma", "gamma_ratio")
ROUTES = ("evm_max_sir_rayleigh", "evm_max_signal_rayleigh",
          "evm_max_sir_nakagami", "evm_max_signal_nakagami",
          "evm_max_sir_correlated", "evm_max_signal_correlated",
          "evm_fully_correlated")
VERIFY_FAMILIES = {
    "anchor": "anchor_checks",
    "reduction": "reduction_checks",
    "quadrature_identity": "quadrature_identity_checks",
    "monotonicity": "monotonicity_checks",
    "rule_ordering": "rule_ordering_checks",
    "asymptotic": "asymptotic_checks",
    "mc_grid": "mc_grid",
    "symbol_level": "symbol_level_checks",
}


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _estimate_counts(fn, args, kwargs, result):
    return {"kept": result.samples, "rejected": result.rejected}


def _symbol_counts(fn, args, kwargs, result):
    return {"symbols": result.samples * _bound(fn, args, kwargs, "slots")}


def _blocks(fn, args, kwargs, result):
    return {"blocks": _bound(fn, args, kwargs, "count")}


def _evaluations(fn, args, kwargs, result):
    return {"evaluations": result.evaluations}


def _rows(fn, args, kwargs, result):
    return {"rows": len(result)}


def _grid_rows(fn, args, kwargs, result):
    return {"rows": len(result[1])}


# (module, attribute looked up by the caller, span name, counter hook).
# analytic imports every kernel but regularized_gamma_q, which only
# marcum_q1 calls; inside specfun, log_gamma is also called by the others.
SITES = (
    [(analytic, fn, f"specfun.{fn}", None) for fn in SPECFUN if fn != "regularized_gamma_q"]
    + [(specfun, fn, f"specfun.{fn}", None)
       for fn in ("log_gamma", "regularized_gamma_q")]
    + [(analytic, "integrate_semi_infinite", "quadrature", _evaluations),
       (analytic, "integrate_weighted_sqrt", "quadrature", _evaluations),
       (verify, "integrate_semi_infinite", "quadrature", _evaluations)]
    + [(analytic, route, f"analytic.{route}", None) for route in ROUTES]
    + [(simulate, "draw_channels", "simulate.draw", _blocks),
       (simulate, "select_antenna", "simulate.select", None),
       (simulate, "_draw_gains", "simulate.symbol.gains", _blocks),
       (sweep, "estimate_evm", "simulate.estimate_evm", _estimate_counts),
       (verify, "estimate_evm", "simulate.estimate_evm", _estimate_counts),
       (verify, "estimate_evm_symbol_level", "simulate.symbol", _symbol_counts)]
    + [(sweep, "run_sweep", "sweep.run_sweep", _rows),
       (sweep, "analytic_formula", "sweep.analytic_formula", None),
       (verify, "analytic_formula", "sweep.analytic_formula", None),
       (verify, "run_verification", "verify.run_verification", None)]
    + [(verify, fn, f"verify.{family}", _grid_rows if family == "mc_grid" else None)
       for family, fn in VERIFY_FAMILIES.items()]
)

# spans whose individual durations are kept, for per-route percentiles
_KEEP_DURATIONS = {f"analytic.{route}" for route in ROUTES}


ANY = object()  # matches spans under any parent


class _Stat:
    __slots__ = ("calls", "total", "self_total", "counts", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0       # inclusive, recursive re-entries not added again
        self.self_total = 0.0
        self.counts = defaultdict(int)
        self.durations = []


class Tracer:
    """Collects spans from wrapped call sites, keyed by (name, parent name)."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.missing = []
        self._saved = []
        self._stack = []          # [name, child time] per open span
        self._active = defaultdict(int)

    def install(self):
        for module, attr, name, hook in SITES:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, hook):
        stack, active, stats = self._stack, self._active, self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += duration
                stat = stats[name, parent]
                stat.calls += 1
                stat.self_total += duration - frame[1]
                if not active[name]:
                    stat.total += duration
                if name in _KEEP_DURATIONS:
                    stat.durations.append(duration)
            if hook is not None:
                for key, value in hook(fn, args, kwargs, result).items():
                    stat.counts[key] += value
            return result

        return traced

    # aggregation -----------------------------------------------------

    def _select(self, name, parent=ANY):
        return [s for (n, p), s in self.stats.items()
                if n == name and (parent is ANY or p == parent)]

    def calls(self, name, parent=ANY):
        return sum(s.calls for s in self._select(name, parent))

    def seconds(self, name, parent=ANY):
        return sum(s.total for s in self._select(name, parent))

    def self_seconds(self, name, parent=ANY):
        return sum(s.self_total for s in self._select(name, parent))

    def count(self, name, key, parent=ANY):
        return sum(s.counts[key] for s in self._select(name, parent))

    def durations(self, name):
        return [d for s in self._select(name) for d in s.durations]

    def self_by_name(self):
        """Self seconds per span name; their sum is the traced time in spans."""
        out = defaultdict(float)
        for (name, _), s in self.stats.items():
            out[name] += s.self_total
        return dict(out)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t):
    """Per-layer metric values (name -> (value, unit)) from one traced pass."""
    m = {}
    for fn in SPECFUN:
        m[f"specfun.{fn}.calls"] = (t.calls(f"specfun.{fn}"), "count")
        m[f"specfun.{fn}.s"] = (t.seconds(f"specfun.{fn}"), "s")

    q_calls = t.calls("quadrature")
    q_evals = t.count("quadrature", "evaluations")
    m["quadrature.calls"] = (q_calls, "count")
    m["quadrature.evaluations"] = (q_evals, "count")
    m["quadrature.s"] = (t.seconds("quadrature"), "s")
    m["quadrature.self_s"] = (t.self_seconds("quadrature"), "s")
    m["quadrature.evals_per_call"] = (_ratio(q_evals, q_calls), "count")

    for route in ROUTES:
        name = f"analytic.{route}"
        durations = t.durations(name)
        m[f"{name}.calls"] = (t.calls(name), "count")
        m[f"{name}.s"] = (t.seconds(name), "s")
        m[f"{name}.p50_ms"] = (1e3 * statistics.median(durations) if durations else 0.0, "ms")

    mc = "simulate.estimate_evm"
    drawn = t.count("simulate.draw", "blocks", parent=mc)
    kept = t.count(mc, "kept")
    draw_s = t.seconds("simulate.draw", parent=mc)
    m["simulate.chunks"] = (t.calls("simulate.draw", parent=mc), "count")
    m["simulate.blocks_drawn"] = (drawn, "count")
    m["simulate.blocks_kept"] = (kept, "count")
    m["simulate.useful_ratio"] = (_ratio(kept, drawn), "ratio")
    m["simulate.rejected"] = (t.count(mc, "rejected"), "count")
    m["simulate.draw.s"] = (draw_s, "s")
    m["simulate.draw.mdraws_per_s"] = (_ratio(drawn, draw_s) / 1e6, "Mdraws/s")
    m["simulate.select.s"] = (t.seconds("simulate.select", parent=mc), "s")
    m["simulate.reduce.s"] = (t.self_seconds(mc), "s")

    sym = "simulate.symbol"
    sym_s = t.seconds(sym)
    m["simulate.symbol.s"] = (sym_s, "s")
    m["simulate.symbol.gains_s"] = (t.seconds("simulate.symbol.gains", parent=sym), "s")
    m["simulate.symbol.select_s"] = (t.seconds("simulate.select", parent=sym), "s")
    m["simulate.symbol.self_s"] = (t.self_seconds(sym), "s")
    m["simulate.symbol.chunks"] = (t.calls("simulate.symbol.gains", parent=sym), "count")
    m["simulate.symbol.msymbols_per_s"] = (_ratio(t.count(sym, "symbols"), sym_s) / 1e6,
                                           "Msym/s")

    m["sweep.points"] = (t.count("sweep.run_sweep", "rows"), "count")
    m["sweep.analytic_s"] = (t.seconds("sweep.analytic_formula", parent="sweep.run_sweep"), "s")
    m["sweep.mc_s"] = (t.seconds(mc, parent="sweep.run_sweep"), "s")
    m["sweep.self_s"] = (t.self_seconds("sweep.run_sweep"), "s")

    for family in VERIFY_FAMILIES:
        m[f"verify.{family}.s"] = (t.seconds(f"verify.{family}"), "s")
    m["verify.grid_retries"] = (t.calls(mc, parent="verify.mc_grid")
                                - t.count("verify.mc_grid", "rows"), "count")
    return m


# counters that must repeat exactly for a given workload and seed
EXACT_COUNTERS = ("quadrature.evaluations", "simulate.chunks", "simulate.blocks_drawn",
                  "verify.grid_retries", "sweep.points")
