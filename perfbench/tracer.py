"""Span tracer for the robustgd layers, installed from outside the package.

Each traced function is replaced at every place the package holds a reference
to it: the defining module and every module that imported it by name (for
example ``simulation`` and ``verify`` import ``run_training``, ``ascend`` and
``norm_screen`` directly). Patching only the defining module would leave those
call sites unwrapped and their spans would silently read zero calls.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls a run makes: call count, inclusive seconds, and self
seconds (inclusive time minus the time covered by child spans). A few hooks
also count work at the same boundaries: rows and row-steps, training rounds,
per-round intervals and how many byzantine reports survived screening.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# span name -> (module, attribute); every reference to the function is wrapped
FUNCTIONS = {
    "data.synthetic_spambase_like": ("robustgd.data", "synthetic_spambase_like"),
    "data.split_and_shard": ("robustgd.data", "split_and_shard"),
    "data.quadratic_cloud": ("robustgd.data", "quadratic_cloud"),
    "losses.sigmoid": ("robustgd.losses", "sigmoid"),
    "surrogate.ascend": ("robustgd.surrogate", "ascend"),
    "surrogate.penalized_objectives": ("robustgd.surrogate", "penalized_objectives"),
    "surrogate.surrogate_state": ("robustgd.surrogate", "surrogate_state"),
    "surrogate.exact_inner_maximizer": ("robustgd.surrogate", "exact_inner_maximizer"),
    "attacks.craft": ("robustgd.attacks", "craft"),
    "aggregation.norm_screen": ("robustgd.aggregation", "norm_screen"),
    "aggregation.check_screening_bound": ("robustgd.aggregation", "check_screening_bound"),
    "simulation.run_training": ("robustgd.simulation", "run_training"),
    "simulation.gradient_dispersion": ("robustgd.simulation", "gradient_dispersion"),
    "shift.perturb_test_set": ("robustgd.shift", "perturb_test_set"),
    "shift.project_l1": ("robustgd.shift", "project_l1"),
    "bounds.solve_reference_optimum": ("robustgd.bounds", "solve_reference_optimum"),
    "bounds.check_aggregate_deviation": ("robustgd.bounds", "check_aggregate_deviation"),
    "bounds.check_avg_sq_gradient": ("robustgd.bounds", "check_avg_sq_gradient"),
    "bounds.check_suboptimality": ("robustgd.bounds", "check_suboptimality"),
    "bounds.check_distance": ("robustgd.bounds", "check_distance"),
    "experiments.prepare_data": ("robustgd.experiments", "prepare_data"),
    "experiments.train": ("robustgd.experiments", "train"),
    "experiments.evaluate": ("robustgd.experiments", "evaluate"),
    "verify.fuzz_screening_bound": ("robustgd.verify", "fuzz_screening_bound"),
    "verify.deviation_trace_suite": ("robustgd.verify", "deviation_trace_suite"),
    "verify.rate_bound_suite": ("robustgd.verify", "rate_bound_suite"),
    "verify.breakpoint_suite": ("robustgd.verify", "breakpoint_suite"),
}

# span name -> (module, class, method); wrapped on the class
METHODS = {
    "losses.logistic.grads_z": ("robustgd.losses", "LogisticLoss", "grads_z"),
    "losses.logistic.grads_theta": ("robustgd.losses", "LogisticLoss", "grads_theta"),
    "losses.logistic.values": ("robustgd.losses", "LogisticLoss", "values"),
    "losses.quadratic.grads_z": ("robustgd.losses", "QuadraticLoss", "grads_z"),
    "losses.quadratic.values": ("robustgd.losses", "QuadraticLoss", "values"),
}

# counters kept by the hooks below; a per-layer metric of the same name reads one
COUNTERS = (
    "surrogate.ascend.row_steps",
    "losses.grads_z.rows",
    "shift.project_l1.rows",
    "simulation.rounds",
    "aggregation.byz_reports",
)
# per-layer metric suffix -> field of a span's totals
SPAN_STATS = {"calls": "calls", "self_s": "self_time", "s": "total"}
# compares a traced with an untraced process, so run.py measures it
OVERHEAD = "trace_overhead_frac"

CHECK_SPANS = (
    "bounds.check_aggregate_deviation",
    "bounds.check_avg_sq_gradient",
    "bounds.check_suboptimality",
    "bounds.check_distance",
)


def metric_units(section):
    """name -> unit of every metric that BENCHMARK.json lists under ``section``."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def import_all(package):
    """Import every submodule so that every by-name reference exists before patching."""
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        importlib.import_module(info.name)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregated spans plus work counters for one process."""

    def __init__(self, clock):
        self.clock = clock        # seconds; the caller decides what it excludes
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)
        self.round_ms = []
        self._stack = []          # child-time accumulators of the open spans
        self._round_mark = None   # last round boundary inside an open run_training span

    def wrap(self, name, fn, on_call=None, on_return=None):
        stats, stack, clock = self.stats, self._stack, self.clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total += dur
                st.self_time += dur - child[0]
                if stack:
                    stack[-1][0] += dur
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, names):
        """Wrap the named spans at every reference held by a loaded robustgd module."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "robustgd" or key.startswith("robustgd.")]
        for name in names:
            if name in METHODS:
                modname, cls_name, attr = METHODS[name]
                home = getattr(sys.modules[modname], cls_name)
                owners = [home]
            else:
                modname, attr = FUNCTIONS[name]
                home = sys.modules[modname]
                owners = modules
            original = vars(home).get(attr)
            if original is None:
                continue  # the function no longer exists; its metrics read zero
            traced = self.wrap(name, original, *self._hooks(name, original))
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, traced)

    # -- work counters --------------------------------------------------

    def _hooks(self, name, fn):
        counts = self.counts
        if name == "surrogate.ascend":
            sig = inspect.signature(fn)

            def on_call(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                steps = bound.arguments.get("t_z")
                if steps is None:
                    steps = bound.arguments["cfg"].t_z
                counts["surrogate.ascend.row_steps"] += np.shape(bound.arguments["X"])[0] * steps
            return on_call, None
        if name in ("losses.logistic.grads_z", "losses.quadratic.grads_z"):
            def on_call(args, kwargs):
                counts["losses.grads_z.rows"] += np.shape(args[2])[0]  # (self, theta, Z, Y)
            return on_call, None
        if name == "shift.project_l1":
            def on_call(args, kwargs):
                counts["shift.project_l1.rows"] += np.shape(args[0])[0]
            return on_call, None
        if name == "aggregation.norm_screen":
            return None, self._on_screen
        if name == "simulation.run_training":
            sig = inspect.signature(fn)

            def on_call(args, kwargs):
                self._round_mark = self.clock()

            def on_return(args, kwargs, trace):
                self._round_mark = None
                bound = sig.bind(*args, **kwargs)
                self._count_training(bound.arguments["roster"], bound.arguments["cfg"], trace)
            return on_call, on_return
        return None, None

    def _on_screen(self, args, kwargs, result):
        # one screening call per round, so its returns delimit the rounds
        if self._round_mark is not None:
            now = self.clock()
            self.round_ms.append(1e3 * (now - self._round_mark))
            self._round_mark = now

    def _count_training(self, roster, cfg, trace):
        norms = np.asarray(trace.worker_norms)
        rounds, m = norms.shape
        self.counts["simulation.rounds"] += rounds
        byzantine = np.asarray(roster.byzantine, dtype=int)
        if byzantine.size == 0:
            return
        keep = m - cfg.screen.screen_count
        kept = np.argsort(norms, axis=1, kind="stable")[:, :keep]
        self.counts["aggregation.byz_reports"] += rounds * byzantine.size
        self.counts["aggregation.byz_kept"] += int(np.isin(kept, byzantine).sum())

    # -- results ----------------------------------------------------------

    def training_totals(self):
        """(rounds, seconds inside run_training) for the end-to-end rate."""
        return self.counts["simulation.rounds"], self.stats["simulation.run_training"].total

    def span_calls(self):
        return {name: self.stats[name].calls for name in list(FUNCTIONS) + list(METHODS)}

    def work_counts(self):
        """Every count that must repeat exactly between runs of one seed."""
        work = {f"{name}.calls": calls for name, calls in self.span_calls().items()}
        work.update(self.counts)
        work["simulation.round_ms.samples"] = len(self.round_ms)
        return work

    def layer_metrics(self):
        stats, counts = self.stats, self.counts
        samples = np.asarray(self.round_ms)
        reports = counts["aggregation.byz_reports"]
        derived = {
            "aggregation.byz_kept_frac": counts["aggregation.byz_kept"] / reports if reports else 0.0,
            "simulation.round_ms.samples": int(samples.size),
            "simulation.round_ms.p50": float(np.percentile(samples, 50)) if samples.size else 0.0,
            "simulation.round_ms.p95": float(np.percentile(samples, 95)) if samples.size else 0.0,
            "bounds.check.s": sum(stats[name].total for name in CHECK_SPANS),
        }
        out = {}
        for metric in metric_units("per_layer"):
            span, _, stat = metric.rpartition(".")
            if metric == OVERHEAD:
                continue
            if metric in derived:
                out[metric] = derived[metric]
            elif metric in COUNTERS:
                out[metric] = counts[metric]
            elif (span in FUNCTIONS or span in METHODS) and stat in SPAN_STATS:
                out[metric] = getattr(stats[span], SPAN_STATS[stat])
            else:
                raise KeyError(f"BENCHMARK.json lists {metric}, which the tracer does not measure")
        return out
