"""The names the benchmark binds in robustgd must exist.

``perfbench/tracer.py`` wraps functions and methods by (module, attribute)
and skips a name it cannot find, so a rename in the package would turn its
per-layer metrics into silent zeros. These tests read the tracer's tables
and the other bindings the benchmark relies on (the call shapes of
``perfbench/workload.py`` included), without editing them, and run each
workload's short body once, as the bench starts it.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from robustgd.experiments import ExperimentConfig
from robustgd.simulation import RunTrace

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()

# Spans whose function was deleted from the package while the tracer still
# lists them; each must stay gone until the benchmark drops the span.
RETIRED = {
    "shift.project_l1",
    "losses.logistic.grads_z",
    "losses.quadratic.grads_z",
    "surrogate.ascend",
    "surrogate.penalized_objectives",
    "surrogate.exact_inner_maximizer",
    "losses.logistic.values",
    "losses.logistic.grads_theta",
    "losses.quadratic.values",
    "aggregation.check_screening_bound",
    "shift.perturb_test_set",
}


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_traced_function_resolves(span):
    modname, attr = tracer.FUNCTIONS[span]
    resolves = callable(vars(importlib.import_module(modname)).get(attr))
    assert resolves != (span in RETIRED), span


@pytest.mark.parametrize("span", sorted(tracer.METHODS))
def test_traced_method_resolves(span):
    modname, cls_name, attr = tracer.METHODS[span]
    cls = getattr(importlib.import_module(modname), cls_name)
    resolves = callable(vars(cls).get(attr))
    assert resolves != (span in RETIRED), span


def test_retired_spans_are_still_traced():
    # once the tracer drops a span, its entry here goes too
    assert RETIRED <= set(tracer.FUNCTIONS) | set(tracer.METHODS)


def test_hook_bindings_resolve():
    # the tracer's work counters bind these parameters and fields by name
    from robustgd.experiments import _roster, _train_config
    from robustgd.simulation import run_training

    assert {"roster", "cfg"} <= set(inspect.signature(run_training).parameters)
    assert "worker_norms" in RunTrace.__dataclass_fields__
    # _count_training reads cfg.screen.screen_count of the TrainConfig it is given
    cfg = _train_config(ExperimentConfig(preset="E1"))
    assert cfg.screen.screen_count == ExperimentConfig(preset="E1").screen_count
    # and np.asarray(roster.byzantine, dtype=int) as the byzantine ids: a plain
    # count there would read as one id and skew byz_kept_frac without an error
    for preset, ids in (("E1", [0, 1, 2]), ("E0", [])):
        byzantine = np.asarray(_roster(ExperimentConfig(preset=preset)).byzantine, dtype=int)
        assert byzantine.tolist() == ids, preset


def test_the_round_loop_calls_the_traced_names():
    # the tracer rebinds attacks.craft and aggregation.norm_screen where
    # simulation imported them; a call around those names reads 0 calls
    from robustgd import aggregation, attacks, simulation

    assert simulation.craft is attacks.craft
    assert simulation.norm_screen is aggregation.norm_screen


def test_a_batch_crafts_and_screens_once_per_round(monkeypatch):
    # attacks.craft.calls and aggregation.norm_screen.calls count batched
    # rounds: one stacked call each per round, whatever the number of runs
    from robustgd import simulation, verify

    calls = {"craft": 0, "norm_screen": 0}

    def counting(name):
        real = vars(simulation)[name]

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(simulation, name, counting(name))
    verify._quadratic_runs([(0, "aggressive"), (1, "counterexample"), (2, "intelligent")], 5)
    assert calls == {"craft": 5, "norm_screen": 5}


def test_experiments_and_verify_train_through_run_training(monkeypatch):
    # the tracer counts rounds only inside run_training, rebound at every
    # module that holds the name; a call path around it reads rounds_per_s = 0
    from robustgd import experiments, simulation, verify

    calls = []
    original = simulation.run_training

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (simulation, experiments, verify):
        if vars(module).get("run_training") is original:
            monkeypatch.setattr(module, "run_training", counted)
    cfg = ExperimentConfig(preset="E3", variant="erm", iterations=2)
    experiments.train(cfg, experiments.prepare_data(cfg))
    assert len(calls) == 1
    verify.breakpoint_suite(iterations=3)
    assert len(calls) > 1


def test_workload_call_shapes_bind():
    # perfbench/workload.py calls these with exactly these argument shapes
    import robustgd
    from robustgd import verify
    from robustgd.experiments import write_records

    cfg = ExperimentConfig(preset="E1")
    calls = [
        (verify.run_all, (), dict(fuzz_instances=200, n_seeds=2)),
        (robustgd.sweep, (cfg, "shift_q", [0.0, 0.05]), dict(variants=["nbs_only", "erm"])),
        (robustgd.run_experiment, (cfg,), {}),
        (write_records, ([], Path("records.jsonl")), {}),
    ]
    for func, args, kwargs in calls:
        inspect.signature(func).bind(*args, **kwargs)


def test_verify_suites_report_python_bools():
    # the benchmark writes each SuiteResult.passed to JSON, which refuses a numpy bool
    from robustgd import verify

    results = verify.run_all(fuzz_instances=50, n_seeds=1)
    assert len(results) == 4
    for result in results:
        assert type(result.passed) is bool, result.name
    json.dumps([asdict(r) for r in results])


def test_experiment_config_resolved_exists():
    cfg = ExperimentConfig(preset="E1")
    assert cfg.resolved() == cfg


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_short_and_counts_its_training(workload):
    # one short body as the bench runs it: a training path around run_training,
    # where the tracer counts, would read 0 rounds and 0 s of training
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "perfbench/workload.py", "--workload", workload,
                           "--seed", "0", "--short"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["rounds"] > 0
    assert result["train_s"] > 0
