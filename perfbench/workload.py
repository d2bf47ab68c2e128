"""One benchmark process: set up a workload, run its body once, report as JSON.

run.py starts this file with BLAS pinned to one thread and ``src`` on
PYTHONPATH; to run it by hand from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/workload.py \\
        --workload e1_alg2 --seed 0 [--trace 1] [--short] [--setup-only]

Protocol on stdout: the line ``ready`` once set-up is done (the parent times
set-up up to it), then one JSON line with the body's results, which include
the mean reference-slice time right after set-up (``cal_setup``) and during
the body (``cal_body``).
``--short`` shrinks each workload for the span self-test; ``--trace 1`` wraps
every layer in spans, ``--trace 0`` wraps only ``run_training`` to count
rounds and the seconds spent inside it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import FUNCTIONS, METHODS, Tracer, import_all

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

T = 300          # training rounds of every full-size run
SHORT_T = 20
SLICE_STEPS = 40        # one reference-kernel slice lasts under 1 ms
SLICE_PERIOD_S = 0.05
SETUP_SLICES = 200      # slices run back to back after set-up, to scale set-up time
E1_BAND = 0.35   # criterion-7 ceiling on E1 alg2 shifted misclassification
E3_BUDGETS = [round(0.05 * i, 2) for i in range(11)]
E3_VARIANTS = ["nbs_only", "erm"]


def setup_e1(robustgd, seed, short):
    from robustgd.experiments import ExperimentConfig, prepare_data

    cfg = ExperimentConfig(preset="E1", variant="alg2", iterations=SHORT_T if short else T,
                           seed=seed, data_seed=seed)
    prepare_data(cfg.resolved())
    return cfg


def body_e1(robustgd, cfg):
    """One E1 alg2 training run plus its L1 q=0.3 evaluation: two operations."""
    records = robustgd.run_experiment(cfg)
    miscls = records[0]["results"]["shift_misclassification"]
    failures = [] if miscls < E1_BAND else [
        f"E1 alg2 shift_miscls {miscls:.4f} is not below {E1_BAND}"]
    return records, failures, [miscls]


def setup_e3(robustgd, seed, short):
    from robustgd.experiments import ExperimentConfig, prepare_data

    cfg = ExperimentConfig(preset="E3", iterations=SHORT_T if short else T,
                           seed=seed, data_seed=seed)
    prepare_data(cfg.resolved())
    return cfg, ([0.0, 0.25, 0.5] if short else E3_BUDGETS)


def body_e3(robustgd, state):
    """A shift_q sweep of two no-ascent variants: one training run and one curve each."""
    cfg, budgets = state
    records = robustgd.sweep(cfg, "shift_q", budgets, variants=E3_VARIANTS)
    failures = []
    values = []
    for variant in E3_VARIANTS:
        curve = [r["results"]["shift_misclassification"] for r in records
                 if r["config"]["variant"] == variant]
        values += curve
        if len(curve) != len(budgets) or any(b < a for a, b in zip(curve, curve[1:])):
            failures.append(f"E3 {variant} shift curve is not non-decreasing over "
                            f"{len(budgets)} budgets: {curve}")
    return records, failures, values


def setup_verify(robustgd, seed, short):
    # The suites build their own data from fixed internal seeds; --seed is unused.
    # The full size is the `robustgd verify` defaults.
    return (200, 2) if short else (10_000, 20)


def body_verify(robustgd, state):
    """`robustgd verify` at its defaults: four suites, one operation each."""
    from robustgd import verify

    fuzz_instances, n_seeds = state
    results = verify.run_all(fuzz_instances=fuzz_instances, n_seeds=n_seeds)
    # breakpoint_suite reports passed as a numpy bool, which json rejects
    records = [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results]
    failures = [f"verify suite failed: {r['name']}: {r['detail']}"
                for r in records if not r["passed"]]
    return records, failures, []


# workload -> (set-up, body, operations per body)
WORKLOADS = {
    "e1_alg2": (setup_e1, body_e1, 2),
    "e3_shift_sweep": (setup_e3, body_e3, 2 * len(E3_VARIANTS)),
    "verify": (setup_verify, body_verify, 4),
}


def records_digest(records):
    """sha256 of the byte-stable JSONL file that write_records produces."""
    from robustgd.experiments import write_records

    tmp = HERE / ".tmp"
    tmp.mkdir(exist_ok=True)
    path = tmp / f"records-{os.getpid()}.jsonl"
    try:
        write_records(records, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        path.unlink(missing_ok=True)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class ReferenceClock:
    """Body clock that samples the machine's speed evenly over the body.

    An interval timer interrupts the body every SLICE_PERIOD_S and runs one
    slice of a fixed kernel (numpy calls on 10x6 arrays plus interpreter work;
    no robustgd code) between two bytecodes. ``now`` excludes the time spent in
    slices, so the body's wall time and every span see only robustgd work,
    while the mean slice time measures the machine's speed over the same
    seconds. run.py divides timings by it to report them at a reference speed.
    On a shared host the speed drifts by tens of percent within one body, so a
    kernel timed only before and after the body does not follow it. Of the
    kernels tried on a 2-core virtual machine (this one, numpy calls on 153x57
    arrays, random gathers and dict lookups over a few MB), this one tracked
    the body time of all three workloads best: body time over slice time
    spread by under 5% (IQR over median, about 40 bodies each) against 6-16%.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((10, 6))
        self.t = rng.standard_normal(6)
        self.spent = 0.0    # seconds of the body spent in slices, warm-up included
        self.timed = 0.0    # seconds of the timed part of the slices
        self.slices = 0

    def kernel(self, steps):
        a, t = self.a, self.t
        for _ in range(steps):
            r = a @ t
            np.linalg.norm(a + 0.1 * np.outer(r, t), axis=1)
            acc = 0
            for j in range(150):
                acc += j & 7

    def _slice(self, signum, frame):
        start = time.perf_counter()
        self.kernel(1)   # untimed: refills the caches the body has evicted
        warm = time.perf_counter()
        self.kernel(SLICE_STEPS)
        end = time.perf_counter()
        self.spent += end - start
        self.timed += end - warm
        self.slices += 1

    def now(self):
        return time.perf_counter() - self.spent

    def calibrate(self, slices):
        """Mean seconds of one slice, run back to back."""
        self.kernel(1)
        start = time.perf_counter()
        for _ in range(slices):
            self.kernel(SLICE_STEPS)
        return (time.perf_counter() - start) / slices

    def start(self):
        self.spent, self.timed, self.slices = 0.0, 0.0, 0
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def stop(self):
        """Stop slicing; return the mean seconds of one slice during the body."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.timed / self.slices if self.slices else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import robustgd

    if Path(robustgd.__file__).resolve().parent.parent != SRC:
        sys.exit(f"robustgd was imported from {robustgd.__file__}, not from {SRC}")
    import_all(robustgd)
    clock = ReferenceClock()
    tracer = Tracer(clock.now)
    tracer.install(list(FUNCTIONS) + list(METHODS) if args.trace else ["simulation.run_training"])

    setup, body, ops = WORKLOADS[args.workload]
    state = setup(robustgd, args.seed, args.short)
    print("ready", flush=True)
    cal_setup = clock.calibrate(SETUP_SLICES)
    if args.setup_only:
        print(json.dumps({"cal_setup": cal_setup}), flush=True)
        return

    clock.start()
    start = clock.now()
    try:
        records, failures, miscls = body(robustgd, state)
    except Exception:
        traceback.print_exc()
        records, failures, miscls = [], [f"{args.workload} raised; traceback on stderr"] * ops, []
    wall = clock.now() - start
    cal_body = clock.stop() or cal_setup   # a body shorter than one period has no slices
    rounds, train_s = tracer.training_totals()
    result = {
        "wall_s": wall,
        "cal_setup": cal_setup,
        "cal_body": cal_body,
        "rounds": rounds,
        "train_s": train_s,
        "ops": ops,
        "failures": failures,
        "shift_miscls": float(np.mean(miscls)) if miscls else None,
        "digest": records_digest(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        result["span_calls"] = tracer.span_calls()
        result["work"] = tracer.work_counts()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
