"""robustgd benchmark: three workloads, end-to-end metrics or a traced run.

From the repository root:

    python3 perfbench/run.py --workload e1_alg2 --seed 0 --seconds 35 --trace 0

Every body runs in a fresh process started from ``src`` with BLAS pinned to
one thread, so each one pays and measures its own set-up. With ``--trace 0``
bodies repeat until ``--seconds`` would be exceeded (at least one runs) and
the end-to-end metrics are medians over them; set-up is sampled at least
MIN_SETUPS times. Timings are reported at a reference machine speed: each is
scaled by REF_SLICE_S over the mean time of a fixed reference-kernel slice
measured in the same process (see ``at_reference`` and
``workload.ReferenceClock``); raw medians are printed too.
With ``--trace 1`` the workload runs once untraced and twice traced: the
per-layer metrics come from the first traced body, the work counts of the
two traced bodies must repeat exactly, and all three must write the same
records digest. The last stdout line is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import OVERHEAD, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 7
REF_SLICE_S = 0.0007   # reference-slice time that defines the reference speed
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=134217728"
WORKLOADS = ("e1_alg2", "e3_shift_sweep", "verify")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Fixed glibc malloc thresholds: with the adaptive defaults, whether freed
    # numpy temporaries are trimmed back to the OS (and faulted in again on the
    # next call) depends on the process's allocation history, which flipped
    # single bodies between two speeds up to 2x apart.
    env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload, seed, trace=0, short=False, setup_only=False):
    """Start one workload process; return its result with the measured set-up time."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    cmd += ["--short"] * short + ["--setup-only"] * setup_only
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=child_env()) as proc:
        for line in proc.stdout:
            if line.strip() == "ready":
                break
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"{workload} process exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["elapsed_s"] = time.perf_counter() - start
    return result


def at_reference(seconds, slice_s):
    """Scale a timing to the speed at which one reference slice takes REF_SLICE_S.

    On a shared 2-core virtual machine the speed of the same code drifted by
    tens of percent within one body and raw body times spread by 12-40% (IQR
    over median). Reference slices run evenly through the body follow that
    drift; body time over mean slice time spread by 4-5% per body.
    """
    return seconds * REF_SLICE_S / slice_s


def end_to_end(workload, seed, seconds):
    deadline = time.perf_counter() + seconds
    bodies = [run_child(workload, seed)]
    while time.perf_counter() + max(b["elapsed_s"] for b in bodies) <= deadline:
        bodies.append(run_child(workload, seed))
    setups = list(bodies)
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, setup_only=True))
    median = statistics.median
    metrics = {
        "setup_s": median(at_reference(p["setup_s"], p["cal_setup"]) for p in setups),
        "wall_s": median(at_reference(b["wall_s"], b["cal_body"]) for b in bodies),
        "rounds_per_s": median([b["rounds"] / at_reference(b["train_s"], b["cal_body"])
                                for b in bodies if b["train_s"] > 0] or [0.0]),
        "peak_rss_mb": median(b["peak_rss_mb"] for b in bodies),
    }
    print(f"# {len(bodies)} bodies, {len(setups)} set-up samples; metrics are medians")
    print(f"# raw medians: setup_s {median(p['setup_s'] for p in setups)!r} s, "
          f"wall_s {median(b['wall_s'] for b in bodies)!r} s, reference slice "
          f"{median(b['cal_body'] for b in bodies)!r} s against REF_SLICE_S={REF_SLICE_S}")
    units = metric_units("end_to_end")
    return bodies, [], {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def traced(workload, seed):
    plain = run_child(workload, seed)
    first, second = run_child(workload, seed, trace=1), run_child(workload, seed, trace=1)
    once, again = first["work"], second["work"]
    problems = [f"work count {k} differs between traced runs: {once.get(k)} vs {again.get(k)}"
                for k in sorted(once.keys() | again.keys()) if once.get(k) != again.get(k)]
    layers = dict(first["layers"])
    plain_wall = at_reference(plain["wall_s"], plain["cal_body"])
    traced_wall = statistics.median(at_reference(b["wall_s"], b["cal_body"]) for b in (first, second))
    layers[OVERHEAD] = (traced_wall - plain_wall) / plain_wall
    units = metric_units("per_layer")
    return [plain, first, second], problems, {
        k: {"value": v, "unit": units[k]} for k, v in layers.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "robustgd" / "__init__.py").is_file():
        sys.exit(f"no robustgd sources under {ROOT / 'src'}; run from a repository checkout")

    try:
        if args.trace:
            bodies, problems, metrics = traced(args.workload, args.seed)
        else:
            bodies, problems, metrics = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        sys.exit(f"benchmark aborted: {exc}")

    digests = {b["digest"] for b in bodies}
    if len(digests) != 1:
        problems.append(f"records digest differs between runs of one seed: {sorted(digests)}")
    failures = [f for b in bodies for f in b["failures"]]
    attempted = sum(b["ops"] for b in bodies)
    miscls = [b["shift_miscls"] for b in bodies if b["shift_miscls"] is not None]

    print(f"# env {json.dumps(bodies[0]['env'], sort_keys=True)}")
    print("# the round loop is synchronous and single-process: no queue, no retries, so no "
          "waiting times and no scaling over workers are reported")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if miscls:
        print(f"shift_miscls {statistics.median(miscls)!r} frac")
    print(f"ops_failed {len(failures) / attempted!r} frac ({len(failures)} of {attempted})")
    print(f"records_digest {sorted(digests)[0]}")
    for problem in failures + problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
