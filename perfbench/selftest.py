"""Self-test of the benchmark's spans on shortened runs of each workload.

From the repository root:

    python3 perfbench/selftest.py

For each workload it runs a shortened body untraced and traced, then checks
that every span is called on exactly the workloads predicted for it (so a
call site that escaped patching shows up as zero calls) and that tracing does
not change the records digest. Exits 1 on any failure.
"""

import sys

from run import WORKLOADS, run_child
from tracer import FUNCTIONS, METHODS

E1, E3, VERIFY = WORKLOADS
LOGISTIC = {E1, E3}

# span -> workloads on which it must be called; on every other workload it must not be
CALLED_ON = {
    "data.synthetic_spambase_like": LOGISTIC,
    "data.split_and_shard": LOGISTIC,
    "data.quadratic_cloud": {VERIFY},
    "losses.sigmoid": LOGISTIC,
    "losses.logistic.grads_z": LOGISTIC,
    "losses.logistic.grads_theta": LOGISTIC,
    "losses.logistic.values": LOGISTIC,
    "losses.quadratic.grads_z": {VERIFY},
    "losses.quadratic.values": {VERIFY},
    "surrogate.ascend": {E1, E3, VERIFY},
    "surrogate.penalized_objectives": {E1, E3, VERIFY},
    "surrogate.surrogate_state": {VERIFY},
    "surrogate.exact_inner_maximizer": {VERIFY},
    "attacks.craft": {E1, E3, VERIFY},
    "aggregation.norm_screen": {E1, E3, VERIFY},
    "aggregation.check_screening_bound": {VERIFY},
    "simulation.run_training": {E1, E3, VERIFY},
    "simulation.gradient_dispersion": {VERIFY},
    "shift.perturb_test_set": LOGISTIC,
    "shift.project_l1": LOGISTIC,
    "bounds.solve_reference_optimum": {VERIFY},
    "bounds.check_aggregate_deviation": {VERIFY},
    "bounds.check_avg_sq_gradient": {VERIFY},
    "bounds.check_suboptimality": {VERIFY},
    "bounds.check_distance": {VERIFY},
    "experiments.prepare_data": LOGISTIC,
    "experiments.train": LOGISTIC,
    "experiments.evaluate": {E1},   # a shift_q sweep scores its curve without evaluate()
    "verify.fuzz_screening_bound": {VERIFY},
    "verify.deviation_trace_suite": {VERIFY},
    "verify.rate_bound_suite": {VERIFY},
    "verify.breakpoint_suite": {VERIFY},
}


def check(workload, seed):
    plain = run_child(workload, seed, short=True)
    traced = run_child(workload, seed, trace=1, short=True)
    problems = []
    for span, calls in traced["span_calls"].items():
        expected = workload in CALLED_ON[span]
        if (calls > 0) != expected:
            problems.append(f"{span}: {calls} calls, expected {'some' if expected else 'none'}")
    if plain["digest"] != traced["digest"]:
        problems.append(f"records digest changed under tracing: "
                        f"{plain['digest']} vs {traced['digest']}")
    problems += plain["failures"] + traced["failures"]
    return problems


def main():
    if set(CALLED_ON) != set(FUNCTIONS) | set(METHODS):
        sys.exit("CALLED_ON does not list exactly the traced spans")
    failed = False
    for workload in WORKLOADS:
        problems = check(workload, 0)
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {workload}")
        for problem in problems:
            print(f"  {problem}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
