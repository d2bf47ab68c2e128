"""The trace suites share their runs: each (seed, attack) pair is trained once.

A T-round run is the prefix of a longer run with the same seed and attack,
bit for bit; the suites rely on that to read T = 50 and T = 120 from the
T = 200 run, so these tests pin the equality and the work saved.
"""

from dataclasses import fields

import numpy as np
import pytest

from robustgd import verify
from robustgd.errors import ConfigError


@pytest.mark.parametrize("attack", ["aggressive", "counterexample"])
@pytest.mark.parametrize("seed", [0, 1])
def test_shorter_runs_are_prefixes_of_the_longest(seed, attack):
    *_, full, _ = verify._quadratic_run(seed, 200, attack)
    for T in (50, 120):
        *_, short, _ = verify._quadratic_run(seed, T, attack)
        prefix = full.prefix(T)
        for field in fields(short):
            np.testing.assert_array_equal(getattr(prefix, field.name),
                                          getattr(short, field.name), err_msg=field.name)
        np.testing.assert_array_equal(short.theta_final, full.iterates[T])


def test_prefix_refuses_rounds_outside_the_run():
    *_, trace, _ = verify._quadratic_run(0, 5)
    assert trace.prefix(5) is trace
    for rounds in (0, 6):
        with pytest.raises(ConfigError, match="prefix needs 1 <= rounds <= 5"):
            trace.prefix(rounds)


def test_shared_runs_train_each_pair_once_at_its_longest_horizon(monkeypatch):
    trained = []
    real = verify._quadratic_run

    def counting(seed, iterations, attack_kind="aggressive"):
        trained.append((seed, attack_kind, iterations))
        return real(seed, iterations, attack_kind)

    monkeypatch.setattr(verify, "_quadratic_run", counting)
    runs = verify._SharedRuns([(0, "aggressive", 120), (0, "aggressive", 200),
                               (1, "aggressive", 50)])
    assert runs.take(0, "aggressive", 120)[3].iterations == 120
    assert runs.take(1, "aggressive", 50)[3].iterations == 50
    assert runs.take(0, "aggressive", 200)[3].iterations == 200
    assert trained == [(0, "aggressive", 200), (1, "aggressive", 50)]
    assert not runs._held  # every run is dropped after its last declared use
    with pytest.raises(ConfigError, match="no declared use left"):
        runs.take(0, "aggressive", 200)


def test_run_all_trains_each_pair_once_and_reports_as_the_suites_alone(monkeypatch):
    real_train, real_optimum = verify.run_training, verify.solve_reference_optimum
    rounds, solves = [], []

    def counting_train(model, X, Y, roster, cfg):
        rounds.append((roster.m, cfg.iterations))
        return real_train(model, X, Y, roster, cfg)

    def counting_optimum(*args, **kwargs):
        solves.append(1)
        return real_optimum(*args, **kwargs)

    monkeypatch.setattr(verify, "run_training", counting_train)
    monkeypatch.setattr(verify, "solve_reference_optimum", counting_optimum)
    shared = verify.run_all(fuzz_instances=50, n_seeds=4)
    # the trace suites' runs have 20 workers; the breakpoint demo's two have 10
    trace_runs = [T for m, T in rounds if m == 20]
    assert sorted(trace_runs) == [120, 120, 200, 200, 200, 200]   # was 12 runs
    assert sum(trace_runs) == 1040                                 # was 1,480 rounds
    assert sorted(T for m, T in rounds if m == 10) == [150, 150]
    assert len(solves) == 4  # one reference optimum per seed, for both horizons

    alone = [
        verify.fuzz_screening_bound(n_instances=50),
        verify.deviation_trace_suite(n_seeds=4),
        verify.rate_bound_suite(n_seeds=4),
        verify.breakpoint_suite(),
    ]
    assert shared == alone
    assert all(result.passed for result in shared)
