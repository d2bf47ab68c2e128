"""The verify suites: the screening fuzz and the shared trace runs.

The screening fuzz draws its instances one at a time and checks each with
``norm_screen`` and ``screening_deviation_bound``; a digest pins the draw and
the detail lines pin its figures. The trace suites share their runs: a
T-round run is the prefix of a longer run with the same seed and attack, bit
for bit, and the suites rely on that to read T = 50 and T = 120 from the
T = 200 run; the runs of one attack kind train as one batch, so these tests
pin the equality, the batches and the work saved.
"""

import hashlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from robustgd import verify
from robustgd.errors import ConfigError

# sha256 of the first 500 fuzz instances at seed 0 (m, d and b as int64, rows,
# honest indices as int64, S): the seed must keep naming the same instances
FIRST_500_DIGEST = "f944e703e4a39318cea8a1d81d8f95d2e8b2777e947381f3d11e8a50d87523b4"


@pytest.mark.parametrize("seed, detail", [
    (0, "failures=0, worst slack=5.916e-02, max ||G-S||/rhs=0.7200"),
    (7, "failures=0, worst slack=1.533e-01, max ||G-S||/rhs=0.7107"),
])
def test_fuzz_reports_the_figures_it_always_reported(seed, detail):
    assert verify.fuzz_screening_bound(n_instances=2000, seed=seed).detail == detail


def test_draw_keeps_the_per_instance_draws_instances():
    digest = hashlib.sha256()
    for rows, honest, b, S in verify._screening_instances(500, seed=0):
        digest.update(np.array([*rows.shape, b], np.int64).tobytes())
        digest.update(rows.tobytes())
        digest.update(np.flatnonzero(honest).astype(np.int64).tobytes())
        digest.update(S.tobytes())
    assert digest.hexdigest() == FIRST_500_DIGEST


def test_fuzz_holds_one_instance_at_a_time():
    verify.fuzz_screening_bound(n_instances=10)  # imports and first-call caches
    tracemalloc.start()
    try:
        verify.fuzz_screening_bound(n_instances=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the largest instance is 50 x 64 floats, 26 kB; all 2,000 would be tens of MB
    assert peak < 5e5


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


def test_prefix_cuts_every_per_round_field():
    *_, trace, _ = verify._quadratic_run(0, 5)
    assert [f.name for f in fields(trace)][:2] == ["aggregated", "aggregated_norms"]  # no eta
    prefix = trace.prefix(3)
    for field in fields(trace):
        if field.name != "theta_final":
            assert len(getattr(prefix, field.name)) == 3, field.name


def test_shared_runs_train_each_pair_once_at_its_longest_horizon(monkeypatch):
    alone = verify._quadratic_run(1, 50)
    batches = []
    real = verify.train_runs

    def counting(model, X, Y, rosters, cfgs):
        batches.append(([cfg.seed for cfg in cfgs], rosters[0].attack.kind, cfgs[0].iterations))
        return real(model, X, Y, rosters, cfgs)

    monkeypatch.setattr(verify, "train_runs", counting)
    runs = verify._SharedRuns([(0, "aggressive", 120), (0, "aggressive", 200),
                               (1, "aggressive", 50), (1, "counterexample", 50)])
    assert runs.take(0, "aggressive", 120)[3].iterations == 120
    # the first request trains both aggressive seeds as one batch, at the longest horizon of
    # either, and cuts each run to its own longest horizon
    assert batches == [([0, 1], "aggressive", 200)]
    assert runs._held[1, "aggressive"][3].iterations == 50
    shared = runs.take(1, "aggressive", 50)[3]
    assert runs.take(0, "aggressive", 200)[3].iterations == 200
    assert runs.take(1, "counterexample", 50)[3].iterations == 50
    assert batches == [([0, 1], "aggressive", 200), ([1], "counterexample", 50)]
    assert not runs._held  # every run is dropped after its last declared use
    with pytest.raises(ConfigError, match="no declared use left"):
        runs.take(0, "aggressive", 200)
    # a run of a batch, cut and diagnosed, is the run trained alone
    for field in fields(shared):
        if getattr(shared, field.name) is not None:
            np.testing.assert_array_equal(getattr(shared, field.name),
                                          getattr(alone[3], field.name), err_msg=field.name)


def test_run_all_trains_each_pair_once_and_reports_as_the_suites_alone(monkeypatch):
    real_batch, real_train = verify.train_runs, verify.run_training
    real_optimum = verify.solve_reference_optimum
    batches, single, solves = [], [], []

    def counting_batch(model, X, Y, rosters, cfgs):
        batches.append((len(rosters), cfgs[0].iterations))
        return real_batch(model, X, Y, rosters, cfgs)

    def counting_train(model, X, Y, roster, cfg):
        single.append((roster.m, cfg.iterations))
        return real_train(model, X, Y, roster, cfg)

    def counting_optimum(*args, **kwargs):
        solves.append(1)
        return real_optimum(*args, **kwargs)

    monkeypatch.setattr(verify, "train_runs", counting_batch)
    monkeypatch.setattr(verify, "run_training", counting_train)
    monkeypatch.setattr(verify, "solve_reference_optimum", counting_optimum)
    shared = verify.run_all(fuzz_instances=50, n_seeds=4)
    # (R, T) of each batch: aggressive seeds 0-3, then counterexample seeds 1 and 3, each
    # at its kind's longest horizon; was 6 runs of 1,040 rounds trained one at a time
    assert batches == [(4, 200), (2, 200)]
    assert sum(T for _, T in batches) == 400                      # batched rounds
    assert sum(R * T for R, T in batches) == 1200                 # run-rounds
    # only the breakpoint demo's two 10-worker runs train alone
    assert single == [(10, 150), (10, 150)]
    assert len(solves) == 4  # one reference optimum per seed, for both horizons

    alone = [
        verify.fuzz_screening_bound(n_instances=50),
        verify.deviation_trace_suite(n_seeds=4),
        verify.rate_bound_suite(n_seeds=4),
        verify.breakpoint_suite(),
    ]
    assert shared == alone
    assert all(result.passed for result in shared)


def test_deviation_suite_reports_its_tightest_iteration():
    seeds, rounds = 3, 30
    reports = []
    for seed in range(seeds):
        *_, trace, inputs = verify._quadratic_run(seed, rounds)
        reports += verify.check_aggregate_deviation(trace, inputs)
    worst = min(r.margin for r in reports)
    tightest = max(r.measured_value / r.bound_value for r in reports)
    assert 0.0 < tightest < 1.0
    result = verify.deviation_trace_suite(n_seeds=seeds, iterations=rounds)
    # the text before the figure is the one the suite printed without it
    assert result.detail == (f"violations=0, worst margin={worst:.3e}, "
                             f"max ||G-grad F||/bound={tightest:.4f}")
