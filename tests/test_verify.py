"""The verify suites: the screening fuzz and the shared trace runs.

The screening fuzz draws its instances one at a time and checks each with
``_screen``, the body of ``norm_screen``, and ``screening_deviation_bound``
under one errstate for the whole loop; a digest pins the draw, the detail
lines pin its figures, and a count of contexts pins that none is entered
per instance. The trace suites share their runs: a T-round run is the prefix
of a longer run with the same seed and attack, bit for bit, and the suites
rely on that to read T = 50 and T = 120 from the T = 200 run; every
(seed, attack) pair trains in one batch, so these tests pin the equality,
the batch, the work saved and the suites' figures.
"""

import hashlib
import inspect
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import quadratic_run
from robustgd import verify
from robustgd.errors import ConfigError

# sha256 of the first 500 fuzz instances at seed 0 (m, d and b as int64, rows,
# honest indices as int64, S): the seed must keep naming the same instances
FIRST_500_DIGEST = "f944e703e4a39318cea8a1d81d8f95d2e8b2777e947381f3d11e8a50d87523b4"
# the same at seed 7, taken before each instance's normals came from one generator call
FIRST_500_DIGEST_SEED_7 = "6a4753c8a711a0062246cde9bf5cfa316f6ac161ad3bccc95e9ff9680f6980c6"


@pytest.mark.parametrize("seed, detail", [
    (0, "failures=0, worst slack=5.916e-02, max ||G-S||/rhs=0.7200"),
    (7, "failures=0, worst slack=1.533e-01, max ||G-S||/rhs=0.7107"),
])
def test_fuzz_reports_the_figures_it_always_reported(seed, detail):
    assert verify.fuzz_screening_bound(n_instances=2000, seed=seed).detail == detail


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (1.5, "seed must be an integer count, got 1.5"),
    (True, "seed must be an integer count, got True"),
    ("0", "seed must be an integer count, got '0'"),
])
def test_fuzz_refuses_a_seed_that_is_not_a_count(seed, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        verify.fuzz_screening_bound(n_instances=3, seed=seed)


def test_fuzz_takes_an_integral_seed_as_its_int():
    expected = verify.fuzz_screening_bound(n_instances=30, seed=2)
    for seed in (2.0, np.int64(2)):
        assert verify.fuzz_screening_bound(n_instances=30, seed=seed) == expected


@pytest.mark.parametrize("seed, expected", [(0, FIRST_500_DIGEST), (7, FIRST_500_DIGEST_SEED_7)],
                         ids=["0", "7"])
def test_draw_keeps_the_per_instance_draws_instances(seed, expected):
    digest = hashlib.sha256()
    for rows, honest, b, S in verify._screening_instances(500, seed=seed):
        digest.update(np.array([*rows.shape, b], np.int64).tobytes())
        digest.update(rows.tobytes())
        digest.update(np.flatnonzero(honest).astype(np.int64).tobytes())
        digest.update(S.tobytes())
    assert digest.hexdigest() == expected


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


def test_fuzz_enters_no_context_per_instance(monkeypatch):
    # a timing-free guard: a per-instance context would show as more entries
    # at 500 instances than at 50
    verify.fuzz_screening_bound(n_instances=1)  # numpy.random's first import enters one
    entered, real = [], np.errstate
    monkeypatch.setattr(np, "errstate", lambda **flags: entered.append(flags) or real(**flags))
    for n in (50, 500):
        entered.clear()
        assert verify.fuzz_screening_bound(n_instances=n).passed
        assert entered == [{"over": "ignore"}]  # the loop's, at either count


@pytest.mark.parametrize("attack", ["aggressive", "counterexample"])
@pytest.mark.parametrize("seed", [0, 1])
def test_shorter_runs_are_prefixes_of_the_longest(seed, attack):
    *_, full, _ = quadratic_run(seed, 200, attack)
    for T in (50, 120):
        *_, short, _ = quadratic_run(seed, T, attack)
        prefix = full.prefix(T)
        for field in fields(short):
            np.testing.assert_array_equal(getattr(prefix, field.name),
                                          getattr(short, field.name), err_msg=field.name)
        np.testing.assert_array_equal(short.theta_final, full.iterates[T])


def test_prefix_refuses_rounds_outside_the_run():
    *_, trace, _ = quadratic_run(0, 5)
    assert trace.prefix(5) is trace
    for rounds in (0, 6):
        with pytest.raises(ConfigError, match="prefix needs 1 <= rounds <= 5"):
            trace.prefix(rounds)


def test_prefix_cuts_every_per_round_field():
    *_, trace, _ = quadratic_run(0, 5)
    assert [f.name for f in fields(trace)][:2] == ["aggregated", "worker_norms"]  # no eta
    prefix = trace.prefix(3)
    for field in fields(trace):
        if field.name != "theta_final":
            assert len(getattr(prefix, field.name)) == 3, field.name


def test_quadratic_runs_train_one_batch_with_each_pair_once(monkeypatch):
    pairs = [(0, "aggressive"), (1, "aggressive"), (1, "counterexample")]
    alone = {(seed, attack): quadratic_run(seed, 200, attack) for seed, attack in pairs}
    batches = []
    real = verify.train_runs

    def counting(model, X, Y, rosters, cfgs):
        batches.append(([(cfg.seed, roster.attack.kind) for roster, cfg in zip(rosters, cfgs)],
                        [cfg.iterations for cfg in cfgs]))
        return real(model, X, Y, rosters, cfgs)

    monkeypatch.setattr(verify, "train_runs", counting)
    assert list(inspect.signature(verify._quadratic_runs).parameters) == ["pairs", "rounds"]
    runs = verify._quadratic_runs(pairs, 200)
    # one batch of every pair, both attack kinds, all at the one horizon
    assert batches == [(pairs, [200] * 3)]
    assert list(runs) == pairs
    for pair, (model, X, Y, trace, inputs) in runs.items():
        # each pair is diagnosed at every iterate and is the run trained alone
        assert trace.iterations == 200
        assert len(trace.inner_eps) == len(trace.true_gradients) == 200
        _, X_alone, Y_alone, trace_alone, inputs_alone = alone[pair]
        np.testing.assert_array_equal(X, X_alone)
        np.testing.assert_array_equal(Y, Y_alone)
        assert inputs == inputs_alone
        for field in fields(trace):
            np.testing.assert_array_equal(getattr(trace, field.name),
                                          getattr(trace_alone, field.name),
                                          err_msg=f"{pair} {field.name}")


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
    # (R, T) of the one batch: aggressive seeds 0-3 and counterexample seeds 1 and 3, at
    # the longest horizon; was a batch per attack kind, and before that 6 runs of 1,040
    # rounds trained one at a time
    assert batches == [(6, 200)]
    assert sum(T for _, T in batches) == 200                      # batched rounds
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


@pytest.mark.parametrize("suite, detail", [
    (verify.deviation_trace_suite,
     "violations=0, worst margin=7.674e+00, max ||G-grad F||/bound=0.0648"),
    (verify.rate_bound_suite, "violations=0, worst margin=6.097e+00"),
])
def test_trace_suites_report_the_figures_they_always_reported(suite, detail):
    assert suite(n_seeds=4).detail == detail


def test_deviation_suite_reports_its_tightest_iteration():
    seeds, reports = 3, []
    for seed in range(seeds):
        *_, trace, inputs = quadratic_run(seed, verify.DEVIATION_ROUNDS)
        reports += verify.check_aggregate_deviation(trace, inputs)
    worst = min(r.margin for r in reports)
    tightest = max(r.measured_value / r.bound_value for r in reports)
    assert 0.0 < tightest < 1.0
    result = verify.deviation_trace_suite(n_seeds=seeds)
    # the text before the figure is the one the suite printed without it
    assert result.detail == (f"violations=0, worst margin={worst:.3e}, "
                             f"max ||G-grad F||/bound={tightest:.4f}")
