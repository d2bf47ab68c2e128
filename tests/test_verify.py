"""The verify suites: the blocked screening fuzz and the shared trace runs.

The screening fuzz draws its instances into a reused block and checks a
block at a time; ``check_screening_bound`` is the oracle, and the block check
must give its numbers bit for bit. The trace suites share their runs: a
T-round run is the prefix of a longer run with the same seed and attack, bit
for bit, and the suites rely on that to read T = 50 and T = 120 from the
T = 200 run, so these tests pin the equality and the work saved.
"""

import hashlib
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from robustgd import verify
from robustgd.aggregation import check_screening_bound, norm_screen
from robustgd.errors import ConfigError, RegimeError

# sha256 of the first 500 fuzz instances at seed 0 (m, d and b as int64, rows,
# honest indices as int64, S), taken from the one-instance-at-a-time draw
# the block draw replaced: the seed must keep naming the same instances
FIRST_500_DIGEST = "f944e703e4a39318cea8a1d81d8f95d2e8b2777e947381f3d11e8a50d87523b4"


def hand_block(instances):
    """A screening block holding (rows, honest indices, screen count, S) instances."""
    block = verify._ScreeningBlock()
    for i, (rows, honest, screened, S) in enumerate(instances):
        rows = np.asarray(rows, dtype=float)
        m, d = rows.shape
        block.rows[i, :m, :d] = rows
        block.S[i, :d] = S
        block.honest[i, honest] = True
        block.m[i], block.d[i], block.screened[i] = m, d, screened
    block.size = len(instances)
    return block


def assert_block_matches_the_oracle(block, first=0):
    """Each slot's c_alpha, delta, rhs and slack are check_screening_bound's, bit for bit.

    So is lhs, which the slack can round away: ||norm_screen(...) - S||, as
    the oracle takes it.
    """
    c_alpha, delta, rhs, lhs = verify._check_screening_block(block, first)
    for i in range(block.size):
        grads, honest, cfg, S = block.instance(i)
        oracle = check_screening_bound(grads, honest, cfg, S)
        got = np.array([c_alpha[i], delta[i], rhs[i], rhs[i] - lhs[i], lhs[i]])
        expected = np.array([oracle.bound.c_alpha, oracle.bound.delta, oracle.bound.rhs,
                             oracle.slack, np.linalg.norm(norm_screen(grads, cfg) - S)])
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64),
                                      err_msg=f"instance {first + i}")
    return lhs, rhs


@pytest.mark.parametrize("seed", [0, 7])
def test_block_check_is_the_oracle_bit_for_bit(seed):
    n = 2000
    sizes, worst, tightest, failures = [], np.inf, 0.0, 0
    for block, first in verify._screening_fuzz_blocks(n, seed):
        sizes.append(block.size)
        lhs, rhs = assert_block_matches_the_oracle(block, first)
        worst, tightest = min(worst, (rhs - lhs).min()), max(tightest, (lhs / rhs).max())
        failures += np.count_nonzero(rhs - lhs < 0)
    assert sum(sizes) == n and 0 < sizes[-1] < verify.SCREENING_BLOCK_INSTANCES
    # the suite reports the oracle's figures, in the text the per-instance loop printed
    assert verify.fuzz_screening_bound(n_instances=n, seed=seed).detail == (
        f"failures={failures}, worst slack={worst:.3e}, max ||G-S||/rhs={tightest:.4f}")


def test_draw_keeps_the_per_instance_draws_instances():
    digest = hashlib.sha256()
    for block, _ in verify._screening_fuzz_blocks(500, seed=0):
        for i in range(block.size):
            grads, honest, cfg, S = block.instance(i)
            digest.update(np.array([grads.m, grads.dim, cfg.screen_count], np.int64).tobytes())
            digest.update(grads.matrix.tobytes())
            digest.update(honest.astype(np.int64).tobytes())
            digest.update(S.tobytes())
    assert digest.hexdigest() == FIRST_500_DIGEST


def test_hostile_instances_match_the_oracle(rng):
    column = rng.standard_normal((40, 1))        # its kept sum rounds apart when added pairwise
    column[[3, 17, 29]] = 50.0                   # three forgeries, screened with two honest rows
    zeros = np.full((6, 3), -0.0)
    mixed_zeros = rng.choice([-0.0, 0.0], size=(9, 2))
    base = rng.standard_normal(5)
    ties = np.array([rng.permutation(base) * rng.choice([-1.0, 1.0], 5) for _ in range(12)])
    huge = rng.standard_normal((7, 4))
    huge[2] = 1e308                              # its squared norm overflows to +inf
    instances = [
        (column, np.setdiff1d(np.arange(40), [3, 17, 29]), 5, np.zeros(1)),  # lhs = |mean|
        (column[:9], np.arange(9), 2, np.array([-0.0])),
        (zeros, np.arange(6), 1, np.full(3, -0.0)),
        (zeros, [0, 1, 3, 4, 5], 2, rng.standard_normal(3)),
        (mixed_zeros, np.arange(1, 9), 4, np.zeros(2)),
        (ties, np.arange(0, 12, 2).tolist() + [1, 3, 5], 3, base),
        (ties, np.arange(12), 11, rng.standard_normal(5)),
        (huge, [0, 1, 3, 4, 5, 6], 1, rng.standard_normal(4)),
        (huge, [0, 1, 3, 4, 5, 6], 3, np.zeros(4)),
    ]
    for instance in instances:
        # alone, a d = 1 instance is checked one column wide
        assert_block_matches_the_oracle(hand_block([instance]))
    lhs, _ = assert_block_matches_the_oracle(hand_block(instances), first=40)
    assert np.isfinite(lhs[-2:]).all()  # the 1e308 row is screened


@pytest.mark.parametrize("m, honest, screened", [
    (5, 3, 1),    # alpha = 2/5 above beta = 1/5
    (4, 1, 3),    # alpha = 3/4 above 1/2
    (3, 3, 3),    # nothing left to keep
    (6, 6, 7),
])
def test_block_names_the_instance_the_bound_refuses(rng, m, honest, screened):
    good = (rng.standard_normal((8, 3)), np.arange(7), 2, rng.standard_normal(3))
    bad = (rng.standard_normal((m, 3)), np.arange(honest), screened, rng.standard_normal(3))
    block = hand_block([good, good, bad, good])
    with pytest.raises((ConfigError, RegimeError)) as oracle:
        check_screening_bound(*block.instance(2))
    with pytest.raises(oracle.type, match=f"^{re.escape(f'screening instance 12: {oracle.value}')}$"):
        verify._check_screening_block(block, first=10)
    # a block of that instance alone names it too
    with pytest.raises(oracle.type, match=f"^{re.escape(f'screening instance 0: {oracle.value}')}$"):
        verify._check_screening_block(hand_block([bad]), first=0)


def test_fuzz_holds_one_block_of_instances_at_a_time():
    verify.fuzz_screening_bound(n_instances=10)  # imports and first-call caches
    tracemalloc.start()
    try:
        verify.fuzz_screening_bound(n_instances=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of 32 padded instances is 0.8 MB; all 2,000 instances would be tens of MB
    assert peak < 3e6


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
