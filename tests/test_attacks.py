import logging
import re
import tracemalloc

import numpy as np
import pytest

from robustgd.aggregation import norm_screen, row_norms
from robustgd.attacks import (
    DIRECTION_BLOCK_ROUNDS,
    AttackPlan,
    AttackSpec,
    DirectionBlocks,
    craft,
)
from robustgd.errors import ConfigError
from robustgd.simulation import initial_theta


def honest_scalars(*values):
    return np.array(values, dtype=float)[:, None]


def crafter(spec, workers, rounds=1, dim=1, honest_count=1):
    """One run alone: a plan of the one run, and round t's (a, d) rows from its ``craft``.

    The rows take the run's (k, d) honest reports and its (d,) reference.
    """
    plan = AttackPlan([spec], workers, honest_count, rounds, dim)
    return lambda honest, reference, t: craft(plan, honest[None], reference[None], t)[0]


class TestAggressive:
    def test_negative_scaled_reference(self):
        spec = AttackSpec(kind="aggressive", scale=10.0)
        out = crafter(spec, [0])(honest_scalars(1), np.array([1.0, -2.0]), 0)
        np.testing.assert_array_equal(out, np.array([[-10.0, 20.0]]))

    def test_one_row_per_worker(self):
        spec = AttackSpec(kind="aggressive", scale=2.0)
        out = crafter(spec, (0, 4, 7))(honest_scalars(1), np.array([1.0, -2.0]), 3)
        np.testing.assert_array_equal(out, np.tile([-2.0, 4.0], (3, 1)))

    def test_output_norm_is_scale_times_reference_norm(self, rng):
        spec = AttackSpec(kind="aggressive", scale=3.5)
        reference = rng.standard_normal(12)
        (out,) = crafter(spec, [0])(honest_scalars(1), reference, 0)
        assert np.linalg.norm(out) == pytest.approx(
            3.5 * np.linalg.norm(reference), rel=1e-12
        )


class TestIntelligent:
    def test_norm_is_ratio_times_reference_norm(self, rng):
        spec = AttackSpec(kind="intelligent", ratio=0.8, rng_seed=3)
        reference = rng.standard_normal(20)
        reference *= 5.0 / np.linalg.norm(reference)
        out = crafter(spec, [2, 3], 8, 20)(honest_scalars(1), reference, 7)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 4.0, rtol=0, atol=1e-12)

    def test_same_seed_reproduces_bit_identically(self):
        spec = AttackSpec(kind="intelligent", rng_seed=11)
        ref = np.array([1.0, 2.0, 3.0])
        a = crafter(spec, [9], 5, 3)(honest_scalars(1), ref, 4)
        b = crafter(spec, [9], 5, 3)(honest_scalars(1), ref, 4)
        np.testing.assert_array_equal(a, b)

    def test_each_row_is_the_workers_own_draw(self):
        # a round's rows are bit-equal to crafting each worker alone
        spec = AttackSpec(kind="intelligent", ratio=0.7, rng_seed=2)
        ref = np.array([1.0, -2.0, 0.5, 3.0])
        together = crafter(spec, [1, 6, 3], 6, 4)(honest_scalars(1), ref, 5)
        for row, worker in zip(together, [1, 6, 3]):
            alone = crafter(spec, [worker], 6, 4)(honest_scalars(1), ref, 5)
            np.testing.assert_array_equal(row, alone[0])

    def test_distinct_seeds_workers_iterations_give_distinct_directions(self):
        ref = np.array([1.0, 0.0, 0.0, 0.0])

        def rows(seed, worker, rounds):
            # the worker's row in each of the first ``rounds`` rounds
            run = crafter(AttackSpec(kind="intelligent", rng_seed=seed), [worker], rounds, 4)
            return [run(honest_scalars(1), ref, t) for t in range(rounds)]

        [base] = rows(0, 0, 1)
        for other in (rows(1, 0, 1)[0], rows(0, 0, 2)[1], rows(0, 1, 1)[0]):
            assert not np.allclose(other, base)

    def test_zero_reference_degenerates_to_zero_with_log(self, caplog):
        spec = AttackSpec(kind="intelligent")
        with caplog.at_level(logging.WARNING, logger="robustgd.attacks"):
            out = crafter(spec, [0], 1, 4)(honest_scalars(1), np.zeros(4), 0)
        np.testing.assert_array_equal(out, np.zeros((1, 4)))
        assert any("degenerate" in rec.message for rec in caplog.records)

    def test_zero_reference_warns_once_per_round_naming_the_workers(self, caplog):
        spec = AttackSpec(kind="intelligent")
        with caplog.at_level(logging.WARNING, logger="robustgd.attacks"):
            out = crafter(spec, (0, 1, 2), 7, 4)(honest_scalars(1), np.zeros(4), 6)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))
        assert [rec.getMessage() for rec in caplog.records] == [
            "intelligent attack degenerate: zero reference at iteration 6, workers [0, 1, 2]"
        ]


class TestDirectionBlocks:
    """One generator per byzantine worker per run, drawn in blocks; round t gets its t-th vector."""

    def test_one_stream_per_worker(self):
        vectors, lengths = DirectionBlocks(0, (0, 4, 7), 2, 5).round(1)
        assert vectors.shape == (3, 5) and lengths.shape == (3,)

    def test_a_workers_rows_do_not_depend_on_the_other_workers(self):
        # worker j's row in every round is the same with 3 or with 4 byzantine workers
        spec = AttackSpec(kind="intelligent", rng_seed=7)
        ref = np.array([0.5, -1.0, 2.0, 0.25, 1.5])
        three = crafter(spec, (0, 1, 2), 5, 5)
        four = crafter(spec, (0, 1, 2, 3), 5, 5)
        for t in range(5):
            a = three(honest_scalars(1), ref, t)
            b = four(honest_scalars(1), ref, t)
            np.testing.assert_array_equal(a, b[:3])

    def test_a_zero_reference_round_does_not_shift_the_later_rounds(self, caplog):
        # round t's direction is the stream's t-th draw, whatever the rounds before it were
        spec = AttackSpec(kind="intelligent", rng_seed=4)
        ref = np.array([1.0, 2.0, -1.0])
        after_zero, after_ref = (crafter(spec, (2, 5), 2, 3) for _ in range(2))
        with caplog.at_level(logging.WARNING, logger="robustgd.attacks"):
            after_zero(honest_scalars(1), np.zeros(3), 0)
        after_ref(honest_scalars(1), ref, 0)
        np.testing.assert_array_equal(after_zero(honest_scalars(1), ref, 1),
                                      after_ref(honest_scalars(1), ref, 1))

    def test_no_stream_is_the_initial_iterates_generator(self):
        # numpy pads a key with zeros: an untagged [seed, worker] key is
        # initial_theta's [seed, 0x7E] at worker 0x7E
        first, _ = DirectionBlocks(3, range(200), 1, 6).round(0)
        for vector in first:
            assert not np.allclose(0.01 * vector, initial_theta(6, 3))

    def test_a_round_outside_the_run_is_refused(self):
        directions = DirectionBlocks(0, (0,), 3, 2)
        for t in (-1, 3):
            with pytest.raises(ConfigError, match=f"round {t} outside the run's 3 rounds"):
                directions.round(t)

    def test_blocks_hold_the_vectors_of_one_draw_per_stream_per_round(self, caplog):
        # the oracle draws one standard_normal(out=row) per stream per round, a
        # zero-reference round too, and scales the rows as craft did before blocks
        B, workers, d = DIRECTION_BLOCK_ROUNDS, (1, 4, 6), 5
        spec = AttackSpec(kind="intelligent", ratio=0.6, rng_seed=9)
        rounds = 2 * B + 3
        zero_rounds = {0, B - 1, B, 2 * B}  # B and 2 * B start a block
        rng = np.random.default_rng(0)
        run = crafter(spec, workers, rounds, d)
        oracle_streams = [np.random.default_rng([9, 0xA7, worker]) for worker in workers]
        with caplog.at_level(logging.WARNING, logger="robustgd.attacks"):
            for t in range(rounds):
                reference = np.zeros(d) if t in zero_rounds else rng.standard_normal(d)
                expected = np.empty((len(workers), d))
                for row, stream in zip(expected, oracle_streams):
                    stream.standard_normal(out=row)
                if t in zero_rounds:
                    expected[:] = 0.0
                else:
                    scale = 0.6 * float(np.linalg.norm(reference))
                    expected *= (scale / row_norms(expected))[:, None]
                rows = run(honest_scalars(1), reference, t)
                np.testing.assert_array_equal(rows.view(np.int64), expected.view(np.int64),
                                              err_msg=f"round {t}")
        assert len(caplog.records) == len(zero_rounds)

    def test_an_earlier_round_restarts_the_streams(self):
        spec = AttackSpec(kind="intelligent", rng_seed=2)
        B = DIRECTION_BLOCK_ROUNDS
        ref = np.array([1.0, -1.0, 3.0])
        run = crafter(spec, (0, 3), B + 4, 3)
        late = run(honest_scalars(1), ref, B + 2)
        # the second block, rounds B to B + 3, now fills round 1's slot
        early = run(honest_scalars(1), ref, 1)
        fresh = crafter(spec, (0, 3), B + 4, 3)
        np.testing.assert_array_equal(early, fresh(honest_scalars(1), ref, 1))
        np.testing.assert_array_equal(late, fresh(honest_scalars(1), ref, B + 2))

    def test_a_long_run_holds_one_block_of_directions(self):
        # 3 blocks and 5 rounds; their vectors alone would be 3 * B * w * d floats
        B, workers, d = DIRECTION_BLOCK_ROUNDS, (0, 1, 2, 3), 16
        spec = AttackSpec(kind="intelligent", rng_seed=1)
        ref = np.linspace(-1.0, 1.0, d)
        crafter(spec, workers, 2, d)(honest_scalars(1), ref, 0)
        tracemalloc.start()
        try:
            run = crafter(spec, workers, 3 * B + 5, d)
            for t in range(3 * B + 5):
                run(honest_scalars(1), ref, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block: B * w * d floats of vectors, B * w lengths and, while it
        # is drawn, one stream's B * d squares; 16 kB for the generators, the
        # plan and the per-round rows. Two blocks at once would be over 260 kB.
        assert peak < 8 * B * (len(workers) * (d + 1) + d) + 16384, peak


class TestCounterexample:
    def test_negates_the_rank_one_honest_gradient(self):
        # honest norms ascending: 1, 2, 3, 4, 5, 6 -> rank 1 is the value 2
        spec = AttackSpec(kind="counterexample", target_rank=1)
        run = crafter(spec, [0, 1], honest_count=6)
        out = run(honest_scalars(6, 5, 4, 3, 2, 1), np.array([3.5]), 0)
        np.testing.assert_array_equal(out, [[-2.0], [-2.0]])

    def test_all_forgeries_survive_screening_in_the_ten_input_instance(self):
        spec = AttackSpec(kind="counterexample", target_rank=1)
        honest = honest_scalars(6, 5, 4, 3, 2, 1)
        forgeries = crafter(spec, range(4), honest_count=6)(honest, np.array([3.5]), 0)
        out, _ = norm_screen(np.vstack([forgeries, honest]), 4)
        # kept set is {-2, -2, -2, -2, 2, 1}: forgeries dominate the average
        assert out[0] == pytest.approx(-5.0 / 6.0, abs=1e-15)

    def test_rank_out_of_range_is_refused_by_the_plan(self):
        spec = AttackSpec(kind="counterexample", target_rank=6)
        with pytest.raises(ConfigError, match="^target_rank=6 out of range for 3 honest"):
            AttackPlan([spec], [0], 3, 1, 1)


class TestStacked:
    """craft over R runs at once: each run's rows are its plan alone, bit for bit."""

    SPECS = (
        AttackSpec(kind="aggressive", scale=2.5),
        AttackSpec(kind="intelligent", ratio=0.3, rng_seed=4),
        AttackSpec(kind="counterexample", target_rank=0),
        AttackSpec(kind="aggressive", scale=7.0),
        AttackSpec(kind="counterexample", target_rank=3),
        AttackSpec(kind="intelligent", ratio=0.9, rng_seed=6),
    )

    def test_a_mixed_batch_is_each_run_alone(self, rng, caplog):
        R, k, d, workers, rounds = len(self.SPECS), 5, 4, (1, 4, 6), 6
        batch = AttackPlan(self.SPECS, workers, k, rounds, d)
        alone = [crafter(spec, workers, rounds, d, k) for spec in self.SPECS]
        with caplog.at_level(logging.WARNING, logger="robustgd.attacks"):
            for t in range(rounds):
                honest = rng.standard_normal((R, k, d)) * rng.uniform(0.5, 2.0, (R, k, 1))
                honest[4, 1] = -honest[4, 3]  # a norm tie around the target rank
                references = rng.standard_normal((R, d))
                if t == 2:
                    references[1] = 0.0  # one intelligent run's round degenerates
                rows = craft(batch, honest, references, t)
                assert rows.shape == (R, len(workers), d)
                for r, run in enumerate(alone):
                    expected = run(honest[r], references[r], t)
                    np.testing.assert_array_equal(rows[r].view(np.int64),
                                                  expected.view(np.int64), err_msg=f"{t} {r}")
        # one warning per run and round with a zero reference, from the batch and the run alone
        assert [rec.getMessage() for rec in caplog.records] == 2 * [
            "intelligent attack degenerate: zero reference at iteration 2, workers [1, 4, 6]"]

    def test_a_batch_checks_every_runs_target_rank(self):
        specs = [AttackSpec(kind="counterexample", target_rank=1),
                 AttackSpec(kind="counterexample", target_rank=3)]
        with pytest.raises(ConfigError, match="^target_rank=3 out of range for 3 honest"):
            AttackPlan(specs, [0], 3, 1, 1)


@pytest.mark.parametrize("fields, message", [
    (dict(kind="nonsense"), "unknown attack kind 'nonsense'"),
    (dict(scale=0.0), "scale must be finite and positive, got 0.0"),
    (dict(scale=float("inf")), "scale must be finite and positive, got inf"),
    (dict(scale="10"), "scale must be finite and positive, got '10'"),
    (dict(ratio=-0.5), "ratio must be finite and positive, got -0.5"),
    (dict(ratio=float("nan")), "ratio must be finite and positive, got nan"),
    (dict(ratio=float("inf")), "ratio must be finite and positive, got inf"),
    (dict(ratio=True), "ratio must be finite and positive, got True"),
    (dict(ratio=None), "ratio must be finite and positive, got None"),
    (dict(target_rank=-1), "target_rank must be >= 0, got -1"),
    (dict(target_rank=1.5), "target_rank must be an integer count, got 1.5"),
    (dict(rng_seed=-1), "rng_seed must be >= 0, got -1"),
    (dict(rng_seed=1.5), "rng_seed must be an integer count, got 1.5"),
])
def test_every_spec_field_is_checked_at_construction(fields, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        AttackSpec(**{"kind": "intelligent", **fields})


def test_real_fields_are_stored_as_floats():
    spec = AttackSpec(kind="aggressive", scale=10, ratio=np.float64(0.5))
    assert (spec.scale, spec.ratio) == (10.0, 0.5)
    assert type(spec.scale) is float and type(spec.ratio) is float


def test_integral_counts_are_stored_as_ints():
    spec = AttackSpec(kind="counterexample", target_rank=2.0, rng_seed=np.int64(7))
    assert (spec.target_rank, spec.rng_seed) == (2, 7)
    assert type(spec.target_rank) is int and type(spec.rng_seed) is int
