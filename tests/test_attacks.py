import logging

import numpy as np
import pytest

from robustgd.aggregation import norm_screen
from robustgd.attacks import AttackSpec, craft
from robustgd.errors import ConfigError


def honest_scalars(*values):
    return np.array(values, dtype=float)[:, None]


class TestAggressive:
    def test_negative_scaled_reference(self):
        spec = AttackSpec(kind="aggressive", scale=10.0)
        out = craft(spec, honest_scalars(1), np.array([1.0, -2.0]), 0, [0])
        np.testing.assert_array_equal(out, np.array([[-10.0, 20.0]]))

    def test_one_row_per_worker(self):
        spec = AttackSpec(kind="aggressive", scale=2.0)
        out = craft(spec, honest_scalars(1), np.array([1.0, -2.0]), 3, (0, 4, 7))
        np.testing.assert_array_equal(out, np.tile([-2.0, 4.0], (3, 1)))

    def test_output_norm_is_scale_times_reference_norm(self, rng):
        spec = AttackSpec(kind="aggressive", scale=3.5)
        reference = rng.standard_normal(12)
        (out,) = craft(spec, honest_scalars(1), reference, 0, [0])
        assert np.linalg.norm(out) == pytest.approx(
            3.5 * np.linalg.norm(reference), rel=1e-12
        )


class TestIntelligent:
    def test_norm_is_ratio_times_reference_norm(self, rng):
        spec = AttackSpec(kind="intelligent", ratio=0.8, rng_seed=3)
        reference = rng.standard_normal(20)
        reference *= 5.0 / np.linalg.norm(reference)
        out = craft(spec, honest_scalars(1), reference, 7, [2, 3])
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 4.0, rtol=0, atol=1e-12)

    def test_same_seed_reproduces_bit_identically(self):
        spec = AttackSpec(kind="intelligent", rng_seed=11)
        ref = np.array([1.0, 2.0, 3.0])
        a = craft(spec, honest_scalars(1), ref, 4, [9])
        b = craft(spec, honest_scalars(1), ref, 4, [9])
        np.testing.assert_array_equal(a, b)

    def test_each_row_is_the_workers_own_draw(self):
        # a round's rows are bit-equal to crafting each worker alone
        spec = AttackSpec(kind="intelligent", ratio=0.7, rng_seed=2)
        ref = np.array([1.0, -2.0, 0.5, 3.0])
        together = craft(spec, honest_scalars(1), ref, 5, [1, 6, 3])
        for row, worker in zip(together, [1, 6, 3]):
            np.testing.assert_array_equal(row, craft(spec, honest_scalars(1), ref, 5, [worker])[0])

    def test_distinct_seeds_workers_iterations_give_distinct_directions(self):
        ref = np.array([1.0, 0.0, 0.0, 0.0])
        base = craft(AttackSpec(kind="intelligent", rng_seed=0), honest_scalars(1), ref, 0, [0])
        for spec, it, w in [
            (AttackSpec(kind="intelligent", rng_seed=1), 0, 0),
            (AttackSpec(kind="intelligent", rng_seed=0), 1, 0),
            (AttackSpec(kind="intelligent", rng_seed=0), 0, 1),
        ]:
            other = craft(spec, honest_scalars(1), ref, it, [w])
            assert not np.allclose(other, base)

    def test_shared_direction_flag_aligns_workers(self):
        spec = AttackSpec(kind="intelligent", shared_direction=True, rng_seed=5)
        ref = np.array([0.0, 3.0])
        a, b = craft(spec, honest_scalars(1), ref, 2, [1, 8])
        np.testing.assert_array_equal(a, b)

    def test_zero_reference_degenerates_to_zero_with_log(self, caplog):
        spec = AttackSpec(kind="intelligent")
        with caplog.at_level(logging.WARNING, logger="robustgd.attacks"):
            out = craft(spec, honest_scalars(1), np.zeros(4), 0, [0])
        np.testing.assert_array_equal(out, np.zeros((1, 4)))
        assert any("degenerate" in rec.message for rec in caplog.records)

    def test_zero_reference_warns_once_per_round_naming_the_workers(self, caplog):
        spec = AttackSpec(kind="intelligent")
        with caplog.at_level(logging.WARNING, logger="robustgd.attacks"):
            out = craft(spec, honest_scalars(1), np.zeros(4), 6, (0, 1, 2))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))
        assert [rec.getMessage() for rec in caplog.records] == [
            "intelligent attack degenerate: zero reference at iteration 6, workers [0, 1, 2]"
        ]


class TestCounterexample:
    def test_negates_the_rank_one_honest_gradient(self):
        # honest norms ascending: 1, 2, 3, 4, 5, 6 -> rank 1 is the value 2
        spec = AttackSpec(kind="counterexample", target_rank=1)
        out = craft(spec, honest_scalars(6, 5, 4, 3, 2, 1), np.array([3.5]), 0, [0, 1])
        np.testing.assert_array_equal(out, [[-2.0], [-2.0]])

    def test_all_forgeries_survive_screening_in_the_ten_input_instance(self):
        spec = AttackSpec(kind="counterexample", target_rank=1)
        honest = honest_scalars(6, 5, 4, 3, 2, 1)
        forgeries = craft(spec, honest, np.array([3.5]), 0, range(4))
        out, _ = norm_screen(np.vstack([forgeries, honest]), 4)
        # kept set is {-2, -2, -2, -2, 2, 1}: forgeries dominate the average
        assert out[0] == pytest.approx(-5.0 / 6.0, abs=1e-15)

    def test_rank_out_of_range(self):
        spec = AttackSpec(kind="counterexample", target_rank=6)
        with pytest.raises(ConfigError):
            craft(spec, honest_scalars(1, 2, 3), np.array([1.0]), 0, [0])


def test_spec_validation():
    with pytest.raises(ConfigError):
        AttackSpec(kind="nonsense")
    with pytest.raises(ConfigError):
        AttackSpec(kind="aggressive", scale=0.0)
    with pytest.raises(ConfigError):
        AttackSpec(kind="intelligent", ratio=-0.5)
    with pytest.raises(ConfigError):
        AttackSpec(kind="counterexample", target_rank=-1)
