import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import (
    ascent_rows,
    exact_inner_maximizer,
    loss_grads_theta,
    penalized_objectives,
    quadratic_grads_z,
    rowwise_ascent,
)
from robustgd import verify
from robustgd.aggregation import ScreenConfig
from robustgd.attacks import AttackSpec
from robustgd.bounds import surrogate_smoothness
from robustgd.data import even_shards, quadratic_cloud
from robustgd.errors import ConfigError, NumericError, RegimeError
from robustgd.losses import LogisticLoss, QuadraticLoss
from robustgd.simulation import (
    DIAGNOSTIC_BLOCK_ELEMENTS,
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    initial_theta,
    run_training,
    variant_config,
    with_diagnostics,
    worker_reports,
)
from robustgd.surrogate import DROConfig, exact_rows, surrogate_state, theoretical_ascent_step


def make_cloud(n=60, dim=4, seed=0, spread=1.0):
    return quadratic_cloud(n, dim, spread=spread, seed=seed)


def plain_config(eta, iterations, dro, screen_count=0, **kwargs):
    return TrainConfig(
        eta=eta, iterations=iterations, dro=dro, screen=ScreenConfig(screen_count), **kwargs
    )


class TestWorkerGradient:
    def test_single_sample_shard_equals_surrogate_gradient(self, rng):
        model = LogisticLoss()
        dro = DROConfig(3.0, 0.05, 10)
        theta = 0.5 * rng.standard_normal(6)
        x = rng.standard_normal(6)
        X, Y = x.reshape(1, -1), np.array([1.0])
        (grad,), _ = worker_reports(model, theta, X, Y, [1], dro)
        # the surrogate gradient of one sample: the loss gradient at the ascent output
        Z = ascent_rows(model, theta, X, Y, dro)
        np.testing.assert_allclose(grad, loss_grads_theta(model, theta, Z, Y)[0], rtol=1e-14)

    def test_duplicated_sample_changes_nothing(self, rng):
        model = QuadraticLoss(1.0)
        dro = DROConfig(2.0, 0.25, 12)
        theta = rng.standard_normal(3)
        x = rng.standard_normal(3)
        single, _ = worker_reports(model, theta, x.reshape(1, -1), np.zeros(1), [1], dro)
        double, _ = worker_reports(model, theta, np.vstack([x, x]), np.zeros(2), [2], dro)
        np.testing.assert_allclose(double, single, rtol=1e-15)

    def test_quadratic_shard_matches_closed_form(self, rng):
        # lam*(theta - mean x)/(lam - 1) for unit curvature and exact inner solves
        model = QuadraticLoss(1.0)
        lam = 2.0
        dro = DROConfig(lam, theoretical_ascent_step(lam), 80)
        theta = rng.standard_normal(5)
        X = rng.standard_normal((9, 5))
        (grad,), _ = worker_reports(model, theta, X, np.zeros(9), [9], dro)
        expected = lam * (theta - X.mean(axis=0)) / (lam - 1.0)
        np.testing.assert_allclose(grad, expected, atol=1e-10)

    @pytest.mark.parametrize("model", [LogisticLoss(), QuadraticLoss(1.0)],
                             ids=["logistic", "quadratic"])
    def test_unequal_shards_match_one_ascent_per_worker(self, rng, model):
        dro = DROConfig(3.0, 0.05, 10)
        theta = 0.5 * rng.standard_normal(4)
        counts = [3, 1, 7, 2]
        X = rng.standard_normal((sum(counts), 4))
        Y = rng.integers(0, 2, size=sum(counts)).astype(float)
        grads, objs = worker_reports(model, theta, X, Y, counts, dro)
        assert grads.shape == (4, 4) and objs.shape == (4,)
        start = 0
        for j, n in enumerate(counts):
            rows = slice(start, start + n)
            Z = ascent_rows(model, theta, X[rows], Y[rows], dro)
            np.testing.assert_allclose(grads[j], loss_grads_theta(model, theta, Z, Y[rows]).mean(0),
                                       rtol=0, atol=1e-14)
            obj = penalized_objectives(model, theta, Z, Y[rows], X[rows], dro.lam).mean()
            assert objs[j] == pytest.approx(obj, rel=0, abs=1e-14)
            start += n

    @pytest.mark.parametrize("counts", [[2, 2], [4, 0, 1], [6], []])
    def test_row_counts_must_cover_the_rows(self, rng, counts):
        X = rng.standard_normal((5, 2))
        with pytest.raises(ConfigError, match="row counts"):
            worker_reports(QuadraticLoss(), np.zeros(2), X, np.zeros(5), counts,
                           DROConfig(2.0, 0.3, 2))


def z_path_reports(model, theta, X, Y, counts, dro):
    """Reference reports: materialise the ascent output, then segment-average."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    Z = ascent_rows(model, theta, X, Y, dro)
    grads = np.add.reduceat(loss_grads_theta(model, theta, Z, Y), starts, axis=0) / counts[:, None]
    objs = np.add.reduceat(penalized_objectives(model, theta, Z, Y, X, dro.lam), starts)
    return grads, objs / counts


class TestLogisticMarginPath:
    """The logistic reports come from margins and line coefficients, never from Z."""

    model = LogisticLoss()

    @staticmethod
    def data(rng, counts, dim=5, theta_norm=5.0):
        n = sum(counts)
        X = rng.standard_normal((n, dim))
        Y = rng.integers(0, 2, size=n).astype(float)
        theta = rng.standard_normal(dim)
        return theta * (theta_norm / np.linalg.norm(theta)), X, Y

    @pytest.mark.parametrize("counts", [[6, 6, 6], [3, 1, 7, 2], [1, 5, 1]],
                             ids=["equal", "unequal", "single-rows"])
    @pytest.mark.parametrize("theta_norm", [0.0, 5.0])
    @pytest.mark.parametrize("t_z", [0, 1, 10, 150])
    def test_matches_the_materialised_ascent(self, rng, t_z, theta_norm, counts):
        theta, X, Y = self.data(rng, counts, theta_norm=theta_norm)
        dro = DROConfig(3.0, 0.05, t_z)
        grads, objs = worker_reports(self.model, theta, X, Y, counts, dro)
        ref_grads, ref_objs = z_path_reports(self.model, theta, X, Y, counts, dro)
        np.testing.assert_allclose(grads, ref_grads, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(objs, ref_objs, rtol=1e-12)

    @pytest.mark.parametrize("counts", [[6, 6, 6], [3, 1, 7, 2]], ids=["equal", "unequal"])
    def test_zero_ascent_steps_are_bit_equal(self, rng, counts):
        # the objectives share the reference's reduceat
        theta, X, Y = self.data(rng, counts)
        dro = DROConfig(3.0, 0.05, 0)
        _, objs = worker_reports(self.model, theta, X, Y, counts, dro)
        _, ref_objs = z_path_reports(self.model, theta, X, Y, counts, dro)
        np.testing.assert_array_equal(objs, ref_objs)

    @pytest.mark.parametrize("counts", [[6, 6, 6], [3, 1, 7, 2]], ids=["equal", "unequal"])
    def test_zero_ascent_gradients_match_to_rounding(self, rng, counts):
        # per-worker BLAS products sum in another order than the reference's
        # reduceat (gap 1.1e-16 here, at most 4.4e-16 over 2000 random draws)
        theta, X, Y = self.data(rng, counts)
        dro = DROConfig(3.0, 0.05, 0)
        grads, _ = worker_reports(self.model, theta, X, Y, counts, dro)
        ref_grads, _ = z_path_reports(self.model, theta, X, Y, counts, dro)
        np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t_z", [0, 10])
    def test_reports_allocate_no_row_matrix(self, rng, t_z):
        # an (n, d) temporary alone would be n * d * 8 bytes
        n, d = 20_000, 50
        theta, X, Y = self.data(rng, [n], dim=d, theta_norm=1.0)
        counts = [n // 20] * 20
        dro = DROConfig(3.0, 0.05, t_z)
        tracemalloc.start()
        try:
            worker_reports(self.model, theta, X, Y, counts, dro)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 2

    @pytest.mark.parametrize("t_z", [0, 4])
    def test_non_finite_theta_raises(self, rng, t_z):
        _, X, Y = self.data(rng, [4, 4])
        theta = np.array([1.0, np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(NumericError, match="theta"):
            worker_reports(self.model, theta, X, Y, [4, 4], DROConfig(3.0, 0.05, t_z))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("t_z", [0, 4])
    def test_non_finite_row_raises_with_the_row(self, rng, t_z, bad):
        theta, X, Y = self.data(rng, [4, 4])
        X[5, 2] = bad
        with pytest.raises(NumericError) as err:
            worker_reports(self.model, theta, X, Y, [4, 4], DROConfig(3.0, 0.05, t_z))
        np.testing.assert_array_equal(err.value.rows, [5])

    @pytest.mark.parametrize("t_z", [0, 4])
    def test_run_training_names_the_iteration_and_the_worker(self, rng, t_z):
        theta, X, Y = self.data(rng, [4, 4, 4])
        X[9, 0] = np.nan  # worker 2's second row
        roster = WorkerRoster(shards=[np.arange(4), np.arange(4, 8), np.arange(8, 12)])
        cfg = plain_config(0.1, 3, DROConfig(3.0, 0.05, t_z), theta0=theta)
        with pytest.raises(NumericError, match=r"iteration 0, worker 2: non-finite"):
            run_training(self.model, X, Y, roster, cfg)
        cfg = plain_config(0.1, 3, DROConfig(3.0, 0.05, t_z), theta0=np.full(5, np.inf))
        with pytest.raises(NumericError, match=r"iteration 0, worker 0: non-finite values in theta"):
            run_training(self.model, np.nan_to_num(X), Y, roster, cfg)


class TestQuadraticLineReports:
    """The quadratic reports come from one line coefficient and the segment sums of theta - x."""

    @staticmethod
    def oracle_reports(model, theta, X, counts, dro):
        """Reports from the row-by-row ascent, segment-averaged."""
        grads_z = partial(quadratic_grads_z, curvature=model.curvature)
        Z = rowwise_ascent(grads_z, theta, X, None, dro, dro.t_z)
        starts = np.cumsum(counts) - counts
        grads = np.add.reduceat(loss_grads_theta(model, theta, Z, None), starts, axis=0)
        objs = np.add.reduceat(penalized_objectives(model, theta, Z, None, X, dro.lam), starts)
        return grads / np.array(counts)[:, None], objs / counts

    @pytest.mark.parametrize("t_z", [0, 1, 6, 40, 400])
    @pytest.mark.parametrize("curvature", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("eta_z", [0.05, theoretical_ascent_step(2.0)], ids=["0.05", "theory"])
    def test_matches_the_rowwise_ascent(self, rng, t_z, curvature, eta_z):
        model = QuadraticLoss(curvature)
        dro = DROConfig(2.0, eta_z, t_z)
        counts = [3, 1, 7, 2]
        X = rng.standard_normal((sum(counts), 6))
        theta = rng.standard_normal(6)
        grads, objs = worker_reports(model, theta, X, np.zeros(len(X)), counts, dro)
        ref_grads, ref_objs = self.oracle_reports(model, theta, X, counts, dro)
        np.testing.assert_allclose(grads, ref_grads, rtol=1e-13)
        np.testing.assert_allclose(objs, ref_objs, rtol=1e-13)

    @pytest.mark.parametrize("t_z, rows", [(60, [2]), (100, [1, 2])])
    def test_overflowing_objectives_name_their_rows(self, t_z, rows):
        # k ~ 49^t_z. At 60 steps k ~ 1e101 and k^2 ~ 1e203 are finite and only
        # the far row's objective, ~ 1e203 * 1e200, overflows; at 100 steps
        # k^2 ~ 1e338 overflows for every row that moves, but not for row 0 at theta
        X = np.array([[0.0, 0.0], [1.0, 1.0], [1e100, 0.0]])
        with pytest.raises(NumericError, match=f"inner ascent diverged at step {t_z}") as err:
            worker_reports(QuadraticLoss(1.0), np.zeros(2), X, np.zeros(3), [2, 1],
                           DROConfig(2.0, 50.0, t_z))
        np.testing.assert_array_equal(err.value.rows, rows)


class TestRunTraining:
    def test_clean_run_descends_and_converges_linearly(self):
        model = QuadraticLoss(1.0)
        X, Y = make_cloud(n=40, dim=3, seed=5)
        shards, _ = even_shards(40, 4)
        roster = WorkerRoster(shards=shards)
        lam = 2.0
        l_f = surrogate_smoothness(model.constants(), lam)
        # half the exact step so the distance contracts by 1/2 each round
        cfg = plain_config(
            0.5 / l_f, 30, DROConfig(lam, theoretical_ascent_step(lam), 80), seed=1,
        )
        trace = with_diagnostics(model, X, Y, run_training(model, X, Y, roster, cfg), cfg.dro)
        norms = np.linalg.norm(trace.true_gradients, axis=1)
        assert (np.diff(norms) < 1e-12).all()
        theta_star = X.mean(axis=0)
        d0 = np.linalg.norm(trace.iterates[0] - theta_star)
        final = np.linalg.norm(trace.theta_final - theta_star)
        assert final <= 0.5 ** 30 * d0 + 1e-9

    def test_single_worker_reduces_to_centralized_descent(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((12, 3))
        Y = rng.integers(0, 2, size=12).astype(float)
        dro = DROConfig(3.0, 0.05, 5)
        roster = WorkerRoster(shards=[np.arange(12)])
        cfg = plain_config(0.5, 15, dro, seed=9)
        trace = run_training(model, X, Y, roster, cfg)

        theta = initial_theta(3, 9)
        for _ in range(15):
            theta = theta - 0.5 * worker_reports(model, theta, X, Y, [12], dro)[0][0]
        np.testing.assert_array_equal(trace.theta_final, theta)

    def test_bit_identical_reruns(self):
        model = QuadraticLoss(1.0)
        X, Y = make_cloud(n=50, dim=4, seed=2)
        shards, _ = even_shards(50, 10)
        roster = WorkerRoster(
            shards=shards, byzantine=(0, 1),
            attack=AttackSpec(kind="intelligent", rng_seed=3),
        )
        cfg = plain_config(0.2, 12, DROConfig(2.0, 0.3, 6), screen_count=2, seed=4)
        a = with_diagnostics(model, X, Y, run_training(model, X, Y, roster, cfg), cfg.dro)
        b = with_diagnostics(model, X, Y, run_training(model, X, Y, roster, cfg), cfg.dro)
        np.testing.assert_array_equal(a.aggregated, b.aggregated)
        np.testing.assert_array_equal(a.theta_final, b.theta_final)
        np.testing.assert_array_equal(a.iterates, b.iterates)
        np.testing.assert_array_equal(a.true_gradients, b.true_gradients)
        np.testing.assert_array_equal(a.worker_norms, b.worker_norms)

    def test_honest_only_aggregate_equals_gradient_mean(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((20, 3))
        Y = rng.integers(0, 2, size=20).astype(float)
        dro = DROConfig(3.0, 0.05, 4)
        shards, _ = even_shards(20, 5)
        roster = WorkerRoster(shards=shards)
        cfg = plain_config(0.3, 3, dro, seed=6)
        trace = run_training(model, X, Y, roster, cfg)

        theta = initial_theta(3, 6)
        grads = [worker_reports(model, theta, X[s], Y[s], [len(s)], dro)[0][0] for s in shards]
        np.testing.assert_allclose(trace.aggregated[0], np.mean(grads, axis=0), atol=1e-12)

    def test_worker_norms_are_the_norms_of_the_reports(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((20, 3))
        Y = rng.integers(0, 2, size=20).astype(float)
        dro = DROConfig(3.0, 0.05, 4)
        shards, _ = even_shards(20, 5)
        cfg = plain_config(0.3, 1, dro, screen_count=1, seed=6)
        trace = run_training(model, X, Y, WorkerRoster(shards=shards), cfg)
        grads, _ = worker_reports(model, initial_theta(3, 6), X, Y, [4] * 5, dro)
        np.testing.assert_array_equal(trace.worker_norms[0], np.linalg.norm(grads, axis=1))

    def test_trace_shapes_and_finiteness(self):
        model = QuadraticLoss(1.0)
        X, Y = make_cloud(n=30, dim=2, seed=3)
        shards, _ = even_shards(30, 6)
        roster = WorkerRoster(shards=shards)
        cfg = plain_config(0.2, 7, DROConfig(2.0, 0.3, 4), seed=0)
        trace = run_training(model, X, Y, roster, cfg)
        assert trace.iterations == 7
        assert trace.aggregated.shape == (7, 2)
        assert trace.worker_norms.shape == (7, 6)
        assert trace.iterates.shape == (7, 2)
        assert np.isfinite(trace.aggregated).all()
        assert trace.true_gradients is None and trace.inner_eps is None

    def test_iterates_are_the_descent_sequence(self):
        # iterates[t] is theta_t before update t, and each update is one
        # eta-step along the aggregate: bitwise, with byzantine workers present
        model = QuadraticLoss(1.0)
        X, Y = make_cloud(n=40, dim=3, seed=7)
        shards, _ = even_shards(40, 8)
        roster = WorkerRoster(
            shards=shards, byzantine=(0, 1),
            attack=AttackSpec(kind="aggressive", rng_seed=2),
        )
        cfg = plain_config(0.3, 9, DROConfig(2.0, 0.3, 5), screen_count=2, seed=5)
        trace = run_training(model, X, Y, roster, cfg)
        np.testing.assert_array_equal(trace.iterates[0], initial_theta(3, 5))
        stepped = trace.iterates - cfg.eta * trace.aggregated
        np.testing.assert_array_equal(trace.iterates[1:], stepped[:-1])
        np.testing.assert_array_equal(trace.theta_final, stepped[-1])

    def test_roster_validation(self):
        X, Y = make_cloud(n=12, dim=2, seed=0)
        shards, _ = even_shards(12, 3)
        overlapping = [np.arange(6), np.arange(4, 10), np.arange(10, 12)]
        cfg = plain_config(0.1, 2, DROConfig(2.0, 0.3, 2), seed=0)
        with pytest.raises(ConfigError, match="overlap"):
            run_training(QuadraticLoss(), X, Y, WorkerRoster(shards=overlapping), cfg)
        attack = AttackSpec(kind="aggressive")
        crowded = WorkerRoster(shards=shards, byzantine=(0,), attack=attack)
        with pytest.raises(ConfigError, match="screen_count"):
            run_training(QuadraticLoss(), X, Y, crowded, cfg)  # screen_count=0 < 1 byz
        ok = WorkerRoster(shards=shards, byzantine=(0,), attack=attack,
                          allow_excess_byzantine=True)
        run_training(QuadraticLoss(), X, Y, ok, cfg)  # override permits the demo regime
        with pytest.raises(ConfigError):
            WorkerRoster(shards=shards, byzantine=(0, 1, 2), attack=attack)
        with pytest.raises(ConfigError):
            WorkerRoster(shards=shards, byzantine=(5,), attack=attack)
        with pytest.raises(ConfigError):
            WorkerRoster(shards=shards, byzantine=(0,))  # no attack spec

    def test_divergent_ascent_names_the_iteration_and_the_worker(self):
        # workers 0 and 1 hold rows at theta0 = 0, where the quadratic ascent
        # stays put; only worker 2's rows can diverge
        X = np.vstack([np.zeros((4, 2)), np.ones((2, 2))])
        roster = WorkerRoster(shards=[np.arange(2), np.arange(2, 4), np.arange(4, 6)])
        cfg = plain_config(0.1, 3, DROConfig(2.0, 50.0, 500), theta0=np.zeros(2))
        with pytest.raises(NumericError, match=r"iteration 0, worker 2: inner ascent diverged"):
            run_training(QuadraticLoss(), X, np.zeros(6), roster, cfg)

    def test_divergent_logistic_ascent_names_the_first_honest_worker(self, rng):
        # at theta = 0 every row's line coordinate grows by 149x per step alike
        X = rng.standard_normal((12, 3))
        Y = rng.integers(0, 2, size=12).astype(float)
        shards, _ = even_shards(12, 4)
        roster = WorkerRoster(shards=shards, byzantine=(0,),
                              attack=AttackSpec(kind="aggressive"))
        cfg = plain_config(0.1, 3, DROConfig(3.0, 50.0, 500), screen_count=1,
                           theta0=np.zeros(3))
        with pytest.raises(NumericError, match=r"iteration 0, worker 1: inner ascent diverged"):
            run_training(LogisticLoss(), X, Y, roster, cfg)

    def test_non_finite_byzantine_reports(self):
        # an infinite attack scale makes every byzantine report non-finite
        # (-inf * reference, NaN where the reference is zero)
        X, Y = make_cloud(n=30, dim=3, seed=8)
        shards, _ = even_shards(30, 6)
        attack = AttackSpec(kind="aggressive", scale=np.inf)
        roster = WorkerRoster(shards=shards, byzantine=(0, 1), attack=attack)
        dro = DROConfig(2.0, 0.3, 3)
        trace = run_training(QuadraticLoss(), X, Y, roster,
                             plain_config(0.2, 4, dro, screen_count=2, seed=1))
        assert np.isfinite(trace.aggregated).all()
        assert not np.isfinite(trace.worker_norms[:, :2]).any()
        clean = run_training(QuadraticLoss(), X, Y, WorkerRoster(shards=shards[2:]),
                             plain_config(0.2, 4, dro, seed=1))
        np.testing.assert_array_equal(trace.aggregated, clean.aggregated)
        # more non-finite reports than the screen drops: the run fails with context
        excess = WorkerRoster(shards=shards, byzantine=(0, 1), attack=attack,
                              allow_excess_byzantine=True)
        with pytest.raises(NumericError, match="iteration 0: non-finite aggregated"):
            run_training(QuadraticLoss(), X, Y, excess,
                         plain_config(0.2, 4, dro, screen_count=1, seed=1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_report_past_the_float_range_is_screened(self):
        # -1e308 times a reference entry above 1.8 overflows to -inf
        X, Y = make_cloud(n=30, dim=3, seed=8)
        shards, _ = even_shards(30, 6)
        attack = AttackSpec(kind="aggressive", scale=1e308)
        roster = WorkerRoster(shards=shards, byzantine=(0,), attack=attack)
        dro = DROConfig(2.0, 0.3, 3)
        cfg = plain_config(0.1, 3, dro, screen_count=1, theta0=np.full(3, 10.0))
        trace = run_training(QuadraticLoss(), X, Y, roster, cfg)
        assert (trace.worker_norms[:, 0] == np.inf).all()
        clean = run_training(QuadraticLoss(), X, Y, WorkerRoster(shards=shards[1:]),
                             plain_config(0.1, 3, dro, theta0=np.full(3, 10.0)))
        np.testing.assert_array_equal(trace.aggregated, clean.aggregated)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_huge_finite_aggregate_has_norm_inf(self):
        X, Y = make_cloud(n=30, dim=3, seed=8)
        shards, _ = even_shards(30, 6)
        roster = WorkerRoster(shards=shards, byzantine=(0,), allow_excess_byzantine=True,
                              attack=AttackSpec(kind="aggressive", scale=1e200))
        cfg = plain_config(1e-300, 2, DROConfig(2.0, 0.3, 3), theta0=np.full(3, 10.0))
        trace = run_training(QuadraticLoss(), X, Y, roster, cfg)  # no screening
        assert np.isfinite(trace.aggregated).all()
        assert (trace.aggregated_norms == np.inf).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_update_names_the_iteration(self):
        X, Y = make_cloud(n=8, dim=3, seed=1)
        cfg = plain_config(1e308, 3, DROConfig(2.0, 0.3, 2), theta0=np.full(3, 10.0))
        with pytest.raises(NumericError, match="iteration 0: iterate diverged"):
            run_training(QuadraticLoss(), X, Y, WorkerRoster(shards=[np.arange(8)]), cfg)

    def test_theta0_shape_checked(self):
        X, Y = make_cloud(n=8, dim=3, seed=1)
        roster = WorkerRoster(shards=[np.arange(8)])
        cfg = plain_config(0.1, 2, DROConfig(2.0, 0.3, 2), theta0=np.zeros(2))
        with pytest.raises(ConfigError, match="theta0"):
            run_training(QuadraticLoss(), X, Y, roster, cfg)


class TestDiagnostics:
    def test_quadratic_diagnostics_use_the_closed_form(self):
        model = QuadraticLoss(1.0)
        X, Y = make_cloud(n=24, dim=3, seed=4)
        shards, _ = even_shards(24, 4)
        lam = 2.0
        cfg = plain_config(0.3, 5, DROConfig(lam, 0.3, 3), seed=2)
        trace = run_training(model, X, Y, WorkerRoster(shards=shards), cfg)
        diag = with_diagnostics(model, X, Y, trace, cfg.dro)
        assert trace.true_gradients is None  # the input trace is left as it was
        np.testing.assert_array_equal(diag.iterates, trace.iterates)
        for t, theta in enumerate(diag.iterates):
            value, grad = surrogate_state(model, theta, X, Y, lam)
            assert diag.true_objectives[t] == value
            np.testing.assert_array_equal(diag.true_gradients[t], grad)
            # the analytic error factor bounds the measured worker-precision error
            z_star = exact_inner_maximizer(model, theta, X, lam)
            measured = np.linalg.norm(ascent_rows(model, theta, X, Y, cfg.dro) - z_star,
                                      axis=1).max()
            assert measured <= diag.inner_eps[t] * (1 + 1e-12)

    def test_logistic_diagnostics_measure_against_a_long_ascent(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((16, 3))
        Y = rng.integers(0, 2, size=16).astype(float)
        shards, _ = even_shards(16, 4)
        lam = 3.0
        cfg = plain_config(0.5, 4, DROConfig(lam, 0.05, 5), seed=3)
        trace = run_training(model, X, Y, WorkerRoster(shards=shards), cfg)
        diag = with_diagnostics(model, X, Y, trace, cfg.dro)
        converged = DROConfig(lam, theoretical_ascent_step(lam), 400)
        for t, theta in enumerate(diag.iterates):
            value, grad = surrogate_state(model, theta, X, Y, lam)
            assert diag.true_objectives[t] == value
            np.testing.assert_array_equal(diag.true_gradients[t], grad)
            # the exact maximizer is where a long ascent settles
            precise = ascent_rows(model, theta, X, Y, converged)
            np.testing.assert_allclose(grad, loss_grads_theta(model, theta, precise, Y).mean(0),
                                       rtol=1e-12, atol=1e-15)
            expected = np.linalg.norm(ascent_rows(model, theta, X, Y, cfg.dro) - precise,
                                      axis=1).max()
            assert diag.inner_eps[t] == pytest.approx(expected, rel=1e-9)
        # a worker-precision ascent with more steps lands closer to the maximizer
        finer = with_diagnostics(model, X, Y, trace, DROConfig(lam, 0.05, 40))
        assert (finer.inner_eps < diag.inner_eps).all()

    def test_logistic_diagnostics_name_an_iterate_outside_the_regime(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((8, 3))
        Y = rng.integers(0, 2, size=8).astype(float)
        cfg = plain_config(0.5, 4, DROConfig(3.0, 0.05, 5), seed=3)
        trace = run_training(model, X, Y, WorkerRoster(shards=[np.arange(8)]), cfg)
        iterates = trace.iterates.copy()
        iterates[2] = [4.0, 0.0, 0.0]  # ||theta||^2 / 4 = 4 > lam
        with pytest.raises(RegimeError, match=r"iterate 2: inner objective not concave: lam=3.0"):
            with_diagnostics(model, X, Y, replace(trace, iterates=iterates), cfg.dro)

    @staticmethod
    def maximizer_diagnostics(model, X, Y, trace, dro):
        """The diagnostics from the closed-form maximizer rows, one iterate at a time."""
        T, d = trace.aggregated.shape
        grads, objs, eps = np.empty((T, d)), np.empty(T), np.empty(T)
        factor = abs(1.0 - dro.eta_z * (dro.lam - model.curvature))
        for t, theta in enumerate(trace.iterates):
            z_star = exact_inner_maximizer(model, theta, X, dro.lam)
            eps[t] = factor ** dro.t_z * np.linalg.norm(X - z_star, axis=1).max()
            objs[t] = penalized_objectives(model, theta, z_star, Y, X, dro.lam).mean()
            grads[t] = loss_grads_theta(model, theta, z_star, Y).mean(axis=0)
        return grads, objs, eps

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_the_maximizer_rows(self, seed):
        model, X, Y, trace, inputs = verify._quadratic_run(seed, 120)
        dro = DROConfig(inputs.lam, theoretical_ascent_step(inputs.lam), 6)  # the run's settings
        grads, objs, eps = self.maximizer_diagnostics(model, X, Y, trace, dro)
        np.testing.assert_allclose(trace.true_objectives, objs, rtol=1e-13)
        np.testing.assert_allclose(trace.inner_eps, eps, rtol=1e-13)
        # per iterate, relative to the gradient's norm: components pass through zero
        drift = np.linalg.norm(trace.true_gradients - grads, axis=1)
        assert (drift <= 1e-13 * np.linalg.norm(grads, axis=1)).all()

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_quadratic_diagnostics_need_a_concave_inner_problem(self, lam):
        model = QuadraticLoss(2.0)
        X, Y = make_cloud(n=12, dim=2, seed=1)
        cfg = plain_config(0.1, 2, DROConfig(3.0, 0.2, 2), seed=0)
        trace = run_training(model, X, Y, WorkerRoster(shards=[np.arange(12)]), cfg)
        with pytest.raises(RegimeError, match="not concave"):
            with_diagnostics(model, X, Y, trace, DROConfig(lam, 0.2, 2))

    @staticmethod
    def per_iterate_diagnostics(model, X, Y, trace, dro):
        """The quadratic diagnostics from ``exact_rows``, one iterate at a time."""
        T, d = trace.aggregated.shape
        grads, objs, eps = np.empty((T, d)), np.empty(T), np.empty(T)
        factor = abs(1.0 - dro.eta_z * (dro.lam - model.curvature)) ** dro.t_z / dro.lam
        for t, theta in enumerate(trace.iterates):
            rows, objectives, _ = exact_rows(model, theta, X, Y, dro.lam)
            objs[t] = objectives.mean()
            grads[t] = rows.mean(axis=0)
            eps[t] = factor * np.linalg.norm(rows, axis=1).max()
        return grads, objs, eps

    @pytest.mark.parametrize("T", ["one", "block", "block + 1", 200])
    def test_blocked_quadratic_diagnostics_are_bit_equal_per_iterate(self, T):
        X = quadratic_cloud(200, 6, spread=1.0, seed=0)[0]  # the verify problem
        block = DIAGNOSTIC_BLOCK_ELEMENTS // X.size
        assert 1 < block < 200
        T = {"one": 1, "block": block, "block + 1": block + 1}.get(T, T)
        model, X, Y, trace, inputs = verify._quadratic_run(0, T)
        dro = DROConfig(inputs.lam, theoretical_ascent_step(inputs.lam), 6)  # the run's settings
        grads, objs, eps = self.per_iterate_diagnostics(model, X, Y, trace, dro)
        np.testing.assert_array_equal(trace.true_gradients, grads)
        np.testing.assert_array_equal(trace.true_objectives, objs)
        np.testing.assert_array_equal(trace.inner_eps, eps)

    def test_exact_rows_broadcast_over_a_block_of_iterates(self, rng):
        model = QuadraticLoss(1.5)
        X = rng.standard_normal((9, 4))
        thetas = rng.standard_normal((5, 4))
        grads, objectives, k = exact_rows(model, thetas, X, None, 2.5)
        assert grads.shape == (5, 9, 4) and objectives.shape == (5, 9)
        for b, theta in enumerate(thetas):
            one_grads, one_objectives, one_k = exact_rows(model, theta, X, None, 2.5)
            np.testing.assert_array_equal(grads[b], one_grads)
            np.testing.assert_array_equal(objectives[b], one_objectives)
            assert k == one_k

    def test_quadratic_regime_error_names_iterate_zero(self):
        model, X, Y, trace, _ = verify._quadratic_run(0, 40)  # several blocks
        with pytest.raises(RegimeError, match=r"^iterate 0: inner objective not concave"):
            with_diagnostics(model, X, Y, trace, DROConfig(1.0, 0.2, 2))


class TestVariants:
    def setup_method(self):
        self.model = LogisticLoss()
        self.X, _ = make_cloud(n=24, dim=3, seed=11)
        rng = np.random.default_rng(11)
        self.Y = rng.integers(0, 2, size=24).astype(float)
        shards, _ = even_shards(24, 6)
        self.roster = WorkerRoster(
            shards=shards, byzantine=(0,), attack=AttackSpec(kind="aggressive", rng_seed=1),
        )
        self.cfg = plain_config(0.4, 6, DROConfig(3.0, 0.05, 8), screen_count=1, seed=2)

    def run(self, variant, roster, cfg):
        vcfg, vroster = variant_config(variant, cfg, roster)
        return run_training(self.model, self.X, self.Y, vroster, vcfg)

    def test_zero_ascent_steps_match_plain_gradients(self):
        nbs = self.run("nbs_only", self.roster, self.cfg)
        erm = self.run("erm", self.roster, self.cfg)
        # honest workers of both variants see z = x, so norms agree at round 0
        honest = [i for i in range(6) if i != 0]
        np.testing.assert_array_equal(
            nbs.worker_norms[0, honest], erm.worker_norms[0, honest]
        )

    def test_erm_with_clean_roster_is_textbook_distributed_descent(self):
        # t_z = 0 and no screening: the update is full-batch descent on the
        # empirical loss (worker shards average back to the global mean)
        clean = WorkerRoster(shards=self.roster.shards)
        trace = self.run("erm", clean, self.cfg)

        theta = initial_theta(3, 2)
        for _ in range(self.cfg.iterations):
            grads = [loss_grads_theta(self.model, theta, self.X[s], self.Y[s]).mean(axis=0)
                     for s in clean.shards]
            theta = theta - self.cfg.eta * np.mean(grads, axis=0)
        np.testing.assert_allclose(trace.theta_final, theta, atol=1e-12)

    def test_plain_mean_variant_with_clean_roster_matches_average(self):
        clean = WorkerRoster(shards=self.roster.shards)
        dro_only = self.run("dro_only", clean, self.cfg)
        alg2 = self.run("alg2", clean, plain_config(0.4, 6, DROConfig(3.0, 0.05, 8), seed=2))
        # with nothing to screen and b=0 both reduce to the same mean
        np.testing.assert_allclose(dro_only.theta_final, alg2.theta_final, atol=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            variant_config("median", self.cfg, self.roster)


class TestGradientDispersion:
    def test_identical_samples_have_zero_dispersion(self):
        model = QuadraticLoss(1.0)
        X = np.tile(np.array([0.5, -1.0]), (7, 1))
        assert gradient_dispersion(model, X, np.zeros(7), np.array([1.0, 1.0]), 2.0) == 0.0

    def test_two_sample_closed_form(self):
        # per-sample surrogate gradients are c_F*(theta - x_j); the dispersion
        # is c_F * ||x1 - x2|| / 2 with c_F = lam*c/(lam - c)
        model = QuadraticLoss(1.0)
        lam = 2.0
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = gradient_dispersion(model, X, np.zeros(2), np.array([0.3, -0.2]), lam)
        c_f = lam / (lam - 1.0)
        expected = c_f * np.linalg.norm(X[0] - X[1]) / 2.0
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_quadratic_needs_a_concave_inner_problem(self, lam):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(RegimeError, match="not concave"):
            gradient_dispersion(QuadraticLoss(2.0), X, np.zeros(2), np.zeros(2), lam)

    def test_positive_and_finite_on_generic_data(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((30, 5))
        Y = rng.integers(0, 2, 30).astype(float)
        sigma = gradient_dispersion(model, X, Y, 0.1 * rng.standard_normal(5), 3.0)
        assert np.isfinite(sigma) and sigma > 0
