import logging
import re
import tracemalloc
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from conftest import (
    ascent_rows,
    exact_inner_maximizer,
    loss_grads_theta,
    penalized_objectives,
    quadratic_grads_z,
    quadratic_run,
    rowwise_ascent,
)
from robustgd import simulation, surrogate
from robustgd.aggregation import ScreenConfig, dot_sq_norms, norm_screen
from robustgd.attacks import DIRECTION_BLOCK_ROUNDS, KINDS, AttackPlan, AttackSpec, craft
from robustgd.bounds import surrogate_smoothness
from robustgd.data import even_shards, quadratic_cloud
from robustgd.errors import ConfigError, NumericError, RegimeError
from robustgd.losses import LogisticLoss, QuadraticLoss, sigmoid
from robustgd.simulation import (
    DIAGNOSTIC_BLOCK_ELEMENTS,
    RunTrace,
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    honest_objective,
    initial_theta,
    run_training,
    train_runs,
    validate_roster,
    variant_config,
    with_diagnostics,
    worker_reports,
)
from robustgd.surrogate import (
    DROConfig,
    exact_rows,
    inner_objectives,
    line_ascent,
    line_surrogate,
    quadratic_surrogate,
    surrogate_state,
    theoretical_ascent_step,
)


def make_cloud(n=60, dim=4, seed=0, spread=1.0):
    return quadratic_cloud(n, dim, spread=spread, seed=seed)


def plain_config(eta, iterations, dro, screen_count=0, **kwargs):
    return TrainConfig(
        eta=eta, iterations=iterations, dro=dro, screen=ScreenConfig(screen_count), **kwargs
    )


def per_worker_reports(model, theta, X, Y, dro):
    """Reference reports: one product r_j @ X_j per worker plus sequential segment sums."""
    k, n, d = X.shape
    rows, labels = X.reshape(k * n, d), Y.reshape(k * n)
    starts = np.arange(0, k * n, n)
    if isinstance(model, LogisticLoss):
        r, c = line_surrogate(theta, rows, labels, dro)
        grad_sums = np.add.reduceat(r * c, starts)[:, None] * theta
        for j, s in enumerate(starts):
            grad_sums[j] += r[s:s + n] @ rows[s:s + n]
    else:
        D, rate = quadratic_surrogate(model, theta, rows, dro)
        grad_sums = rate * np.add.reduceat(D, starts, axis=0)
    return grad_sums / n


def worker_objectives(model, theta, X, Y, dro):
    """Each worker's mean inner objective over its rows of a (k, n, d) block."""
    k, n, d = X.shape
    objectives = inner_objectives(model, theta, X.reshape(k * n, d), Y.reshape(k * n), dro)
    return np.add.reduceat(objectives, np.arange(0, k * n, n)) / n


class TestWorkerGradient:
    def test_single_sample_shard_equals_surrogate_gradient(self, rng):
        model = LogisticLoss()
        dro = DROConfig(3.0, 0.05, 10)
        theta = 0.5 * rng.standard_normal(6)
        x = rng.standard_normal(6)
        X, Y = x.reshape(1, -1), np.array([1.0])
        (grad,) = worker_reports(model, theta, X[None], Y[None], dro)
        # the surrogate gradient of one sample: the loss gradient at the ascent output
        Z = ascent_rows(model, theta, X, Y, dro)
        np.testing.assert_allclose(grad, loss_grads_theta(model, theta, Z, Y)[0], rtol=1e-14)

    def test_duplicated_sample_changes_nothing(self, rng):
        model = QuadraticLoss(1.0)
        dro = DROConfig(2.0, 0.25, 12)
        theta = rng.standard_normal(3)
        x = rng.standard_normal(3)
        single = worker_reports(model, theta, x.reshape(1, 1, -1), np.zeros((1, 1)), dro)
        double = worker_reports(model, theta, np.stack([x, x])[None], np.zeros((1, 2)), dro)
        np.testing.assert_allclose(double, single, rtol=1e-15)

    def test_quadratic_shard_matches_closed_form(self, rng):
        # lam*(theta - mean x)/(lam - 1) for unit curvature and exact inner solves
        model = QuadraticLoss(1.0)
        lam = 2.0
        dro = DROConfig(lam, theoretical_ascent_step(lam), 80)
        theta = rng.standard_normal(5)
        X = rng.standard_normal((9, 5))
        (grad,) = worker_reports(model, theta, X[None], np.zeros((1, 9)), dro)
        expected = lam * (theta - X.mean(axis=0)) / (lam - 1.0)
        np.testing.assert_allclose(grad, expected, atol=1e-10)

    @pytest.mark.parametrize("model", [LogisticLoss(), QuadraticLoss(1.0)],
                             ids=["logistic", "quadratic"])
    def test_shards_match_one_ascent_per_worker(self, rng, model):
        dro = DROConfig(3.0, 0.05, 10)
        theta = 0.5 * rng.standard_normal(4)
        X = rng.standard_normal((4, 3, 4))
        Y = rng.integers(0, 2, size=(4, 3)).astype(float)
        grads = worker_reports(model, theta, X, Y, dro)
        objs = worker_objectives(model, theta, X, Y, dro)
        assert grads.shape == (4, 4) and objs.shape == (4,)
        for j in range(4):
            Z = ascent_rows(model, theta, X[j], Y[j], dro)
            np.testing.assert_allclose(grads[j], loss_grads_theta(model, theta, Z, Y[j]).mean(0),
                                       rtol=0, atol=1e-14)
            obj = penalized_objectives(model, theta, Z, Y[j], X[j], dro.lam).mean()
            assert objs[j] == pytest.approx(obj, rel=0, abs=1e-14)

    @pytest.mark.parametrize("model", [LogisticLoss(), QuadraticLoss(1.0)],
                             ids=["logistic", "quadratic"])
    @pytest.mark.parametrize("t_z", [0, 10])
    def test_stacked_reports_equal_the_per_worker_products(self, rng, model, t_z):
        dro = DROConfig(3.0, 0.05, t_z)
        theta = rng.standard_normal(57)
        X = rng.standard_normal((17, 153, 57))
        Y = rng.integers(0, 2, size=(17, 153)).astype(float)
        grads = worker_reports(model, theta, X, Y, dro)
        np.testing.assert_array_equal(grads, per_worker_reports(model, theta, X, Y, dro))

    @pytest.mark.parametrize("x_shape, y_shape", [((5, 2), (5,)), ((2, 0, 2), (2, 0)),
                                                  ((0, 3, 2), (0, 3)), ((2, 2, 2), (2, 3))])
    def test_reports_need_a_row_block(self, x_shape, y_shape):
        with pytest.raises(ConfigError, match=r"\(k, n, d\) row block"):
            worker_reports(QuadraticLoss(), np.zeros(2), np.zeros(x_shape), np.zeros(y_shape),
                           DROConfig(2.0, 0.3, 2))


def z_path_reports(model, theta, X, Y, dro):
    """Reference reports: materialise the ascent output, then average per worker."""
    k, n, d = X.shape
    rows, labels = X.reshape(k * n, d), Y.reshape(k * n)
    starts = np.arange(0, k * n, n)
    Z = ascent_rows(model, theta, rows, labels, dro)
    grads = np.add.reduceat(loss_grads_theta(model, theta, Z, labels), starts, axis=0) / n
    objs = np.add.reduceat(penalized_objectives(model, theta, Z, labels, rows, dro.lam), starts)
    return grads, objs / n


class TestLogisticMarginPath:
    """The logistic reports come from margins and line coefficients, never from Z."""

    model = LogisticLoss()

    @staticmethod
    def data(rng, shape, dim=5, theta_norm=5.0):
        X = rng.standard_normal((*shape, dim))
        Y = rng.integers(0, 2, size=shape).astype(float)
        theta = rng.standard_normal(dim)
        return theta * (theta_norm / np.linalg.norm(theta)), X, Y

    @pytest.mark.parametrize("shape", [(3, 6), (4, 3), (3, 1)],
                             ids=["equal", "four-workers", "single-rows"])
    @pytest.mark.parametrize("theta_norm", [0.0, 5.0])
    @pytest.mark.parametrize("t_z", [0, 1, 10, 150])
    def test_matches_the_materialised_ascent(self, rng, t_z, theta_norm, shape):
        theta, X, Y = self.data(rng, shape, theta_norm=theta_norm)
        dro = DROConfig(3.0, 0.05, t_z)
        grads = worker_reports(self.model, theta, X, Y, dro)
        objs = worker_objectives(self.model, theta, X, Y, dro)
        ref_grads, ref_objs = z_path_reports(self.model, theta, X, Y, dro)
        np.testing.assert_allclose(grads, ref_grads, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(objs, ref_objs, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 6), (4, 3)], ids=["equal", "four-workers"])
    def test_zero_ascent_steps_are_bit_equal(self, rng, shape):
        # the objectives share the reference's reduceat
        theta, X, Y = self.data(rng, shape)
        dro = DROConfig(3.0, 0.05, 0)
        objs = worker_objectives(self.model, theta, X, Y, dro)
        _, ref_objs = z_path_reports(self.model, theta, X, Y, dro)
        np.testing.assert_array_equal(objs, ref_objs)

    @pytest.mark.parametrize("shape", [(3, 6), (4, 3)], ids=["equal", "four-workers"])
    def test_zero_ascent_gradients_match_to_rounding(self, rng, shape):
        # per-worker BLAS products sum in another order than the reference's
        # reduceat (gap 1.1e-16 here, at most 4.4e-16 over 2000 random draws)
        theta, X, Y = self.data(rng, shape)
        dro = DROConfig(3.0, 0.05, 0)
        grads = worker_reports(self.model, theta, X, Y, dro)
        ref_grads, _ = z_path_reports(self.model, theta, X, Y, dro)
        np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t_z", [0, 10])
    def test_reports_allocate_no_row_matrix(self, rng, t_z):
        # an (n, d) temporary alone would be n * d * 8 bytes
        n, d = 20_000, 50
        theta, X, Y = self.data(rng, (20, n // 20), dim=d, theta_norm=1.0)
        dro = DROConfig(3.0, 0.05, t_z)
        tracemalloc.start()
        try:
            worker_reports(self.model, theta, X, Y, dro)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 2

    @pytest.mark.parametrize("t_z", [0, 4])
    def test_non_finite_theta_raises(self, rng, t_z):
        _, X, Y = self.data(rng, (2, 4))
        theta = np.array([1.0, np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(NumericError, match="theta"):
            worker_reports(self.model, theta, X, Y, DROConfig(3.0, 0.05, t_z))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("t_z", [0, 4])
    def test_non_finite_row_raises_with_the_row(self, rng, t_z, bad):
        theta, X, Y = self.data(rng, (2, 4))
        X[1, 1, 2] = bad  # row 5 of the block
        with pytest.raises(NumericError) as err:
            worker_reports(self.model, theta, X, Y, DROConfig(3.0, 0.05, t_z))
        np.testing.assert_array_equal(err.value.rows, [5])

    @pytest.mark.parametrize("t_z", [0, 4])
    def test_run_training_names_the_iteration_and_the_worker(self, rng, t_z):
        theta, X, Y = self.data(rng, (12,))
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
    def oracle_reports(model, theta, X, dro):
        """Reports from the row-by-row ascent, averaged per worker."""
        k, n, d = X.shape
        rows, starts = X.reshape(k * n, d), np.arange(0, k * n, n)
        grads_z = partial(quadratic_grads_z, curvature=model.curvature)
        Z = rowwise_ascent(grads_z, theta, rows, None, dro, dro.t_z)
        grads = np.add.reduceat(loss_grads_theta(model, theta, Z, None), starts, axis=0)
        objs = np.add.reduceat(penalized_objectives(model, theta, Z, None, rows, dro.lam), starts)
        return grads / n, objs / n

    @pytest.mark.parametrize("t_z", [0, 1, 6, 40, 400])
    @pytest.mark.parametrize("curvature", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("eta_z", [0.05, theoretical_ascent_step(2.0)], ids=["0.05", "theory"])
    def test_matches_the_rowwise_ascent(self, rng, t_z, curvature, eta_z):
        model = QuadraticLoss(curvature)
        dro = DROConfig(2.0, eta_z, t_z)
        X = rng.standard_normal((4, 3, 6))
        theta = rng.standard_normal(6)
        grads = worker_reports(model, theta, X, np.zeros((4, 3)), dro)
        objs = worker_objectives(model, theta, X, np.zeros((4, 3)), dro)
        ref_grads, ref_objs = self.oracle_reports(model, theta, X, dro)
        np.testing.assert_allclose(grads, ref_grads, rtol=1e-13)
        np.testing.assert_allclose(objs, ref_objs, rtol=1e-13)

    @pytest.mark.parametrize("t_z, rows", [(60, [2]), (100, [1, 2])])
    def test_overflowing_objectives_name_their_rows(self, t_z, rows):
        # k ~ 49^t_z. At 60 steps k ~ 1e101 and k^2 ~ 1e203 are finite and only
        # the far row's objective, ~ 1e203 * 1e200, overflows; at 100 steps
        # k^2 ~ 1e338 overflows for every row that moves, but not for rows 0 and 3 at theta.
        # The reports themselves stay finite: c * (1 + k) times a sum of theta - x
        X = np.array([[[0.0, 0.0], [1.0, 1.0]], [[1e100, 0.0], [0.0, 0.0]]])
        dro = DROConfig(2.0, 50.0, t_z)
        if t_z == 60:
            assert np.isfinite(worker_reports(QuadraticLoss(1.0), np.zeros(2), X,
                                              np.zeros((2, 2)), dro)).all()
        with pytest.raises(NumericError, match=f"inner ascent diverged at step {t_z}") as err:
            inner_objectives(QuadraticLoss(1.0), np.zeros(2), X.reshape(4, 2), None, dro)
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
            theta = theta - 0.5 * worker_reports(model, theta, X[None], Y[None], dro)[0]
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
        grads = [worker_reports(model, theta, X[s][None], Y[s][None], dro)[0] for s in shards]
        np.testing.assert_allclose(trace.aggregated[0], np.mean(grads, axis=0), atol=1e-12)

    def test_worker_norms_are_the_norms_of_the_reports(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((20, 3))
        Y = rng.integers(0, 2, size=20).astype(float)
        dro = DROConfig(3.0, 0.05, 4)
        shards, _ = even_shards(20, 5)
        cfg = plain_config(0.3, 1, dro, screen_count=1, seed=6)
        trace = run_training(model, X, Y, WorkerRoster(shards=shards), cfg)
        grads = worker_reports(model, initial_theta(3, 6), X.reshape(5, 4, 3), Y.reshape(5, 4),
                               dro)
        np.testing.assert_array_equal(trace.worker_norms[0], np.linalg.norm(grads, axis=1))

    @pytest.mark.parametrize("model", [LogisticLoss(), QuadraticLoss(1.0)],
                             ids=["logistic", "quadratic"])
    def test_round_summaries_are_the_plain_reductions(self, rng, model):
        # each aggregate's norm, as the record takes it, is np.linalg.norm's, bit for bit
        X = rng.standard_normal((36, 7))
        Y = rng.integers(0, 2, size=36).astype(float)
        dro = DROConfig(3.0, 0.05, 4)
        cfg = plain_config(0.3, 5, dro, screen_count=1, seed=6)
        trace = run_training(model, X, Y, WorkerRoster(shards=even_shards(36, 12)[0]), cfg)
        norms = np.sqrt(dot_sq_norms(trace.aggregated))
        for t in range(5):
            assert norms[t] == np.linalg.norm(trace.aggregated[t])

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

    def test_unequal_shards_are_refused_with_their_sizes(self):
        X, Y = make_cloud(n=12, dim=2, seed=0)
        roster = WorkerRoster(shards=[np.arange(4), np.arange(4, 7), np.arange(7, 12)])
        cfg = plain_config(0.1, 2, DROConfig(2.0, 0.3, 2), seed=0)
        with pytest.raises(ConfigError, match=r"same number of rows, got sizes \[3, 4, 5\]"):
            validate_roster(roster, 12, cfg.screen.screen_count)
        with pytest.raises(ConfigError, match=r"same number of rows, got sizes \[3, 4, 5\]"):
            run_training(QuadraticLoss(), X, Y, roster, cfg)

    def test_zero_reference_warns_once_per_round(self, caplog):
        # every row at theta0 = 0: the honest reports, and so their mean, are exactly zero
        X = np.zeros((12, 2))
        roster = WorkerRoster(shards=even_shards(12, 6)[0], byzantine=(0, 1, 2),
                              attack=AttackSpec(kind="intelligent"))
        cfg = plain_config(0.1, 2, DROConfig(2.0, 0.3, 2), screen_count=3, theta0=np.zeros(2))
        with caplog.at_level(logging.WARNING, logger="robustgd.attacks"):
            run_training(QuadraticLoss(), X, np.zeros(12), roster, cfg)
        assert [rec.getMessage() for rec in caplog.records] == [
            f"intelligent attack degenerate: zero reference at iteration {t}, workers [0, 1, 2]"
            for t in range(2)
        ]

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

    def test_non_finite_byzantine_reports(self, monkeypatch):
        # every byzantine report is non-finite: -inf * reference, NaN where the
        # reference is zero (AttackSpec refuses an infinite scale, so the rows
        # are the scale-10 rows times inf); the patch wraps the round's one
        # stacked call, which crafts every run's rows
        monkeypatch.setattr(simulation, "craft", lambda *args: np.inf * craft(*args))
        X, Y = make_cloud(n=30, dim=3, seed=8)
        shards, _ = even_shards(30, 6)
        attack = AttackSpec(kind="aggressive", scale=10.0)
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
        with np.errstate(over="ignore"):  # as the record takes it
            assert (np.sqrt(dot_sq_norms(trace.aggregated)) == np.inf).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_update_names_the_iteration(self):
        X, Y = make_cloud(n=8, dim=3, seed=1)
        cfg = plain_config(1e308, 3, DROConfig(2.0, 0.3, 2), theta0=np.full(3, 10.0))
        with pytest.raises(NumericError, match="iteration 0: iterate diverged"):
            run_training(QuadraticLoss(), X, Y, WorkerRoster(shards=[np.arange(8)]), cfg)

    @pytest.mark.parametrize("iterations, message", [
        (0, "iterations must be >= 1, got 0"),
        (2.5, "iterations must be an integer count, got 2.5"),   # failed later in np.empty
        (True, "iterations must be an integer count, got True"),  # a one-round run
    ])
    def test_bad_iteration_counts_are_refused_by_name(self, iterations, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            plain_config(0.1, iterations, DROConfig(2.0, 0.3, 2))

    def test_an_integral_float_iteration_count_is_stored_as_an_int(self):
        cfg = plain_config(0.1, 3.0, DROConfig(2.0, 0.3, 2))
        assert cfg.iterations == 3 and type(cfg.iterations) is int

    @pytest.mark.parametrize("eta, message", [
        (True, "eta must be finite and positive, got True"),  # ran with eta = 1.0
        ("1", "eta must be finite and positive, got '1'"),    # a numpy TypeError
        (None, "eta must be finite and positive, got None"),  # a numpy TypeError
        (0.0, "eta must be finite and positive, got 0.0"),
        (float("inf"), "eta must be finite and positive, got inf"),
    ])
    def test_bad_step_sizes_are_refused_by_name(self, eta, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            plain_config(eta, 3, DROConfig(2.0, 0.3, 2))

    def test_an_integral_step_size_is_stored_as_a_float(self):
        cfg = plain_config(np.int64(1), 3, DROConfig(2.0, 0.3, 2))
        assert cfg.eta == 1.0 and type(cfg.eta) is float

    def test_theta0_shape_checked(self):
        X, Y = make_cloud(n=8, dim=3, seed=1)
        roster = WorkerRoster(shards=[np.arange(8)])
        cfg = plain_config(0.1, 2, DROConfig(2.0, 0.3, 2), theta0=np.zeros(2))
        with pytest.raises(ConfigError, match="theta0"):
            run_training(QuadraticLoss(), X, Y, roster, cfg)


def assert_same_bits(a, b, name=""):
    """Equal shapes and bits: -0.0 differs from 0.0 here, and a NaN equals only its own bits."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape, name
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64), err_msg=name)


def batch_problem(kind, attack, R, m=12, n=4, d=5, t_z=5, iterations=12):
    """R runs of one roster shape: each its own data, shards, eta, seed and attack seed.

    The 10 honest workers are enough for numpy to sum their values pairwise.
    """
    rng = np.random.default_rng([R, len(kind), len(attack)])
    model = LogisticLoss() if kind == "logistic" else QuadraticLoss(1.0)
    X = rng.standard_normal((R, m * n, d)) + rng.standard_normal((R, 1, d))
    Y = rng.integers(0, 2, size=(R, m * n)).astype(float)
    dro = DROConfig(3.0, 0.05, t_z) if kind == "logistic" else DROConfig(2.0, 0.3, t_z)
    rosters, cfgs = [], []
    for r in range(R):
        shards = np.split(rng.permutation(m * n), m)
        rosters.append(WorkerRoster(shards=shards, byzantine=(0, 3),
                                    attack=AttackSpec(kind=attack, rng_seed=10 + r)))
        cfgs.append(plain_config(0.1 + 0.05 * r, iterations, dro, screen_count=2, seed=r))
    return model, X, Y, rosters, cfgs


def one_run(model, X, Y, roster, cfg):
    """The round loop of one run on its own, the reference for the batch: (T, ...) arrays."""
    T, d = cfg.iterations, X.shape[1]
    honest, byzantine = list(roster.honest), list(roster.byzantine)
    shards = np.stack([roster.shards[i] for i in honest])
    theta = initial_theta(d, cfg.seed) if cfg.theta0 is None else np.asarray(cfg.theta0)
    out = {name: [] for name in ("aggregated", "worker_norms", "iterates")}
    grads = np.empty((roster.m, d))
    plan = AttackPlan([roster.attack], byzantine, len(honest), T, d) if byzantine else None
    for t in range(T):
        out["iterates"].append(theta)
        honest_grads = worker_reports(model, theta, X[shards], Y[shards], cfg.dro)
        grads[honest] = honest_grads
        with np.errstate(over="ignore", invalid="ignore"):
            if byzantine:
                grads[byzantine] = craft(plan, honest_grads[None],
                                         honest_grads.mean(axis=0)[None], t)[0]
            G, norms = norm_screen(grads, cfg.screen.screen_count)
        out["aggregated"].append(G)
        out["worker_norms"].append(norms)
        theta = theta - cfg.eta * G
    return RunTrace(theta_final=theta, **{name: np.array(v) for name, v in out.items()})


def assert_each_run_alone(model, X, Y, rosters, cfgs):
    """Each run of the batch equals ``run_training`` and ``one_run`` of it, bit for bit."""
    traces = train_runs(model, X, Y, rosters, cfgs)
    assert len(traces) == len(rosters)
    for r, trace in enumerate(traces):
        for alone in (run_training(model, X[r], Y[r], rosters[r], cfgs[r]),
                      one_run(model, X[r], Y[r], rosters[r], cfgs[r])):
            for field in fields(trace):
                if getattr(alone, field.name) is None:
                    assert getattr(trace, field.name) is None, field.name
                else:
                    assert_same_bits(getattr(trace, field.name), getattr(alone, field.name),
                                     f"run {r} {field.name}")


class TestTrainRuns:
    """A batch of runs is its runs trained one at a time, bit for bit."""

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("attack", ["aggressive", "intelligent", "counterexample"])
    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_each_run_of_a_batch_is_the_run_alone(self, kind, attack, R):
        assert_each_run_alone(*batch_problem(kind, attack, R))

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_each_run_of_a_batch_keeps_its_own_attack_kind(self, kind):
        model, X, Y, rosters, cfgs = batch_problem(kind, "aggressive", 3)
        rosters = [replace(roster, attack=replace(roster.attack, kind=attack)) for roster, attack
                   in zip(rosters, ("aggressive", "intelligent", "counterexample"))]
        assert_each_run_alone(model, X, Y, rosters, cfgs)

    def test_a_batch_builds_one_attack_plan(self, monkeypatch):
        built, real = [], simulation.AttackPlan
        monkeypatch.setattr(simulation, "AttackPlan", lambda *args: built.append(args) or
                            real(*args))
        model, X, Y, rosters, cfgs = batch_problem("quadratic", "aggressive", 3)
        rosters = [replace(roster, attack=replace(roster.attack, kind=kind))
                   for roster, kind in zip(rosters, KINDS)]
        train_runs(model, X, Y, rosters, cfgs)
        assert [(specs, workers) for specs, workers, *_ in built] == [
            ([roster.attack for roster in rosters], (0, 3))]
        # a roster without byzantine workers builds none
        run_training(model, X[0], Y[0], WorkerRoster(shards=rosters[0].shards), cfgs[0])
        assert len(built) == 1

    def test_an_out_of_range_target_rank_is_refused_before_round_0(self, monkeypatch):
        model, X, Y, rosters, cfgs = batch_problem("quadratic", "counterexample", 3)
        rosters[1] = replace(rosters[1], attack=replace(rosters[1].attack, target_rank=10))
        calls = []
        monkeypatch.setattr(simulation, "worker_reports", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="^target_rank=10 out of range for 10 honest "
                                              "gradients$"):
            train_runs(model, X, Y, rosters, cfgs)
        assert calls == []

    def test_runs_differ_in_their_own_fields(self):
        model, X, Y, rosters, cfgs = batch_problem("quadratic", "intelligent", 3)
        finals = [trace.theta_final for trace in train_runs(model, X, Y, rosters, cfgs)]
        assert not np.array_equal(finals[0], finals[1])
        assert not np.array_equal(finals[1], finals[2])

    @pytest.mark.parametrize("t_z", [0, 4])
    def test_a_numeric_error_names_the_run_the_iteration_and_the_worker(self, t_z):
        model, X, Y, rosters, cfgs = batch_problem("logistic", "aggressive", 3, t_z=t_z)
        X[1, rosters[1].shards[4][1], 2] = np.nan  # run 1, worker 4's second row
        with pytest.raises(NumericError, match=r"^run 1, iteration 0, worker 4: non-finite "
                                               r"margins"):
            train_runs(model, X, Y, rosters, cfgs)
        X = np.nan_to_num(X)
        cfgs[2] = replace(cfgs[2], theta0=np.full(5, np.inf))
        with pytest.raises(NumericError, match=r"^run 2, iteration 0, worker 1: non-finite "
                                               r"values in theta$"):
            train_runs(model, X, Y, rosters, cfgs)

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_a_non_finite_report_names_the_run_the_iteration_and_the_worker(self, kind):
        # four rows at 1.7e308 in a coordinate the iterate does not weigh: finite rows and
        # margins, but a report whose sum over the worker's rows overflows
        model, X, Y, rosters, cfgs = batch_problem(kind, "aggressive", 3, t_z=4)
        X[1, rosters[1].shards[4], 0], Y[1, rosters[1].shards[4]] = 1.7e308, 0.0
        cfgs = [replace(cfg, theta0=np.array([0.0, 0.1, 0.1, 0.1, 0.1])) for cfg in cfgs]
        with pytest.raises(NumericError, match=r"^run 1, iteration 0, worker 4: non-finite "
                                               r"gradient report$"):
            train_runs(model, X, Y, rosters, cfgs)

    def test_a_diverging_run_is_named(self):
        model, X, Y, rosters, cfgs = batch_problem("quadratic", "aggressive", 3)
        cfgs[2] = replace(cfgs[2], eta=1e308, theta0=np.full(5, 10.0))
        with pytest.raises(NumericError, match=r"^run 2, iteration 0: iterate diverged"):
            train_runs(model, X, Y, rosters, cfgs)
        # the overflow is a divergence of run 2 alone
        with pytest.raises(NumericError, match=r"^iteration 0: iterate diverged"):
            run_training(model, X[2], Y[2], rosters[2], cfgs[2])

    @pytest.mark.parametrize("field, change, shown", [
        ("m", lambda ro, cfg: (replace(ro, shards=np.split(np.arange(24), 8)), cfg), "8"),
        ("byzantine", lambda ro, cfg: (replace(ro, byzantine=(1, 3)), cfg), r"\(1, 3\)"),
        ("shard rows",
         lambda ro, cfg: (replace(ro, shards=np.split(np.arange(36), 12)), cfg), "3"),
        ("screen_count", lambda ro, cfg: (ro, replace(cfg, screen=ScreenConfig(3))), "3"),
        ("dro", lambda ro, cfg: (ro, replace(cfg, dro=DROConfig(2.0, 0.3, 6))), "DROConfig"),
        ("iterations", lambda ro, cfg: (ro, replace(cfg, iterations=13)), "13"),
    ])
    def test_a_batch_refuses_runs_of_another_shape_by_name(self, field, change, shown):
        model, X, Y, rosters, cfgs = batch_problem("quadratic", "aggressive", 3)
        rosters[2], cfgs[2] = change(rosters[2], cfgs[2])
        with pytest.raises(ConfigError, match=rf"^run 2: {field}={shown}.* differs from run 0's"):
            train_runs(model, X, Y, rosters, cfgs)

    def test_a_batch_needs_one_roster_and_config_per_run(self):
        model, X, Y, rosters, cfgs = batch_problem("quadratic", "aggressive", 3)
        for args in ((X[:2], Y[:2], rosters, cfgs), (X, Y, rosters[:2], cfgs),
                     (X, Y, rosters, cfgs[:2]), (X, Y[:, :5], rosters, cfgs),
                     (X[:0], Y[:0], [], [])):
            with pytest.raises(ConfigError, match=r"expected \(R, N, d\) rows"):
                train_runs(model, *args)

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_reports_over_a_run_axis_are_each_runs_reports(self, rng, kind):
        model = LogisticLoss() if kind == "logistic" else QuadraticLoss(1.0)
        dro = DROConfig(3.0, 0.05, 6)
        theta = rng.standard_normal((3, 7))
        X = rng.standard_normal((3, 5, 4, 7))
        Y = rng.integers(0, 2, size=(3, 5, 4)).astype(float)
        grads = worker_reports(model, theta, X, Y, dro)
        assert grads.shape == (3, 5, 7)
        for r in range(3):
            assert_same_bits(grads[r], worker_reports(model, theta[r], X[r], Y[r], dro))
        X[2, 1, 3, 0] = np.nan  # run 2, worker 1's last row: row 2 * 20 + 7 of the block
        with pytest.raises(NumericError) as err:
            worker_reports(model, theta, X, Y, dro)
        np.testing.assert_array_equal(err.value.rows, [47])


def mean_of_means(model, X, Y, roster, dro, theta):
    """The honest workers' mean inner objectives at theta, from explicit ascent rows, averaged.

    A worker's mean is its np.add.reduceat sum over n, as in a round: reduceat
    adds a segment's first value to numpy's pairwise sum of the rest, so
    np.mean can differ from it in the last bit.
    """
    means = []
    for i in roster.honest:
        rows, labels = X[roster.shards[i]], Y[roster.shards[i]]
        Z = ascent_rows(model, theta, rows, labels, dro)
        objectives = penalized_objectives(model, theta, Z, labels, rows, dro.lam)
        means.append(np.add.reduceat(objectives, [0])[0] / len(rows))
    return np.mean(means)


class TestHonestObjective:
    """The final objective estimate is taken after the run; the rounds form no objective."""

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_the_estimate_is_the_mean_of_the_honest_workers_means(self, kind, R):
        # at t_z = 0, z = x, so the oracle's explicit rows give the objectives' bits
        model, X, Y, rosters, cfgs = batch_problem(kind, "aggressive", R, t_z=0)
        for r, trace in enumerate(train_runs(model, X, Y, rosters, cfgs)):
            got = honest_objective(model, X[r], Y[r], rosters[r], cfgs[r].dro, trace)
            assert_same_bits(got, mean_of_means(model, X[r], Y[r], rosters[r], cfgs[r].dro,
                                                trace.iterates[-1]), f"run {r}")

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_after_ascent_steps_the_estimate_is_the_rounds_reduction(self, kind, R):
        # the mean of the workers' row means at the last iterate, bit for bit, and the
        # explicit rows' to rounding
        model, X, Y, rosters, cfgs = batch_problem(kind, "aggressive", R, t_z=5)
        for r, trace in enumerate(train_runs(model, X, Y, rosters, cfgs)):
            roster, dro, theta = rosters[r], cfgs[r].dro, trace.iterates[-1]
            got = honest_objective(model, X[r], Y[r], roster, dro, trace)
            shards = np.stack([roster.shards[i] for i in roster.honest])
            assert_same_bits(got, worker_objectives(model, theta, X[r][shards], Y[r][shards],
                                                    dro).mean(), f"run {r}")
            assert got == pytest.approx(mean_of_means(model, X[r], Y[r], roster, dro, theta),
                                        rel=1e-13)

    @pytest.mark.parametrize("t_z", [0, 10])
    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_at_the_e3_shape_the_estimate_is_the_mean_of_the_worker_means(self, kind, t_z):
        # 17 honest workers of 153 rows and 57 features, the shape of an E3 sweep point
        model, X, Y, [roster], [cfg] = batch_problem(kind, "aggressive", 1, m=19, n=153, d=57,
                                                     t_z=t_z, iterations=2)
        [trace] = train_runs(model, X, Y, [roster], [cfg])
        shards = np.stack([roster.shards[i] for i in roster.honest])
        assert shards.shape == (17, 153)
        got = honest_objective(model, X[0], Y[0], roster, cfg.dro, trace)
        assert_same_bits(got, worker_objectives(model, trace.iterates[-1], X[0][shards],
                                                Y[0][shards], cfg.dro).mean())

    @pytest.mark.parametrize("t_z", [0, 4])
    @pytest.mark.parametrize("R", [1, 3])
    def test_the_rounds_form_no_inner_objective(self, monkeypatch, R, t_z):
        calls, real = [], surrogate.cross_entropy
        monkeypatch.setattr(surrogate, "cross_entropy", lambda *a: calls.append(a) or real(*a))
        model, X, Y, rosters, cfgs = batch_problem("logistic", "aggressive", R, t_z=t_z)
        traces = train_runs(model, X, Y, rosters, cfgs)
        assert calls == []
        honest_objective(model, X[0], Y[0], rosters[0], cfgs[0].dro, traces[0])
        assert len(calls) == 1
        assert "objective_estimates" not in {field.name for field in fields(RunTrace)}

    @pytest.mark.parametrize("rows, iterations, dro, message", [
        # three rows at 1.3e154 from the iterate: objectives of 7.6e307 whose sum overflows
        ([[0.0, 0.0]] * 3 + [[1.3e154, 0.0]] * 3, 2, DROConfig(2.0, 0.3, 0),
         "iteration 1, worker 1: inner objective sum overflows"),
        # k ~ 49^60 ~ 1e101: the far row's objective overflows, the reports do not
        ([[0.0, 0.0], [1.0, 1.0], [1e100, 0.0], [0.0, 0.0]], 1, DROConfig(2.0, 50.0, 60),
         "iteration 0, worker 1: inner ascent diverged at step 60"),
    ])
    def test_an_objective_that_overflows_names_the_last_iteration_and_the_worker(
            self, rows, iterations, dro, message):
        model, X = QuadraticLoss(1.0), np.array(rows)
        Y, half = np.zeros(len(X)), len(X) // 2
        roster = WorkerRoster(shards=[np.arange(half), np.arange(half, len(X))])
        cfg = plain_config(0.1, iterations, dro, theta0=np.zeros(2))
        trace = run_training(model, X, Y, roster, cfg)
        assert np.isfinite(trace.aggregated).all()
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            honest_objective(model, X, Y, roster, dro, trace)


class TestDirectionBlocks:
    """An intelligent run builds its direction generators once and draws from them in blocks."""

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_a_shorter_run_is_the_first_rounds_of_a_longer_one(self, kind):
        model, X, Y, [roster], [cfg] = batch_problem(kind, "intelligent", 1, iterations=12)
        longer = run_training(model, X[0], Y[0], roster, cfg)
        shorter = run_training(model, X[0], Y[0], roster, replace(cfg, iterations=7))
        prefix = longer.prefix(7)
        for field in fields(shorter):
            if getattr(shorter, field.name) is not None:
                assert_same_bits(getattr(shorter, field.name), getattr(prefix, field.name),
                                 field.name)

    def test_a_run_past_a_block_is_the_first_rounds_of_a_run_twice_as_long(self):
        # T is not a multiple of the block length, so the longer run's second
        # block starts inside the shorter run's
        T = DIRECTION_BLOCK_ROUNDS + 44
        model, X, Y, [roster], [cfg] = batch_problem("quadratic", "intelligent", 1,
                                                     iterations=2 * T)
        longer = run_training(model, X[0], Y[0], roster, cfg)
        shorter = run_training(model, X[0], Y[0], roster, replace(cfg, iterations=T))
        prefix = longer.prefix(T)
        for field in fields(shorter):
            if getattr(shorter, field.name) is not None:
                assert_same_bits(getattr(shorter, field.name), getattr(prefix, field.name),
                                 field.name)

    @pytest.mark.parametrize("attack, per_run", [
        ("intelligent", 2), ("aggressive", 0), ("counterexample", 0),
    ])
    @pytest.mark.parametrize("R", [1, 3])
    def test_a_run_builds_one_generator_per_byzantine_worker(self, monkeypatch, attack, per_run,
                                                             R):
        # 12 rounds and 2 byzantine workers: a generator per worker per round would be 24
        model, X, Y, rosters, cfgs = batch_problem("quadratic", attack, R)
        cfgs = [replace(cfg, theta0=np.zeros(5)) for cfg in cfgs]  # initial_theta draws none
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: built.append(args) or default_rng(*args))
        train_runs(model, X, Y, rosters, cfgs)
        assert len(built) == R * per_run, built


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
        model, X, Y, trace, inputs = quadratic_run(seed, 120)
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
        """The diagnostics from ``exact_rows`` (and ``line_ascent``), one iterate at a time."""
        T, d = trace.aggregated.shape
        grads, objs, eps = np.empty((T, d)), np.empty(T), np.empty(T)
        for t, theta in enumerate(trace.iterates):
            rows, objectives, c_star = exact_rows(model, theta, X, Y, dro.lam)
            objs[t] = objectives.mean()
            grads[t] = rows.mean(axis=0)
            if isinstance(model, QuadraticLoss):
                factor = abs(1.0 - dro.eta_z * (dro.lam - model.curvature)) ** dro.t_z / dro.lam
                eps[t] = factor * np.linalg.norm(rows, axis=1).max()
            else:
                _, c_eps, sq_norm = line_ascent(theta, X, Y, dro)
                eps[t] = np.abs(c_eps - c_star).max() * np.sqrt(sq_norm[0])
        return grads, objs, eps

    @pytest.mark.parametrize("T", ["one", "block", "block + 1", 200])
    def test_blocked_quadratic_diagnostics_are_bit_equal_per_iterate(self, T):
        X = quadratic_cloud(200, 6, spread=1.0, seed=0)[0]  # the verify problem
        block = DIAGNOSTIC_BLOCK_ELEMENTS // X.size
        assert 1 < block < 200
        T = {"one": 1, "block": block, "block + 1": block + 1}.get(T, T)
        model, X, Y, trace, inputs = quadratic_run(0, T)
        dro = DROConfig(inputs.lam, theoretical_ascent_step(inputs.lam), 6)  # the run's settings
        grads, objs, eps = self.per_iterate_diagnostics(model, X, Y, trace, dro)
        np.testing.assert_array_equal(trace.true_gradients, grads)
        np.testing.assert_array_equal(trace.true_objectives, objs)
        np.testing.assert_array_equal(trace.inner_eps, eps)

    @staticmethod
    def logistic_problem(T):
        """16 logistic rows, so a diagnostics block holds many iterates, and a trace of T.

        The iterates lie at random norms from 0 to near the regime edge
        ||theta|| = 2 * sqrt(lam), so those of one block need different
        numbers of root steps.
        """
        rng = np.random.default_rng(5)
        X = rng.standard_normal((16, 4))
        Y = rng.integers(0, 2, size=16).astype(float)
        dro = DROConfig(3.0, 0.05, 5)
        trace = run_training(LogisticLoss(), X, Y, WorkerRoster(shards=[np.arange(16)]),
                             plain_config(0.5, T, dro))
        directions = rng.standard_normal((T, 4))
        radii = 2.0 * np.sqrt(dro.lam) * rng.uniform(0.0, 0.999, size=(T, 1))
        iterates = radii * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        iterates[0] = 0.0
        return X, Y, dro, replace(trace, iterates=iterates)

    @pytest.mark.parametrize("T", ["one", "block", "block + 1", "several blocks"])
    def test_blocked_logistic_diagnostics_are_bit_equal_per_iterate(self, T):
        block = DIAGNOSTIC_BLOCK_ELEMENTS // (16 * 4)
        T = {"one": 1, "block": block, "block + 1": block + 1, "several blocks": 3 * block + 7}[T]
        X, Y, dro, trace = self.logistic_problem(T)
        grads, objs, eps = self.per_iterate_diagnostics(LogisticLoss(), X, Y, trace, dro)
        diag = with_diagnostics(LogisticLoss(), X, Y, trace, dro)
        np.testing.assert_array_equal(diag.true_gradients, grads)
        np.testing.assert_array_equal(diag.true_objectives, objs)
        np.testing.assert_array_equal(diag.inner_eps, eps)

    def test_a_logistic_block_holds_iterates_of_different_root_step_counts(self, monkeypatch):
        block = DIAGNOSTIC_BLOCK_ELEMENTS // (16 * 4)
        X, Y, dro, trace = self.logistic_problem(block)
        calls = []  # one sigmoid per root step, and one for the rows at the root
        monkeypatch.setattr(surrogate, "sigmoid", lambda t: calls.append(t) or sigmoid(t))
        steps = []
        for theta in trace.iterates:
            before = len(calls)
            exact_rows(LogisticLoss(), theta, X, Y, dro.lam)
            steps.append(len(calls) - before - 1)
        assert min(steps) <= 2 and max(steps) >= 6, sorted(set(steps))

    def test_logistic_regime_error_names_an_iterate_inside_a_later_block(self):
        block = DIAGNOSTIC_BLOCK_ELEMENTS // (16 * 4)
        X, Y, dro, trace = self.logistic_problem(3 * block)
        trace.iterates[[block + 5, 2 * block + 1]] = [4.0, 0.0, 0.0, 0.0]  # ||theta||^2/4 = 4
        with pytest.raises(RegimeError) as err:
            exact_rows(LogisticLoss(), trace.iterates[block:2 * block], X, Y, dro.lam)
        assert err.value.iterate == 5
        with pytest.raises(RegimeError, match=rf"^iterate {block + 5}: inner objective not "
                                              rf"concave: lam=3.0 <= \|\|theta\|\|\^2/4=4.0$"):
            with_diagnostics(LogisticLoss(), X, Y, trace, dro)

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
        model, X, Y, trace, _ = quadratic_run(0, 40)  # several blocks
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
