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
    logistic_line_steps,
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
from robustgd.data import quadratic_cloud
from robustgd.errors import ConfigError, NumericError, RegimeError
from robustgd.experiments import ExperimentConfig, _roster, _train_config
from robustgd.losses import LogisticLoss, QuadraticLoss, sigmoid
from robustgd.simulation import (
    DIAGNOSTIC_BLOCK_ELEMENTS,
    ReportPlan,
    RunTrace,
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    honest_objective,
    initial_theta,
    run_training,
    train_runs,
    with_diagnostics,
    worker_reports,
)
from robustgd.surrogate import (
    DROConfig,
    exact_rows,
    inner_objectives,
    line_ascent,
    quadratic_line_ascent,
    surrogate_state,
    theoretical_ascent_step,
)


def make_cloud(n=60, dim=4, seed=0, spread=1.0):
    return quadratic_cloud(n, dim, spread=spread, seed=seed)


def plain_config(eta, iterations, dro, screen_count=0, **kwargs):
    return TrainConfig(
        eta=eta, iterations=iterations, dro=dro, screen=ScreenConfig(screen_count), **kwargs
    )


def plan_reports(model, theta, X, Y, dro):
    """``worker_reports`` at theta through a ``ReportPlan`` of its own."""
    return worker_reports(ReportPlan(model, X, Y, dro), theta)


def per_worker_reports(model, theta, X, Y, dro):
    """Reference reports: one product r_j @ X_j per worker plus sequential segment sums.

    The logistic residual is the general r = sigmoid(theta . x + c * ||theta||^2) - y
    at every t_z, so at t_z = 0 (c = 0) it checks the reports' plain residual.
    """
    k, n, d = X.shape
    rows, labels = X.reshape(k * n, d), Y.reshape(k * n)
    starts = np.arange(0, k * n, n)
    if isinstance(model, LogisticLoss):
        margins, c, sq_norm = line_ascent(theta, rows, labels, dro)
        r = sigmoid(margins + c * sq_norm) - labels
        grad_sums = np.add.reduceat(r * c, starts)[:, None] * theta
        for j, s in enumerate(starts):
            grad_sums[j] += r[s:s + n] @ rows[s:s + n]
    else:
        line_k, D = quadratic_line_ascent(model, theta, rows, dro)
        grad_sums = model.curvature * (1.0 + line_k) * np.add.reduceat(D, starts, axis=0)
    return grad_sums / n


def worker_rows(m, N):
    """Each worker's row indices: worker j holds rows [j * n, (j + 1) * n) of N = m * n."""
    n = N // m
    return np.array([np.arange(j * n, (j + 1) * n) for j in range(m)])


def worker_objectives(theta, X, Y, dro):
    """Each worker's mean logistic inner objective over its rows of a (k, n, d) block."""
    k, n, d = X.shape
    objectives = inner_objectives(theta, X.reshape(k * n, d), Y.reshape(k * n), dro)
    return np.add.reduceat(objectives, np.arange(0, k * n, n)) / n


class TestWorkerGradient:
    def test_single_sample_shard_equals_surrogate_gradient(self, rng):
        model = LogisticLoss()
        dro = DROConfig(3.0, 0.05, 10)
        theta = 0.5 * rng.standard_normal(6)
        x = rng.standard_normal(6)
        X, Y = x.reshape(1, -1), np.array([1.0])
        (grad,) = plan_reports(model, theta, X[None], Y[None], dro)
        # the surrogate gradient of one sample: the loss gradient at the ascent output
        Z = ascent_rows(model, theta, X, Y, dro)
        np.testing.assert_allclose(grad, loss_grads_theta(model, theta, Z, Y)[0], rtol=1e-14)

    def test_duplicated_sample_changes_nothing(self, rng):
        model = QuadraticLoss(1.0)
        dro = DROConfig(2.0, 0.25, 12)
        theta = rng.standard_normal(3)
        x = rng.standard_normal(3)
        single = plan_reports(model, theta, x.reshape(1, 1, -1), np.zeros((1, 1)), dro)
        double = plan_reports(model, theta, np.stack([x, x])[None], np.zeros((1, 2)), dro)
        np.testing.assert_allclose(double, single, rtol=1e-15)

    def test_quadratic_shard_matches_closed_form(self, rng):
        # lam*(theta - mean x)/(lam - 1) for unit curvature and exact inner solves
        model = QuadraticLoss(1.0)
        lam = 2.0
        dro = DROConfig(lam, theoretical_ascent_step(lam), 80)
        theta = rng.standard_normal(5)
        X = rng.standard_normal((9, 5))
        (grad,) = plan_reports(model, theta, X[None], np.zeros((1, 9)), dro)
        expected = lam * (theta - X.mean(axis=0)) / (lam - 1.0)
        np.testing.assert_allclose(grad, expected, atol=1e-10)

    @pytest.mark.parametrize("model", [LogisticLoss(), QuadraticLoss(1.0)],
                             ids=["logistic", "quadratic"])
    def test_shards_match_one_ascent_per_worker(self, rng, model):
        dro = DROConfig(3.0, 0.05, 10)
        theta = 0.5 * rng.standard_normal(4)
        X = rng.standard_normal((4, 3, 4))
        Y = rng.integers(0, 2, size=(4, 3)).astype(float)
        grads = plan_reports(model, theta, X, Y, dro)
        assert grads.shape == (4, 4)
        for j in range(4):
            Z = ascent_rows(model, theta, X[j], Y[j], dro)
            np.testing.assert_allclose(grads[j], loss_grads_theta(model, theta, Z, Y[j]).mean(0),
                                       rtol=0, atol=1e-14)
        if isinstance(model, LogisticLoss):  # the objectives are the logistic family's only
            objs = worker_objectives(theta, X, Y, dro)
            for j in range(4):
                Z = ascent_rows(model, theta, X[j], Y[j], dro)
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
        grads = plan_reports(model, theta, X, Y, dro)
        np.testing.assert_array_equal(grads, per_worker_reports(model, theta, X, Y, dro))

    @pytest.mark.parametrize("sq_norm", [0.0, 2.5])
    def test_zero_steps_give_the_general_residuals_bits(self, rng, monkeypatch, sq_norm):
        # a BLAS product never gives a margin of -0.0, so _margins hands these over
        margins = np.tile([-0.0, 0.0, 800.0, -800.0], 2)
        for module in (simulation, surrogate):
            monkeypatch.setattr(module, "_margins", lambda theta, X, out=None: (margins, sq_norm))
        X, Y = rng.standard_normal((2, 4, 3)), np.repeat([0.0, 1.0], 4).reshape(2, 4)
        dro = DROConfig(3.0, 0.05, 0)
        grads = plan_reports(LogisticLoss(), np.ones(3), X, Y, dro)
        expected = per_worker_reports(LogisticLoss(), np.ones(3), X, Y, dro)
        np.testing.assert_array_equal(grads.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("x_shape, y_shape", [((5, 2), (5,)), ((2, 0, 2), (2, 0)),
                                                  ((0, 3, 2), (0, 3)), ((2, 2, 2), (2, 3))])
    def test_reports_need_a_row_block(self, x_shape, y_shape):
        with pytest.raises(ConfigError, match=r"\(k, n, d\) row block"):
            ReportPlan(QuadraticLoss(), np.zeros(x_shape), np.zeros(y_shape),
                       DROConfig(2.0, 0.3, 2))

    @pytest.mark.parametrize("x_shape, theta_shape", [((2, 3, 4), (3,)), ((2, 3, 4), (1, 4)),
                                                      ((5, 2, 3, 4), (4,)),
                                                      ((5, 2, 3, 4), (4, 4))])
    def test_reports_need_the_plans_iterate_shape(self, x_shape, theta_shape):
        plan = ReportPlan(LogisticLoss(), np.zeros(x_shape), np.zeros(x_shape[:-1]),
                          DROConfig(2.0, 0.3, 2))
        with pytest.raises(ConfigError, match=r"^expected an iterate of shape"):
            worker_reports(plan, np.zeros(theta_shape))


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
        grads = plan_reports(self.model, theta, X, Y, dro)
        objs = worker_objectives(theta, X, Y, dro)
        ref_grads, ref_objs = z_path_reports(self.model, theta, X, Y, dro)
        np.testing.assert_allclose(grads, ref_grads, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(objs, ref_objs, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 6), (4, 3)], ids=["equal", "four-workers"])
    def test_zero_ascent_steps_are_bit_equal(self, rng, shape):
        # the objectives share the reference's reduceat
        theta, X, Y = self.data(rng, shape)
        dro = DROConfig(3.0, 0.05, 0)
        objs = worker_objectives(theta, X, Y, dro)
        _, ref_objs = z_path_reports(self.model, theta, X, Y, dro)
        np.testing.assert_array_equal(objs, ref_objs)

    @pytest.mark.parametrize("shape", [(3, 6), (4, 3)], ids=["equal", "four-workers"])
    def test_zero_ascent_gradients_match_to_rounding(self, rng, shape):
        # per-worker BLAS products sum in another order than the reference's
        # reduceat (gap 1.1e-16 here, at most 4.4e-16 over 2000 random draws)
        theta, X, Y = self.data(rng, shape)
        dro = DROConfig(3.0, 0.05, 0)
        grads = plan_reports(self.model, theta, X, Y, dro)
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
            plan_reports(self.model, theta, X, Y, dro)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 2

    @pytest.mark.parametrize("t_z", [0, 4])
    def test_non_finite_theta_raises(self, rng, t_z):
        _, X, Y = self.data(rng, (2, 4))
        theta = np.array([1.0, np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(NumericError, match="theta"):
            plan_reports(self.model, theta, X, Y, DROConfig(3.0, 0.05, t_z))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("t_z", [0, 4])
    def test_non_finite_row_raises_with_the_row(self, rng, t_z, bad):
        theta, X, Y = self.data(rng, (2, 4))
        X[1, 1, 2] = bad  # row 5 of the block
        with pytest.raises(NumericError) as err:
            plan_reports(self.model, theta, X, Y, DROConfig(3.0, 0.05, t_z))
        np.testing.assert_array_equal(err.value.rows, [5])

    @pytest.mark.parametrize("t_z", [0, 4])
    def test_run_training_names_the_iteration_and_the_worker(self, rng, t_z):
        theta, X, Y = self.data(rng, (12,))
        X[9, 0] = np.nan  # worker 2's second row
        roster = WorkerRoster(m=3)
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
        return np.add.reduceat(loss_grads_theta(model, theta, Z, None), starts, axis=0) / n

    @pytest.mark.parametrize("t_z", [0, 1, 6, 40, 400])
    @pytest.mark.parametrize("curvature", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("eta_z", [0.05, theoretical_ascent_step(2.0)], ids=["0.05", "theory"])
    def test_matches_the_rowwise_ascent(self, rng, t_z, curvature, eta_z):
        model = QuadraticLoss(curvature)
        dro = DROConfig(2.0, eta_z, t_z)
        X = rng.standard_normal((4, 3, 6))
        theta = rng.standard_normal(6)
        grads = plan_reports(model, theta, X, np.zeros((4, 3)), dro)
        np.testing.assert_allclose(grads, self.oracle_reports(model, theta, X, dro), rtol=1e-13)


def line_step_reports(theta, X, Y, dro):
    """Logistic reports from the in-place-form line step oracle, reduced as a round reduces them.

    ``X`` is a (k, n, d) block or an (R, k, n, d) one with (d,) or (R, d)
    iterates; each run's c is ``logistic_line_steps``'s last row.
    """
    if X.ndim == 4:
        return np.stack([line_step_reports(*run, dro) for run in zip(theta, X, Y)])
    k, n, d = X.shape
    rows, labels = X.reshape(k * n, d), Y.reshape(k * n)
    c = logistic_line_steps(theta, rows, labels, dro, dro.t_z, in_place_form=True)[-1]
    r = sigmoid(rows @ theta + c * (theta @ theta)) - labels
    sums = np.matmul(r.reshape(k, 1, n), X).reshape(k, d)
    sums += np.add.reduceat(r * c, np.arange(0, k * n, n))[:, None] * theta
    return sums / n


class TestReportPlan:
    """A plan sets a batch's honest side up once; each call does only the round's arithmetic."""

    @staticmethod
    def problem(rng, R, k=3, n=5, d=4):
        shape = (k, n) if R is None else (R, k, n)
        X = rng.standard_normal((*shape, d))
        Y = rng.integers(0, 2, size=shape).astype(float)
        theta = rng.standard_normal(d if R is None else (R, d))
        return theta, X, Y

    @pytest.mark.parametrize("R", [None, 3])
    @pytest.mark.parametrize("t_z", [1, 2, 10])
    def test_reports_are_the_line_step_oracles_bits(self, rng, t_z, R):
        theta, X, Y = self.problem(rng, R)
        plan = ReportPlan(LogisticLoss(), X, Y, DROConfig(3.0, 0.3, t_z))
        for scale in (1.0, 0.1, 3.0):  # one plan, several rounds
            assert_same_bits(worker_reports(plan, scale * theta),
                             line_step_reports(scale * theta, X, Y, plan.dro))

    @pytest.mark.parametrize("model, t_z", [(LogisticLoss(), 0), (LogisticLoss(), 4),
                                            (QuadraticLoss(1.0), 4)],
                             ids=["logistic-0", "logistic-4", "quadratic-4"])
    @pytest.mark.parametrize("R", [None, 3])
    def test_each_call_returns_new_memory(self, rng, model, t_z, R):
        theta, X, Y = self.problem(rng, R)
        plan = ReportPlan(model, X, Y, DROConfig(3.0, 0.3, t_z))
        first = worker_reports(plan, theta)
        kept = first.copy()
        second = worker_reports(plan, 0.5 * theta)
        assert not np.shares_memory(first, second)
        buffers = [value for value in vars(plan).values() if isinstance(value, np.ndarray)]
        assert not any(np.shares_memory(report, buffer)
                       for report in (first, second) for buffer in buffers)
        assert_same_bits(first, kept)
        assert_same_bits(second, plan_reports(model, 0.5 * theta, X, Y, plan.dro))

    def test_a_diverging_quadratic_k_raises_at_the_first_call_with_a_moving_row(self, rng):
        # |1 - eta_z * (lam - c)| = 49 per step: k leaves the floats within 200 steps
        model, dro = QuadraticLoss(1.0), DROConfig(2.0, 50.0, 500)
        point = rng.standard_normal(4)
        X = np.tile(point, (2, 3, 1))  # every row at one point
        plan = ReportPlan(model, X, np.zeros((2, 3)), dro)
        assert_same_bits(worker_reports(plan, point), np.zeros((2, 4)))  # no row moves
        theta = point + 1.0
        with pytest.raises(NumericError) as alone:
            quadratic_line_ascent(model, theta, X.reshape(6, 4), dro)
        with pytest.raises(NumericError) as err:
            worker_reports(plan, theta)
        assert re.fullmatch(r"inner ascent diverged at step \d+", str(err.value))
        assert str(err.value) == str(alone.value)
        np.testing.assert_array_equal(err.value.rows, np.arange(6))
        np.testing.assert_array_equal(alone.value.rows, np.arange(6))

    @pytest.mark.parametrize("t_z", [1, 3])
    def test_a_step_size_whose_rho_overflows_diverges_at_step_1_on_every_row(self, rng, t_z):
        # eta_z * lam = inf: the plain step's rho * 0 is nan on every row
        theta, X, Y = self.problem(rng, None)
        dro = DROConfig(3.0, 1e308, t_z)
        rows, labels = X.reshape(15, 4), Y.reshape(15)
        for refuse in (lambda: plan_reports(LogisticLoss(), theta, X, Y, dro),
                       lambda: line_ascent(theta, rows, labels, dro)):
            with pytest.raises(NumericError, match="^inner ascent diverged at step 1$") as err:
                refuse()
            np.testing.assert_array_equal(err.value.rows, np.arange(15))
        steps = logistic_line_steps(theta, rows, labels, dro, 1, in_place_form=True)
        assert np.isnan(steps[1]).all()

    @staticmethod
    def penalty_problem(theta0, ones):
        """theta = (theta0, 0) against two workers' four rows at (-20, 0); worker 1's first ``ones``
        rows have label 1.

        One step of eta_z = 0.5 from c = 0 gives c = 0.5 * (sigmoid(-20 * theta0) - y): under
        1e-17 where y = 0 and ~ -0.5 where y = 1, whose penalty lam * 0.5 * c^2 * ||theta||^2
        is ~ lam * theta0^2 / 8.
        """
        Y = np.zeros((2, 4))
        Y[1, :ones] = 1.0
        return np.array([theta0, 0.0]), np.tile([-20.0, 0.0], (2, 4, 1)), Y

    @pytest.mark.parametrize("theta0, ones, message, rows", [
        (2.0, 4, "inner objective sum overflows", [4]),  # four penalties of ~ 0.5e308
        (4.0, 1, "inner ascent diverged at step 1", [4]),  # one of ~ 2e308
        (4.0, 4, "inner ascent diverged at step 1", [4, 5, 6, 7]),
    ])
    def test_a_penalty_that_breaks_the_objective_is_refused(self, theta0, ones, message, rows):
        # as the objectives of the same ascent refuse it: a row's, or a worker's sum
        theta, X, Y = self.penalty_problem(theta0, ones)
        dro = DROConfig(1e308, 0.5, 1)
        with pytest.raises(NumericError, match=f"^{message}$") as err:
            plan_reports(LogisticLoss(), theta, X, Y, dro)
        np.testing.assert_array_equal(err.value.rows, rows)
        with pytest.raises(NumericError, match=f"^{message}$") as objective:
            simulation._objective_sums(inner_objectives(theta, X.reshape(8, 2), Y.reshape(8), dro),
                                       np.array([0, 4]), 4)
        np.testing.assert_array_equal(objective.value.rows, rows)

    @pytest.mark.parametrize("t_z, checks", [(1, 1), (0, 0)])
    def test_a_penalty_that_breaks_nothing_changes_no_report(self, monkeypatch, t_z, checks):
        # one penalty of ~ 0.5e308, above the plan's cap, in a finite sum: the exact check
        # runs and passes; at t_z = 0 there is no penalty (and ||theta||^2 = 16 penalties
        # would overflow) and no check
        calls, real = [], simulation.inner_objectives
        monkeypatch.setattr(simulation, "inner_objectives", lambda *a: calls.append(a) or real(*a))
        theta, X, Y = self.penalty_problem(2.0 if t_z else 4.0, 1 if t_z else 4)
        plan = ReportPlan(LogisticLoss(), X, Y, DROConfig(1e308, 0.5, t_z))
        assert plan.penalty_cap < 0.5e308
        expected = (line_step_reports(theta, X, Y, plan.dro) if t_z
                    else per_worker_reports(LogisticLoss(), theta, X, Y, plan.dro))
        assert_same_bits(worker_reports(plan, theta), expected)
        assert len(calls) == checks


class TestRunTraining:
    def test_clean_run_descends_and_converges_linearly(self):
        model = QuadraticLoss(1.0)
        X, Y = make_cloud(n=40, dim=3, seed=5)
        roster = WorkerRoster(m=4)
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
        roster = WorkerRoster(m=1)
        cfg = plain_config(0.5, 15, dro, seed=9)
        trace = run_training(model, X, Y, roster, cfg)

        theta = initial_theta(3, 9)
        plan = ReportPlan(model, X[None], Y[None], dro)
        for _ in range(15):
            theta = theta - 0.5 * worker_reports(plan, theta)[0]
        np.testing.assert_array_equal(trace.theta_final, theta)

    def test_bit_identical_reruns(self):
        model = QuadraticLoss(1.0)
        X, Y = make_cloud(n=50, dim=4, seed=2)
        roster = WorkerRoster(m=10, alpha_m=2, attack=AttackSpec(kind="intelligent", rng_seed=3))
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
        roster = WorkerRoster(m=5)
        cfg = plain_config(0.3, 3, dro, seed=6)
        trace = run_training(model, X, Y, roster, cfg)

        theta = initial_theta(3, 6)
        grads = [plan_reports(model, theta, X[s][None], Y[s][None], dro)[0]
                 for s in worker_rows(5, 20)]
        np.testing.assert_allclose(trace.aggregated[0], np.mean(grads, axis=0), atol=1e-12)

    def test_worker_norms_are_the_norms_of_the_reports(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((20, 3))
        Y = rng.integers(0, 2, size=20).astype(float)
        dro = DROConfig(3.0, 0.05, 4)
        cfg = plain_config(0.3, 1, dro, screen_count=1, seed=6)
        trace = run_training(model, X, Y, WorkerRoster(m=5), cfg)
        grads = plan_reports(model, initial_theta(3, 6), X.reshape(5, 4, 3), Y.reshape(5, 4),
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
        trace = run_training(model, X, Y, WorkerRoster(m=12), cfg)
        norms = np.sqrt(dot_sq_norms(trace.aggregated))
        for t in range(5):
            assert norms[t] == np.linalg.norm(trace.aggregated[t])

    def test_trace_shapes_and_finiteness(self):
        model = QuadraticLoss(1.0)
        X, Y = make_cloud(n=30, dim=2, seed=3)
        roster = WorkerRoster(m=6)
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
        roster = WorkerRoster(m=8, alpha_m=2, attack=AttackSpec(kind="aggressive", rng_seed=2))
        cfg = plain_config(0.3, 9, DROConfig(2.0, 0.3, 5), screen_count=2, seed=5)
        trace = run_training(model, X, Y, roster, cfg)
        np.testing.assert_array_equal(trace.iterates[0], initial_theta(3, 5))
        stepped = trace.iterates - cfg.eta * trace.aggregated
        np.testing.assert_array_equal(trace.iterates[1:], stepped[:-1])
        np.testing.assert_array_equal(trace.theta_final, stepped[-1])

    @pytest.mark.parametrize("alpha_m, attack, message", [
        (3, AttackSpec(kind="aggressive"), "alpha_m must be < m=3 so that a worker is honest, "
                                           "got 3"),
        (-1, AttackSpec(kind="aggressive"), "alpha_m must be >= 0, got -1"),
        (1.5, AttackSpec(kind="aggressive"), "alpha_m must be an integer count, got 1.5"),
        (1, None, "alpha_m=1 byzantine workers need an attack, got none"),
    ])
    def test_the_byzantine_count_is_checked_by_name(self, alpha_m, attack, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            WorkerRoster(m=3, alpha_m=alpha_m, attack=attack)

    def test_the_first_alpha_m_workers_are_byzantine(self):
        roster = WorkerRoster(m=3, alpha_m=2.0, attack=AttackSpec(kind="aggressive"))
        assert roster.alpha_m == 2 and type(roster.alpha_m) is int
        assert roster.byzantine == range(2)
        assert WorkerRoster(m=3).byzantine == range(0)

    @pytest.mark.parametrize("N, m", [(12, 5), (13, 3), (2, 3), (0, 3)])
    def test_rows_that_m_does_not_divide_are_refused_naming_n_and_m(self, N, m):
        X, Y = make_cloud(n=N, dim=2, seed=0)
        cfg = plain_config(0.1, 2, DROConfig(2.0, 0.3, 2), seed=0)
        message = rf"^N={N} rows do not split into m={m} equal non-empty worker blocks$"
        with pytest.raises(ConfigError, match=message):
            run_training(QuadraticLoss(), X, Y, WorkerRoster(m=m), cfg)

    @pytest.mark.parametrize("m, message", [
        (0, "m must be >= 1, got 0"),
        (2.5, "m must be an integer count, got 2.5"),
        (True, "m must be an integer count, got True"),
        ("3", "m must be an integer count, got '3'"),
    ])
    def test_the_worker_count_is_checked_by_name(self, m, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            WorkerRoster(m=m)

    def test_an_integral_float_worker_count_is_stored_as_an_int(self):
        roster = WorkerRoster(m=3.0)
        assert roster.m == 3 and type(roster.m) is int

    def test_zero_reference_warns_once_per_round(self, caplog):
        # every row at theta0 = 0: the honest reports, and so their mean, are exactly zero
        X = np.zeros((12, 2))
        roster = WorkerRoster(m=6, alpha_m=3, attack=AttackSpec(kind="intelligent"))
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
        roster = WorkerRoster(m=3)
        cfg = plain_config(0.1, 3, DROConfig(2.0, 50.0, 500), theta0=np.zeros(2))
        with pytest.raises(NumericError, match=r"iteration 0, worker 2: inner ascent diverged"):
            run_training(QuadraticLoss(), X, np.zeros(6), roster, cfg)

    def test_divergent_logistic_ascent_names_the_first_honest_worker(self, rng):
        # at theta = 0 every row's line coordinate grows by 149x per step alike
        X = rng.standard_normal((12, 3))
        Y = rng.integers(0, 2, size=12).astype(float)
        roster = WorkerRoster(m=4, alpha_m=1, attack=AttackSpec(kind="aggressive"))
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
        attack = AttackSpec(kind="aggressive", scale=10.0)
        roster = WorkerRoster(m=6, alpha_m=2, attack=attack)
        dro = DROConfig(2.0, 0.3, 3)
        trace = run_training(QuadraticLoss(), X, Y, roster,
                             plain_config(0.2, 4, dro, screen_count=2, seed=1))
        assert np.isfinite(trace.aggregated).all()
        assert not np.isfinite(trace.worker_norms[:, :2]).any()
        clean = run_training(QuadraticLoss(), X[10:], Y[10:], WorkerRoster(m=4),
                             plain_config(0.2, 4, dro, seed=1))
        np.testing.assert_array_equal(trace.aggregated, clean.aggregated)
        # more non-finite reports than the screen drops: the run fails with context
        with pytest.raises(NumericError, match="iteration 0: non-finite aggregated"):
            run_training(QuadraticLoss(), X, Y, roster,
                         plain_config(0.2, 4, dro, screen_count=1, seed=1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_report_past_the_float_range_is_screened(self):
        # -1e308 times a reference entry above 1.8 overflows to -inf
        X, Y = make_cloud(n=30, dim=3, seed=8)
        attack = AttackSpec(kind="aggressive", scale=1e308)
        roster = WorkerRoster(m=6, alpha_m=1, attack=attack)
        dro = DROConfig(2.0, 0.3, 3)
        cfg = plain_config(0.1, 3, dro, screen_count=1, theta0=np.full(3, 10.0))
        trace = run_training(QuadraticLoss(), X, Y, roster, cfg)
        assert (trace.worker_norms[:, 0] == np.inf).all()
        clean = run_training(QuadraticLoss(), X[5:], Y[5:], WorkerRoster(m=5),
                             plain_config(0.1, 3, dro, theta0=np.full(3, 10.0)))
        np.testing.assert_array_equal(trace.aggregated, clean.aggregated)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_huge_finite_aggregate_has_norm_inf(self):
        X, Y = make_cloud(n=30, dim=3, seed=8)
        roster = WorkerRoster(m=6, alpha_m=1, attack=AttackSpec(kind="aggressive", scale=1e200))
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
            run_training(QuadraticLoss(), X, Y, WorkerRoster(m=1), cfg)

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
        roster = WorkerRoster(m=1)
        cfg = plain_config(0.1, 2, DROConfig(2.0, 0.3, 2), theta0=np.zeros(2))
        with pytest.raises(ConfigError, match="theta0"):
            run_training(QuadraticLoss(), X, Y, roster, cfg)


def assert_same_bits(a, b, name=""):
    """Equal shapes and bits: -0.0 differs from 0.0 here, and a NaN equals only its own bits."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape, name
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64), err_msg=name)


def batch_problem(kind, attack, R, m=12, n=4, d=5, t_z=5, iterations=12):
    """R runs of one roster shape: each its own data and row order, eta, seed and attack seed.

    The 10 honest workers are enough for numpy to sum their values pairwise.
    """
    rng = np.random.default_rng([R, len(kind), len(attack)])
    model = LogisticLoss() if kind == "logistic" else QuadraticLoss(1.0)
    X = rng.standard_normal((R, m * n, d)) + rng.standard_normal((R, 1, d))
    Y = rng.integers(0, 2, size=(R, m * n)).astype(float)
    dro = DROConfig(3.0, 0.05, t_z) if kind == "logistic" else DROConfig(2.0, 0.3, t_z)
    rosters, cfgs = [], []
    for r in range(R):
        order = rng.permutation(m * n)
        X[r], Y[r] = X[r][order], Y[r][order]
        rosters.append(WorkerRoster(m=m, alpha_m=2,
                                    attack=AttackSpec(kind=attack, rng_seed=10 + r)))
        cfgs.append(plain_config(0.1 + 0.05 * r, iterations, dro, screen_count=2, seed=r))
    return model, X, Y, rosters, cfgs


def one_run(model, X, Y, roster, cfg):
    """The round loop of one run on its own, the reference for the batch: (T, ...) arrays.

    It scatters the reports by worker id lists, where the batch writes slices.
    """
    T, d = cfg.iterations, X.shape[1]
    honest, byzantine = list(range(roster.alpha_m, roster.m)), list(roster.byzantine)
    shards = worker_rows(roster.m, X.shape[0])[honest]
    theta = initial_theta(d, cfg.seed) if cfg.theta0 is None else np.asarray(cfg.theta0)
    out = {name: [] for name in ("aggregated", "worker_norms", "iterates")}
    grads = np.empty((roster.m, d))
    plan = AttackPlan([roster.attack], byzantine, T, d) if byzantine else None
    for t in range(T):
        out["iterates"].append(theta)
        honest_grads = plan_reports(model, theta, X[shards], Y[shards], cfg.dro)
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
            ([roster.attack for roster in rosters], range(2))]
        # a roster without byzantine workers builds none
        run_training(model, X[0], Y[0], WorkerRoster(m=rosters[0].m), cfgs[0])
        assert len(built) == 1

    def test_a_counterexample_roster_with_one_honest_worker_is_refused_when_built(self):
        _, _, _, rosters, _ = batch_problem("quadratic", "aggressive", 3, m=4)
        message = "^the counterexample attack needs at least 2 honest workers, got 1$"
        for kind in ("aggressive", "intelligent"):
            roster = replace(rosters[0], alpha_m=3, attack=replace(rosters[0].attack, kind=kind))
            assert roster.m - roster.alpha_m == 1
        with pytest.raises(ConfigError, match=message):
            replace(rosters[1], alpha_m=3, attack=replace(rosters[1].attack,
                                                          kind="counterexample"))
        with pytest.raises(ConfigError, match=message):
            WorkerRoster(4, 3, AttackSpec(kind="counterexample"))

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_the_rounds_get_one_c_ordered_honest_block(self, monkeypatch, kind, R):
        # one ReportPlan per batch, built before round 0 and used by every round; its
        # C-ordered (R, k, n, d) block is viewed as (R, k * n, d) rows without a copy,
        # and for one run it is a view of the training rows
        built, used = [], []
        real_plan, real_reports = simulation.ReportPlan, simulation.worker_reports
        monkeypatch.setattr(simulation, "ReportPlan",
                            lambda *args: built.append(real_plan(*args)) or built[-1])
        monkeypatch.setattr(simulation, "worker_reports",
                            lambda plan, theta: used.append(plan) or real_reports(plan, theta))
        model, X, Y, rosters, cfgs = batch_problem(kind, "aggressive", R)
        train_runs(model, X, Y, rosters, cfgs)
        [plan] = built
        assert len(used) == cfgs[0].iterations and all(p is plan for p in used)
        assert plan.block.shape == (R, 10, 4, 5) and plan.block.flags["C_CONTIGUOUS"]
        assert plan.rows.shape == (R, 40, 5) and np.shares_memory(plan.rows, plan.block)
        assert np.shares_memory(plan.block, X) == (R == 1)
        assert_same_bits(plan.block, X.reshape(R, 12, 4, 5)[:, 2:])
        assert_same_bits(plan.labels, Y.reshape(R, 12, 4)[:, 2:].reshape(R, 40))

    def test_runs_differ_in_their_own_fields(self):
        model, X, Y, rosters, cfgs = batch_problem("quadratic", "intelligent", 3)
        finals = [trace.theta_final for trace in train_runs(model, X, Y, rosters, cfgs)]
        assert not np.array_equal(finals[0], finals[1])
        assert not np.array_equal(finals[1], finals[2])

    @pytest.mark.parametrize("t_z", [0, 4])
    def test_a_numeric_error_names_the_run_the_iteration_and_the_worker(self, t_z):
        model, X, Y, rosters, cfgs = batch_problem("logistic", "aggressive", 3, t_z=t_z)
        X[1, worker_rows(12, 48)[4][1], 2] = np.nan  # run 1, worker 4's second row
        with pytest.raises(NumericError, match=r"^run 1, iteration 0, worker 4: non-finite "
                                               r"margins"):
            train_runs(model, X, Y, rosters, cfgs)
        X = np.nan_to_num(X)
        cfgs[2] = replace(cfgs[2], theta0=np.full(5, np.inf))
        with pytest.raises(NumericError, match=r"^run 2, iteration 0, worker 2: non-finite "
                                               r"values in theta$"):
            train_runs(model, X, Y, rosters, cfgs)

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_a_non_finite_report_names_the_run_the_iteration_and_the_worker(self, kind):
        # four rows at 1.7e308 in a coordinate the iterate does not weigh: finite rows and
        # margins, but a report whose sum over the worker's rows overflows
        model, X, Y, rosters, cfgs = batch_problem(kind, "aggressive", 3, t_z=4)
        X[1, worker_rows(12, 48)[4], 0], Y[1, worker_rows(12, 48)[4]] = 1.7e308, 0.0
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
        ("m", lambda ro, cfg: (replace(ro, m=8), cfg), "8"),
        ("alpha_m", lambda ro, cfg: (replace(ro, alpha_m=3), cfg), "3"),
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
        grads = plan_reports(model, theta, X, Y, dro)
        assert grads.shape == (3, 5, 7)
        for r in range(3):
            assert_same_bits(grads[r], plan_reports(model, theta[r], X[r], Y[r], dro))
        X[2, 1, 3, 0] = np.nan  # run 2, worker 1's last row: row 2 * 20 + 7 of the block
        with pytest.raises(NumericError) as err:
            plan_reports(model, theta, X, Y, dro)
        np.testing.assert_array_equal(err.value.rows, [47])


def mean_of_means(model, X, Y, roster, dro, theta):
    """The honest workers' mean inner objectives at theta, from explicit ascent rows, averaged.

    A worker's mean is its np.add.reduceat sum over n, as in a round: reduceat
    adds a segment's first value to numpy's pairwise sum of the rest, so
    np.mean can differ from it in the last bit.
    """
    means = []
    for i in range(roster.alpha_m, roster.m):
        shard = worker_rows(roster.m, X.shape[0])[i]
        rows, labels = X[shard], Y[shard]
        Z = ascent_rows(model, theta, rows, labels, dro)
        objectives = penalized_objectives(model, theta, Z, labels, rows, dro.lam)
        means.append(np.add.reduceat(objectives, [0])[0] / len(rows))
    return np.mean(means)


class TestHonestObjective:
    """The final objective estimate is taken after the run; the rounds form no objective."""

    @pytest.mark.parametrize("R", [1, 3])
    def test_the_estimate_is_the_mean_of_the_honest_workers_means(self, R):
        # at t_z = 0, z = x, so the oracle's explicit rows give the objectives' bits
        model, X, Y, rosters, cfgs = batch_problem("logistic", "aggressive", R, t_z=0)
        for r, trace in enumerate(train_runs(model, X, Y, rosters, cfgs)):
            got = honest_objective(X[r], Y[r], rosters[r], cfgs[r].dro, trace)
            assert_same_bits(got, mean_of_means(model, X[r], Y[r], rosters[r], cfgs[r].dro,
                                                trace.iterates[-1]), f"run {r}")

    @pytest.mark.parametrize("R", [1, 3])
    def test_after_ascent_steps_the_estimate_is_the_rounds_reduction(self, R):
        # the mean of the workers' row means at the last iterate, bit for bit, and the
        # explicit rows' to rounding
        model, X, Y, rosters, cfgs = batch_problem("logistic", "aggressive", R, t_z=5)
        for r, trace in enumerate(train_runs(model, X, Y, rosters, cfgs)):
            roster, dro, theta = rosters[r], cfgs[r].dro, trace.iterates[-1]
            got = honest_objective(X[r], Y[r], roster, dro, trace)
            shards = worker_rows(roster.m, X.shape[1])[roster.alpha_m:]
            assert_same_bits(got, worker_objectives(theta, X[r][shards], Y[r][shards],
                                                    dro).mean(), f"run {r}")
            assert got == pytest.approx(mean_of_means(model, X[r], Y[r], roster, dro, theta),
                                        rel=1e-13)

    @pytest.mark.parametrize("t_z", [0, 10])
    def test_at_the_e3_shape_the_estimate_is_the_mean_of_the_worker_means(self, t_z):
        # 17 honest workers of 153 rows and 57 features, the shape of an E3 sweep point
        model, X, Y, [roster], [cfg] = batch_problem("logistic", "aggressive", 1, m=19, n=153,
                                                     d=57, t_z=t_z, iterations=2)
        [trace] = train_runs(model, X, Y, [roster], [cfg])
        shards = worker_rows(roster.m, X.shape[1])[roster.alpha_m:]
        assert shards.shape == (17, 153)
        got = honest_objective(X[0], Y[0], roster, cfg.dro, trace)
        assert_same_bits(got, worker_objectives(trace.iterates[-1], X[0][shards], Y[0][shards],
                                                cfg.dro).mean())

    @pytest.mark.parametrize("t_z", [0, 4])
    @pytest.mark.parametrize("R", [1, 3])
    def test_the_rounds_form_no_inner_objective(self, monkeypatch, R, t_z):
        calls, real = [], surrogate.cross_entropy
        monkeypatch.setattr(surrogate, "cross_entropy", lambda *a: calls.append(a) or real(*a))
        model, X, Y, rosters, cfgs = batch_problem("logistic", "aggressive", R, t_z=t_z)
        traces = train_runs(model, X, Y, rosters, cfgs)
        assert calls == []
        honest_objective(X[0], Y[0], rosters[0], cfgs[0].dro, traces[0])
        assert len(calls) == 1
        assert "objective_estimates" not in {field.name for field in fields(RunTrace)}

    @pytest.mark.parametrize("theta0, dro, message", [
        # one step of eta_z = lam = 1 gives c = 1/2 on worker 0's rows at theta . x = 0 and
        # c = 1 on worker 1's at theta . x ~ 1.3e154: penalties of c^2 * ||theta||^2 / 2,
        # ~ 2e307 and ~ 8.3e307, and worker 1's sum overflows
        (1.3e154, DROConfig(1.0, 1.0, 1), "worker 1: inner objective sum overflows"),
        # c = 10 on worker 1's rows: a penalty of 0.01 * 50 * ||theta||^2, whose
        # 50 * ||theta||^2 ~ 5e308 overflows; the reports do not
        (3.2e153, DROConfig(0.01, 10.0, 1), "worker 1: inner ascent diverged at step 1"),
    ])
    def test_an_objective_that_overflows_names_the_iteration_and_the_worker(
            self, theta0, dro, message):
        # the round where the penalty breaks refuses the run, and the estimate refuses a
        # trace that ends at that iterate, naming its last iteration
        X = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 3)
        roster = WorkerRoster(m=2)
        cfg = plain_config(0.01, 2, dro, theta0=np.array([theta0, 0.0]))
        with pytest.raises(NumericError, match=f"^iteration 0, {re.escape(message)}$"):
            run_training(LogisticLoss(), X, np.zeros(6), roster, cfg)
        iterates = np.array([[0.0, 0.0], cfg.theta0])
        trace = RunTrace(aggregated=np.zeros((2, 2)), worker_norms=np.zeros((2, 2)),
                         iterates=iterates, theta_final=iterates[-1])
        with pytest.raises(NumericError, match=f"^iteration 1, {re.escape(message)}$"):
            honest_objective(X, np.zeros(6), roster, dro, trace)


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
        lam = 2.0
        cfg = plain_config(0.3, 5, DROConfig(lam, 0.3, 3), seed=2)
        trace = run_training(model, X, Y, WorkerRoster(m=4), cfg)
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
        lam = 3.0
        cfg = plain_config(0.5, 4, DROConfig(lam, 0.05, 5), seed=3)
        trace = run_training(model, X, Y, WorkerRoster(m=4), cfg)
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
        trace = run_training(model, X, Y, WorkerRoster(m=1), cfg)
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
        trace = run_training(model, X, Y, WorkerRoster(m=1), cfg)
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

    LOGISTIC_ROWS = 64  # of width 4: a block of DIAGNOSTIC_BLOCK_ELEMENTS holds 128 iterates

    @classmethod
    def logistic_block(cls):
        return DIAGNOSTIC_BLOCK_ELEMENTS // (cls.LOGISTIC_ROWS * 4)

    @classmethod
    def logistic_problem(cls, T):
        """LOGISTIC_ROWS rows, so a diagnostics block holds many iterates, and a trace of T.

        The iterates lie at random norms from 0 to near the regime edge
        ||theta|| = 2 * sqrt(lam), so those of one block need different
        numbers of root steps.
        """
        rng = np.random.default_rng(5)
        n = cls.LOGISTIC_ROWS
        X = rng.standard_normal((n, 4))
        Y = rng.integers(0, 2, size=n).astype(float)
        dro = DROConfig(3.0, 0.05, 5)
        trace = run_training(LogisticLoss(), X, Y, WorkerRoster(m=1),
                             plain_config(0.5, T, dro))
        directions = rng.standard_normal((T, 4))
        radii = 2.0 * np.sqrt(dro.lam) * rng.uniform(0.0, 0.999, size=(T, 1))
        iterates = radii * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        iterates[0] = 0.0
        return X, Y, dro, replace(trace, iterates=iterates)

    @pytest.mark.parametrize("T", ["one", "block", "block + 1", "several blocks"])
    def test_blocked_logistic_diagnostics_are_bit_equal_per_iterate(self, T):
        block = self.logistic_block()
        T = {"one": 1, "block": block, "block + 1": block + 1, "several blocks": 3 * block + 7}[T]
        X, Y, dro, trace = self.logistic_problem(T)
        grads, objs, eps = self.per_iterate_diagnostics(LogisticLoss(), X, Y, trace, dro)
        diag = with_diagnostics(LogisticLoss(), X, Y, trace, dro)
        np.testing.assert_array_equal(diag.true_gradients, grads)
        np.testing.assert_array_equal(diag.true_objectives, objs)
        np.testing.assert_array_equal(diag.inner_eps, eps)

    def test_a_logistic_block_holds_iterates_of_different_root_step_counts(self, monkeypatch):
        block = self.logistic_block()
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
        block = self.logistic_block()
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
    """The variant table, applied where ``experiments._train_config`` builds a run's config."""

    FIELDS = dict(m=6, attack="aggressive", eta=0.4, iterations=6, lam=3.0, eta_z=0.05, t_z=8,
                  screen_count=1, seed=2)

    def setup_method(self):
        self.model = LogisticLoss()
        self.X, _ = make_cloud(n=24, dim=3, seed=11)
        rng = np.random.default_rng(11)
        self.Y = rng.integers(0, 2, size=24).astype(float)

    def run(self, variant, alpha_m=1, **fields):
        cfg = ExperimentConfig(variant=variant, alpha_m=alpha_m, **{**self.FIELDS, **fields})
        return run_training(self.model, self.X, self.Y, _roster(cfg), _train_config(cfg))

    @pytest.mark.parametrize("variant, screen_count, t_z", [
        ("alg2", 1, 8), ("dro_only", 0, 8), ("nbs_only", 1, 0), ("erm", 0, 0),
    ])
    def test_each_variant_keeps_its_robustness_measures(self, variant, screen_count, t_z):
        cfg = _train_config(ExperimentConfig(variant=variant, **self.FIELDS))
        assert (cfg.screen.screen_count, cfg.dro) == (screen_count, DROConfig(3.0, 0.05, t_z))
        assert (cfg.eta, cfg.iterations, cfg.seed, cfg.theta0) == (0.4, 6, 2, None)

    def test_zero_ascent_steps_match_plain_gradients(self):
        nbs = self.run("nbs_only")
        erm = self.run("erm")
        # honest workers of both variants see z = x, so norms agree at round 0
        np.testing.assert_array_equal(nbs.worker_norms[0, 1:], erm.worker_norms[0, 1:])

    def test_erm_with_clean_roster_is_textbook_distributed_descent(self):
        # t_z = 0 and no screening: the update is full-batch descent on the
        # empirical loss (worker shards average back to the global mean)
        trace = self.run("erm", alpha_m=0)

        theta = initial_theta(3, 2)
        for _ in range(6):
            grads = [loss_grads_theta(self.model, theta, self.X[s], self.Y[s]).mean(axis=0)
                     for s in worker_rows(6, 24)]
            theta = theta - 0.4 * np.mean(grads, axis=0)
        np.testing.assert_allclose(trace.theta_final, theta, atol=1e-12)

    def test_plain_mean_variant_with_clean_roster_matches_average(self):
        dro_only = self.run("dro_only", alpha_m=0)
        alg2 = self.run("alg2", alpha_m=0, screen_count=0)
        # with nothing to screen and b=0 both reduce to the same mean
        np.testing.assert_allclose(dro_only.theta_final, alg2.theta_final, atol=1e-12)


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
