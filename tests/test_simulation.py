import numpy as np
import pytest

from robustgd.aggregation import ScreenConfig
from robustgd.attacks import AttackSpec
from robustgd.bounds import surrogate_smoothness
from robustgd.data import even_shards, quadratic_cloud
from robustgd.errors import ConfigError, NumericError
from robustgd.losses import LogisticLoss, QuadraticLoss
from robustgd.simulation import (
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    initial_theta,
    run_training,
    run_variant,
    with_diagnostics,
    worker_reports,
)
from robustgd.surrogate import (
    DROConfig,
    ascend,
    exact_inner_maximizer,
    penalized_objectives,
    surrogate_state,
    theoretical_ascent_step,
)


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
        Z = ascend(model, theta, X, Y, dro)
        np.testing.assert_allclose(grad, model.grads_theta(theta, Z, Y)[0], rtol=1e-14)

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
            Z = ascend(model, theta, X[rows], Y[rows], dro)
            np.testing.assert_allclose(grads[j], model.mean_grad_theta(theta, Z, Y[rows]),
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
    Z = ascend(model, theta, X, Y, dro)
    grads = np.add.reduceat(model.grads_theta(theta, Z, Y), starts, axis=0) / counts[:, None]
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

    @pytest.mark.parametrize("counts", [[6, 6, 6], [3, 1, 7, 2]], ids=["equal", "unequal"])
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
        theta, X, Y = self.data(rng, counts)
        dro = DROConfig(3.0, 0.05, 0)
        grads, objs = worker_reports(self.model, theta, X, Y, counts, dro)
        ref_grads, ref_objs = z_path_reports(self.model, theta, X, Y, counts, dro)
        np.testing.assert_array_equal(grads, ref_grads)
        np.testing.assert_array_equal(objs, ref_objs)

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
            measured = np.linalg.norm(
                ascend(model, theta, X, Y, cfg.dro) - exact_inner_maximizer(model, theta, X, lam),
                axis=1,
            ).max()
            assert measured <= diag.inner_eps[t] * (1 + 1e-12)

    def test_logistic_diagnostics_measure_against_a_long_ascent(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((16, 3))
        Y = rng.integers(0, 2, size=16).astype(float)
        shards, _ = even_shards(16, 4)
        lam = 3.0
        cfg = plain_config(0.5, 4, DROConfig(lam, 0.05, 5), seed=3)
        trace = run_training(model, X, Y, WorkerRoster(shards=shards), cfg)
        diag = with_diagnostics(model, X, Y, trace, cfg.dro, true_solver_t_z=120)
        for t, theta in enumerate(diag.iterates):
            value, grad = surrogate_state(model, theta, X, Y, lam, t_z=120)
            assert diag.true_objectives[t] == value
            np.testing.assert_array_equal(diag.true_gradients[t], grad)
            precise = ascend(model, theta, X, Y, DROConfig(lam, theoretical_ascent_step(lam), 120))
            expected = np.linalg.norm(ascend(model, theta, X, Y, cfg.dro) - precise, axis=1).max()
            assert diag.inner_eps[t] == expected
        # a worker-precision ascent with more steps lands closer to the maximizer
        finer = with_diagnostics(model, X, Y, trace, DROConfig(lam, 0.05, 40),
                                 true_solver_t_z=120)
        assert (finer.inner_eps < diag.inner_eps).all()


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

    def test_zero_ascent_steps_match_plain_gradients(self):
        nbs = run_variant("nbs_only", self.model, self.X, self.Y, self.roster, self.cfg)
        erm = run_variant("erm", self.model, self.X, self.Y, self.roster, self.cfg)
        # honest workers of both variants see z = x, so norms agree at round 0
        honest = [i for i in range(6) if i != 0]
        np.testing.assert_array_equal(
            nbs.worker_norms[0, honest], erm.worker_norms[0, honest]
        )

    def test_erm_with_clean_roster_is_textbook_distributed_descent(self):
        # t_z = 0 and no screening: the update is full-batch descent on the
        # empirical loss (worker shards average back to the global mean)
        clean = WorkerRoster(shards=self.roster.shards)
        trace = run_variant("erm", self.model, self.X, self.Y, clean, self.cfg)

        theta = initial_theta(3, 2)
        for _ in range(self.cfg.iterations):
            grads = [self.model.mean_grad_theta(theta, self.X[s], self.Y[s])
                     for s in clean.shards]
            theta = theta - self.cfg.eta * np.mean(grads, axis=0)
        np.testing.assert_allclose(trace.theta_final, theta, atol=1e-12)

    def test_plain_mean_variant_with_clean_roster_matches_average(self):
        clean = WorkerRoster(shards=self.roster.shards)
        dro_only = run_variant("dro_only", self.model, self.X, self.Y, clean, self.cfg)
        alg2 = run_variant("alg2", self.model, self.X, self.Y, clean,
                           plain_config(0.4, 6, DROConfig(3.0, 0.05, 8), seed=2))
        # with nothing to screen and b=0 both reduce to the same mean
        np.testing.assert_allclose(dro_only.theta_final, alg2.theta_final, atol=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            run_variant("median", self.model, self.X, self.Y, self.roster, self.cfg)


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
        got = gradient_dispersion(model, X, np.zeros(2), np.array([0.3, -0.2]), lam,
                                  precision_t_z=200)
        c_f = lam / (lam - 1.0)
        expected = c_f * np.linalg.norm(X[0] - X[1]) / 2.0
        assert got == pytest.approx(expected, rel=1e-10)

    def test_positive_and_finite_on_generic_data(self, rng):
        model = LogisticLoss()
        X = rng.standard_normal((30, 5))
        Y = rng.integers(0, 2, 30).astype(float)
        sigma = gradient_dispersion(model, X, Y, 0.1 * rng.standard_normal(5), 3.0)
        assert np.isfinite(sigma) and sigma > 0
