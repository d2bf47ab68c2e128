import inspect
import re
from functools import partial

import numpy as np
import pytest

from conftest import (
    ascent_rows,
    central_difference,
    exact_inner_maximizer,
    logistic_grads_z,
    logistic_line_steps,
    loss_grads_theta,
    penalized_objectives,
    quadratic_grads_z,
    rowwise_ascent,
)
from robustgd import surrogate
from robustgd.errors import ConfigError, NumericError, RegimeError
from robustgd.losses import LogisticLoss, QuadraticLoss, sigmoid
from robustgd.surrogate import (
    DROConfig,
    contraction_factor,
    exact_rows,
    required_iterations,
    surrogate_state,
    theoretical_ascent_step,
)


def one_row(x, y=0.0):
    """A single sample as the one-row batch (X, Y) the ascent takes."""
    return np.reshape(x, (1, -1)), np.array([y], dtype=float)


def objective_trace(model, theta, x, y, cfg):
    """Inner objective at z = x and after each of the cfg.t_z ascent steps."""
    X, Y = one_row(x, y)
    iterates = [ascent_rows(model, theta, X, Y, cfg, t_z=k) for k in range(cfg.t_z + 1)]
    return np.array([penalized_objectives(model, theta, Z, Y, X, cfg.lam)[0] for Z in iterates])


def surrogate_grad(model, theta, x, y, cfg):
    """Surrogate gradient of one sample: the loss gradient at the ascent output."""
    X, Y = one_row(x, y)
    return loss_grads_theta(model, theta, ascent_rows(model, theta, X, Y, cfg), Y)[0]


class TestInnerMaximize:
    def test_scalar_quadratic_reaches_closed_form_maximizer(self):
        # lam=2, theta=1, x=0: z* = (lam*x - theta)/(lam - 1) = -1, contraction 1/2
        model = QuadraticLoss(1.0)
        cfg = DROConfig(lam=2.0, eta_z=theoretical_ascent_step(2.0), t_z=30)
        assert cfg.eta_z == pytest.approx(0.5)
        Z = ascent_rows(model, np.array([1.0]), *one_row([0.0]), cfg)
        assert abs(Z[0, 0] - (-1.0)) <= 0.5 ** 30 * 1.0 + 1e-15

    def test_per_step_contraction_is_exact(self, rng):
        model = QuadraticLoss(1.0)
        lam = 2.0
        cfg = DROConfig(lam, theoretical_ascent_step(lam), t_z=1)
        p = contraction_factor(1.0, lam)
        theta = rng.standard_normal(5)
        x = rng.standard_normal(5)
        z_star = exact_inner_maximizer(model, theta, x.reshape(1, -1), lam)[0]
        dists = []
        for t in range(26):
            Z = ascent_rows(model, theta, x.reshape(1, -1), np.zeros(1), cfg, t_z=t)
            dists.append(np.linalg.norm(Z[0] - z_star))
        for t in range(25):
            if dists[t] < 1e-13:
                break
            assert dists[t + 1] / dists[t] == pytest.approx(p, abs=1e-6)

    def test_stationary_start_stays_put(self):
        model = QuadraticLoss(1.0)
        x = np.array([0.7, -0.1])
        cfg = DROConfig(lam=2.0, eta_z=0.3, t_z=15)
        Z = ascent_rows(model, x, *one_row(x), cfg)  # grad_z f = 0 at z = x = theta
        np.testing.assert_array_equal(Z[0], x)

    def test_linear_rate_bound_along_the_run(self, rng):
        model = QuadraticLoss(1.3)
        lam = 3.0
        p = contraction_factor(1.3, lam)
        theta, x = rng.standard_normal((2, 7))
        z_star = exact_inner_maximizer(model, theta, x.reshape(1, -1), lam)[0]
        d0 = np.linalg.norm(x - z_star)
        cfg = DROConfig(lam, theoretical_ascent_step(lam), t_z=1)
        for t in range(40):
            Z = ascent_rows(model, theta, x.reshape(1, -1), np.zeros(1), cfg, t_z=t)
            assert np.linalg.norm(Z[0] - z_star) <= p ** t * d0 + 1e-12

    def test_paper_settings_trace_is_nondecreasing(self, rng):
        model = LogisticLoss()
        cfg = DROConfig(lam=3.0, eta_z=0.05, t_z=10)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            theta = rng.standard_normal(d)
            theta *= min(1.0, 3.0 / np.linalg.norm(theta))  # keep lam > L_zz
            x = rng.standard_normal(d)
            trace = objective_trace(model, theta, x, int(rng.integers(0, 2)), cfg)
            assert (np.diff(trace) >= -1e-12).all()

    def test_ascent_monotone_in_strongly_concave_regime(self, rng):
        model = QuadraticLoss(1.0)
        cfg = DROConfig(lam=2.5, eta_z=theoretical_ascent_step(2.5), t_z=25)
        theta, x = rng.standard_normal((2, 4))
        assert (np.diff(objective_trace(model, theta, x, 0, cfg)) >= -1e-12).all()

    def test_divergent_ascent_raises_with_step_index(self):
        model = QuadraticLoss(1.0)
        cfg = DROConfig(lam=2.0, eta_z=50.0, t_z=500)
        with pytest.raises(NumericError, match="step"):
            ascent_rows(model, np.array([1.0]), *one_row([0.0]), cfg)

    def test_divergent_logistic_ascent_raises_with_step_index(self, rng):
        model = LogisticLoss()
        cfg = DROConfig(lam=3.0, eta_z=50.0, t_z=500)  # |1 - eta_z*lam| = 149 per step
        X = rng.standard_normal((6, 3))
        Y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        theta = rng.standard_normal(3)
        # the plain update names the first non-finite step and the rows it hits
        finite = np.isfinite(logistic_line_steps(theta, X, Y, cfg, cfg.t_z))
        step = int(np.argmin(finite.all(axis=1)))
        assert 0 < step < cfg.t_z
        with pytest.raises(NumericError, match=rf"^inner ascent diverged at step {step}$") as err:
            ascent_rows(model, theta, X, Y, cfg)
        np.testing.assert_array_equal(err.value.rows, np.flatnonzero(~finite[step]))
        # rows whose first push eta_z * (sigmoid(u) - y) is near 0 (a margin of
        # +-30 on the side of its label) trail by a few steps: only the first
        # step's rows are named, though every row diverges before t_z
        theta = np.array([1.0, 0.0, 0.0])
        X = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [-30.0, 0.0, 0.0],
                      [0.5, 1.0, 0.0], [30.0, 1.0, 1.0], [-20.0, 0.0, 1.0]])
        Y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        finite = np.isfinite(logistic_line_steps(theta, X, Y, cfg, cfg.t_z))
        first_steps = np.argmin(finite, axis=0)
        assert not finite[-1].any() and np.unique(first_steps).size == 3
        step = int(first_steps.min())
        with pytest.raises(NumericError, match=rf"^inner ascent diverged at step {step}$") as err:
            ascent_rows(model, theta, X, Y, cfg)
        np.testing.assert_array_equal(err.value.rows, np.flatnonzero(first_steps == step))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DROConfig(lam=0.0)
        with pytest.raises(ConfigError):
            DROConfig(lam=1.0, eta_z=-0.1)
        with pytest.raises(ConfigError):
            DROConfig(lam=1.0, t_z=-1)

    @pytest.mark.parametrize("t_z, message", [
        (-1, "t_z must be >= 0, got -1"),
        (2.5, "t_z must be an integer count, got 2.5"),   # failed later in range
        (True, "t_z must be an integer count, got True"),  # one ascent step
    ])
    def test_bad_step_counts_are_refused_by_name(self, t_z, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            DROConfig(lam=1.0, t_z=t_z)

    def test_an_integral_float_step_count_is_stored_as_an_int(self):
        cfg = DROConfig(lam=1.0, t_z=4.0)
        assert cfg.t_z == 4 and type(cfg.t_z) is int

    @pytest.mark.parametrize("fields, message", [
        (dict(lam=True), "lam must be finite and positive, got True"),  # ran with lam = 1.0
        (dict(lam="3"), "lam must be finite and positive, got '3'"),    # a numpy TypeError
        (dict(lam=None), "lam must be finite and positive, got None"),  # a numpy TypeError
        (dict(lam=0.0), "lam must be finite and positive, got 0.0"),
        (dict(lam=float("nan")), "lam must be finite and positive, got nan"),
        (dict(lam=1.0, eta_z=True), "eta_z must be finite and positive, got True"),
        (dict(lam=1.0, eta_z=float("inf")), "eta_z must be finite and positive, got inf"),
        (dict(lam=1.0, eta_z=-0.1), "eta_z must be finite and positive, got -0.1"),
    ])
    def test_bad_real_fields_are_refused_by_name(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            DROConfig(**fields)

    def test_real_fields_are_stored_as_floats(self):
        cfg = DROConfig(lam=3, eta_z=np.float64(0.5))
        assert (cfg.lam, cfg.eta_z) == (3.0, 0.5)
        assert type(cfg.lam) is float and type(cfg.eta_z) is float


class TestLogisticLinePath:
    """The logistic ascent runs on the line x + c * theta; the row-by-row loop is its oracle."""

    @pytest.mark.parametrize("t_z", [0, 1, 10, 150, 400])
    @pytest.mark.parametrize("theta_norm", [0.0, 5.0])
    def test_matches_the_rowwise_ascent(self, rng, t_z, theta_norm):
        model = LogisticLoss()
        cfg = DROConfig(lam=3.0, eta_z=0.05, t_z=t_z)
        X = rng.standard_normal((40, 6))
        Y = rng.integers(0, 2, size=40).astype(float)
        theta = rng.standard_normal(6)
        theta *= theta_norm / np.linalg.norm(theta)
        Z = ascent_rows(model, theta, X, Y, cfg)
        reference = rowwise_ascent(logistic_grads_z, theta, X, Y, cfg, t_z)
        np.testing.assert_allclose(Z, reference, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            loss_grads_theta(model, theta, Z, Y), loss_grads_theta(model, theta, reference, Y),
            rtol=0, atol=1e-12,
        )


    # worst |c - c_plain| measured over 30 seeds of this grid: 3.9e-16
    @pytest.mark.parametrize("t_z", [1, 10, 150])
    @pytest.mark.parametrize("sq_norm_over_lam", [0.0, 0.25, 1.0, 4.0])
    @pytest.mark.parametrize("margin_scale", [1.0, 1e3], ids=["unit", "exp-overflow"])
    def test_in_place_update_matches_the_plain_update(self, rng, t_z, sq_norm_over_lam,
                                                      margin_scale):
        # c <- rho * c + eta_z / (1 + exp(-u)) - eta_z * y against
        # c += eta_z * ((sigmoid(u) - y) - lam * c); at margin scale 1e3 most
        # |u| exceed 745, so exp(-u) overflows to inf, with no warning
        cfg = DROConfig(lam=3.0, eta_z=0.05, t_z=t_z)
        X = margin_scale * rng.standard_normal((60, 6))
        Y = rng.integers(0, 2, size=60).astype(float)
        theta = rng.standard_normal(6)
        theta *= np.sqrt(sq_norm_over_lam * cfg.lam) / np.linalg.norm(theta)
        margins, c, _ = surrogate.line_ascent(theta, X, Y, cfg)
        if sq_norm_over_lam > 0 and margin_scale > 1:
            assert (margins < -745).any() and (margins > 745).any()
        reference = logistic_line_steps(theta, X, Y, cfg, t_z)[-1]
        np.testing.assert_allclose(c, reference, rtol=0, atol=1e-15)


    @pytest.mark.parametrize("sq_norm", [0.0, 2.5])
    def test_zero_steps_give_the_general_rows_bits(self, monkeypatch, sq_norm):
        # a BLAS product never gives a margin of -0.0, so _margins hands these over
        margins = np.tile([-0.0, 0.0, 800.0, -800.0], 2)
        Y = np.repeat([0.0, 1.0], 4)
        cfg = DROConfig(lam=3.0, eta_z=0.05, t_z=0)
        monkeypatch.setattr(surrogate, "_margins", lambda theta, X: (margins, sq_norm))
        got = (surrogate.line_ascent(np.ones(3), np.ones((8, 3)), Y, cfg)[1],
               surrogate.inner_objectives(np.ones(3), np.ones((8, 3)), Y, cfg))
        _, objectives = surrogate._line_rows(margins, np.zeros(8), sq_norm, Y, cfg.lam)
        for name, a, b in zip(("c", "objectives"), got, (np.zeros(8), objectives)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64), err_msg=name)

    @pytest.mark.parametrize("run_axis", [False, True])
    def test_zero_steps_give_the_general_rows_bits_on_drawn_rows(self, rng, run_axis):
        X = rng.standard_normal((3, 50, 6)) * np.array([1.0, 1e3, 0.0])[:, None, None]
        Y = rng.integers(0, 2, size=(3, 50)).astype(float)
        theta = rng.standard_normal((3, 6))
        if not run_axis:
            X, Y, theta = X[1], Y[1], theta[1]
        cfg = DROConfig(lam=3.0, eta_z=0.05, t_z=0)
        margins, c, sq_norm = surrogate.line_ascent(theta, X, Y, cfg)
        objectives = surrogate.inner_objectives(theta, X, Y, cfg)
        _, general = surrogate._line_rows(margins, np.zeros(margins.shape), sq_norm, Y, cfg.lam)
        np.testing.assert_array_equal(objectives.view(np.int64), general.view(np.int64))
        np.testing.assert_array_equal(c.view(np.int64), np.zeros(margins.shape).view(np.int64))

    def test_ascent_steps_come_from_the_config_only(self):
        import inspect

        for ascent in (surrogate.line_ascent, surrogate.quadratic_line_ascent):
            assert "t_z" not in inspect.signature(ascent).parameters, ascent.__name__


class TestQuadraticLinePath:
    """The quadratic ascent runs on the line x + k * (x - theta); the row-by-row loop is its oracle."""

    @pytest.mark.parametrize("t_z", [0, 1, 6, 40, 400])
    @pytest.mark.parametrize("curvature", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("eta_z", [0.05, theoretical_ascent_step(2.0)], ids=["0.05", "theory"])
    def test_matches_the_rowwise_ascent(self, rng, t_z, curvature, eta_z):
        model = QuadraticLoss(curvature)
        cfg = DROConfig(lam=2.0, eta_z=eta_z, t_z=t_z)
        X = rng.standard_normal((40, 6))
        theta = rng.standard_normal(6)
        Z = ascent_rows(model, theta, X, np.zeros(40), cfg)
        grads_z = partial(quadratic_grads_z, curvature=curvature)
        np.testing.assert_allclose(Z, rowwise_ascent(grads_z, theta, X, None, cfg, t_z), rtol=1e-13)

    def test_diverging_coefficient_names_only_the_moving_rows(self):
        # rows 0 and 2 sit at theta and never move; |1 - eta_z * (lam - c)| = 49 per step
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [-2.0, 0.5]])
        cfg = DROConfig(lam=2.0, eta_z=50.0, t_z=500)
        with pytest.raises(NumericError, match="inner ascent diverged at step") as err:
            ascent_rows(QuadraticLoss(1.0), np.zeros(2), X, np.zeros(4), cfg)
        np.testing.assert_array_equal(err.value.rows, [1, 3])

    def test_rows_at_theta_stay_put_whatever_the_step(self):
        X = np.full((3, 2), 0.25)
        cfg = DROConfig(lam=2.0, eta_z=50.0, t_z=500)
        np.testing.assert_array_equal(ascent_rows(QuadraticLoss(1.0), X[0], X, np.zeros(3), cfg), X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_raise(self, bad):
        model, cfg = QuadraticLoss(1.0), DROConfig(2.0, 0.5, 3)
        X = np.zeros((3, 2))
        with pytest.raises(NumericError, match="theta"):
            ascent_rows(model, np.array([bad, 0.0]), X, np.zeros(3), cfg)
        X[1, 0] = bad
        with pytest.raises(NumericError, match="theta - x") as err:
            ascent_rows(model, np.zeros(2), X, np.zeros(3), cfg)
        np.testing.assert_array_equal(err.value.rows, [1])


class TestSurrogateGradient:
    def test_quadratic_closed_form(self):
        # grad phi = lam*(theta - x)/(lam - 1) = 2 for lam=2, theta=1, x=0
        model = QuadraticLoss(1.0)
        cfg = DROConfig(lam=2.0, eta_z=theoretical_ascent_step(2.0), t_z=60)
        grad = surrogate_grad(model, np.array([1.0]), np.array([0.0]), 0, cfg)
        assert grad[0] == pytest.approx(2.0, abs=1e-10)

    def test_matched_point_gives_zero(self):
        model = QuadraticLoss(1.0)
        x = np.array([0.4, 0.4])
        cfg = DROConfig(lam=2.0, eta_z=0.25, t_z=40)
        grad = surrogate_grad(model, x, x, 0, cfg)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_envelope_identity_on_quadratic_family(self, rng):
        # at the exact inner maximizer the surrogate gradient is the loss
        # gradient there, c*lam*(theta - x)/(lam - c) in closed form
        for _ in range(25):
            c = float(rng.uniform(0.5, 2.0))
            lam = c + float(rng.uniform(0.5, 3.0))
            model = QuadraticLoss(c)
            d = int(rng.integers(1, 6))
            theta, x = rng.standard_normal((2, d))
            grads, _, _ = exact_rows(model, theta, x.reshape(1, -1), None, lam)
            Z_star = exact_inner_maximizer(model, theta, x.reshape(1, -1), lam)
            envelope = loss_grads_theta(model, theta, Z_star, None)[0]
            np.testing.assert_allclose(envelope, c * lam * (theta - x) / (lam - c), rtol=1e-12)
            np.testing.assert_allclose(grads[0], envelope, rtol=1e-12)

    def test_logistic_matches_finite_differences_of_the_surrogate(self, rng):
        model = LogisticLoss()
        lam = 3.0
        cfg = DROConfig(lam, theoretical_ascent_step(lam), t_z=500)
        for _ in range(10):
            d = 4
            theta = 0.8 * rng.standard_normal(d)
            x = rng.standard_normal(d)
            y = int(rng.integers(0, 2))

            def phi(t):
                Z = ascent_rows(model, t, x.reshape(1, -1), np.array([float(y)]), cfg)
                return float(penalized_objectives(
                    model, t, Z, np.array([float(y)]), x.reshape(1, -1), lam
                )[0])

            grad = surrogate_grad(model, theta, x, y, cfg)
            fd = central_difference(phi, theta, h=1e-6)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_closed_form_rows_require_concavity(self, lam):
        X, Y = np.zeros((2, 1)), np.zeros(2)
        with pytest.raises(RegimeError, match="not concave"):
            exact_rows(QuadraticLoss(2.0), np.ones(1), X, Y, lam)
        with pytest.raises(RegimeError, match="not concave"):
            surrogate_state(QuadraticLoss(2.0), np.ones(1), X, Y, lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_closed_form_rows_refuse_a_non_finite_iterate(self, bad):
        model, X = QuadraticLoss(1.0), np.zeros((3, 2))
        with pytest.raises(NumericError, match="^non-finite values in theta$") as err:
            exact_rows(model, [bad, 0.0], X, None, 2.0)
        assert err.value.rows is None
        # in a block, the first rows of the failing iterates among their 3 rows each
        block = np.zeros((4, 2))
        block[1, 0] = block[3, 1] = bad
        with pytest.raises(NumericError, match="^non-finite values in theta$") as err:
            exact_rows(model, block, X, None, 2.0)
        np.testing.assert_array_equal(err.value.rows, [3, 9])

    def test_closed_form_rows_match_the_exact_maximizer(self, rng):
        for _ in range(25):
            c = float(rng.uniform(0.5, 2.0))
            lam = c + float(rng.uniform(0.5, 3.0))
            model = QuadraticLoss(c)
            d = int(rng.integers(1, 6))
            theta, X = rng.standard_normal(d), rng.standard_normal((7, d))
            z_star = exact_inner_maximizer(model, theta, X, lam)
            grads, objectives, k = exact_rows(model, theta, X, None, lam)
            np.testing.assert_allclose(grads, loss_grads_theta(model, theta, z_star, None),
                                       rtol=1e-12)
            np.testing.assert_allclose(
                objectives, penalized_objectives(model, theta, z_star, None, X, lam), rtol=1e-12
            )
            # z* = x - k * (theta - x), at distance ||theta-gradient|| / lam from x
            np.testing.assert_allclose(X - k * (theta - X), z_star, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(np.linalg.norm(grads, axis=1) / lam,
                                       np.linalg.norm(z_star - X, axis=1), rtol=1e-12)

    def test_surrogate_state_exact_and_iterative_agree(self, rng):
        model = QuadraticLoss(1.0)
        lam = 2.0
        X = rng.standard_normal((12, 3))
        Y = np.zeros(12)
        theta = rng.standard_normal(3)
        v_exact, g_exact = surrogate_state(model, theta, X, Y, lam)
        cfg = DROConfig(lam, theoretical_ascent_step(lam), 200)
        Z = ascent_rows(model, theta, X, Y, cfg)
        objectives = penalized_objectives(model, theta, Z, Y, X, lam)
        assert objectives.mean() == pytest.approx(v_exact, rel=1e-10)
        np.testing.assert_allclose(loss_grads_theta(model, theta, Z, Y).mean(axis=0), g_exact,
                                   atol=1e-10)


class TestExactLogisticRows:
    """The logistic maximizer x + c * theta, with c the root of one decreasing function per row."""

    model = LogisticLoss()

    @staticmethod
    def data(rng, theta_norm, n=40, d=6):
        theta = rng.standard_normal(d)
        theta *= theta_norm / np.linalg.norm(theta)
        X = rng.standard_normal((n, d))
        Y = rng.integers(0, 2, size=n).astype(float)
        return theta, X, Y

    @pytest.mark.parametrize("theta_norm", [0.0, 0.5, 3.0, 3.46])
    def test_stationarity_residual_at_rounding_level(self, rng, theta_norm):
        lam = 3.0  # ||theta||^2 / 4 reaches 2.99 at the largest norm
        theta, X, Y = self.data(rng, theta_norm)
        X *= 10.0  # margins far into the saturated tails too
        _, _, c = exact_rows(self.model, theta, X, Y, lam)
        residual = sigmoid(X @ theta + c * (theta @ theta)) - Y - lam * c
        assert np.abs(residual).max() <= 16 * np.finfo(float).eps

    def test_coefficients_lie_in_their_bracket(self, rng):
        for lam in (0.2, 3.0, 50.0):
            theta, X, Y = self.data(rng, 0.9 * np.sqrt(4.0 * lam))
            _, _, c = exact_rows(self.model, theta, X, Y, lam)
            ones = Y == 1.0
            assert ((-1.0 / lam <= c[ones]) & (c[ones] <= 0.0)).all()
            assert ((0.0 <= c[~ones]) & (c[~ones] <= 1.0 / lam)).all()

    @pytest.mark.parametrize("label", [0.0, 1.0])
    @pytest.mark.parametrize("theta_norm", [0.0, 0.5, 3.0])
    def test_matches_the_converged_rowwise_ascent(self, rng, theta_norm, label):
        lam = 3.0
        theta, X, _ = self.data(rng, theta_norm)
        Y = np.full(len(X), label)
        # contraction 1 - (lam - ||theta||^2 / 4) / lam <= 3/4 per step at this step size
        cfg = DROConfig(lam, theoretical_ascent_step(lam), 400)
        Z = rowwise_ascent(logistic_grads_z, theta, X, Y, cfg, cfg.t_z)
        grads, objectives, c = exact_rows(self.model, theta, X, Y, lam)
        np.testing.assert_allclose(X + c[:, None] * theta, Z, rtol=1e-12)
        np.testing.assert_allclose(grads, loss_grads_theta(self.model, theta, Z, Y), rtol=1e-12)
        np.testing.assert_allclose(
            objectives, penalized_objectives(self.model, theta, Z, Y, X, lam), rtol=1e-12
        )

    @pytest.mark.parametrize("excess", [1.0, 1.5])
    def test_regime_error_outside_strong_concavity(self, rng, excess):
        lam = 0.5
        theta, X, Y = self.data(rng, np.sqrt(4.0 * lam * excess))
        with pytest.raises(RegimeError, match=r"not concave: lam=0.5 <= \|\|theta\|\|\^2/4"):
            exact_rows(self.model, theta, X, Y, lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_raise(self, rng, bad):
        theta, X, Y = self.data(rng, 1.0)
        with pytest.raises(NumericError, match="theta"):
            exact_rows(self.model, np.append(theta[:-1], bad), X, Y, 3.0)
        X[7, 2] = bad
        with pytest.raises(NumericError, match="margins") as err:
            exact_rows(self.model, theta, X, Y, 3.0)
        np.testing.assert_array_equal(err.value.rows, [7])

    def test_unconverged_solve_raises(self, rng, monkeypatch):
        theta, X, Y = self.data(rng, 3.0)
        monkeypatch.setattr(surrogate, "ROOT_STEPS", 1)
        with pytest.raises(NumericError, match="not found in 1 steps") as err:
            exact_rows(self.model, theta, X, Y, 3.0)
        assert err.value.rows.size > 0


class TestIterationCount:
    def test_the_cost_smoothness_is_the_module_constant(self):
        # c(z, x) = ||z - x||^2 / 2 is the only cost: no function takes its smoothness
        assert surrogate.COST_SMOOTHNESS == 1.0
        for fn, params in ((theoretical_ascent_step, ["lam"]),
                           (contraction_factor, ["l_zz", "lam"]),
                           (required_iterations, ["constants", "lam", "eps", "d_z"])):
            assert list(inspect.signature(fn).parameters) == params, fn.__name__

    def test_power_of_two_case(self):
        model = QuadraticLoss(1.0)
        n, p = required_iterations(model.constants(), lam=2.0, eps=1.0 / 1024.0, d_z=1.0)
        assert p == pytest.approx(0.5)
        assert n == 10

    def test_already_accurate_needs_zero(self):
        model = QuadraticLoss(1.0)
        n, _ = required_iterations(model.constants(), lam=2.0, eps=1.0, d_z=1.0)
        assert n == 0

    def test_power_of_three_case(self):
        model = QuadraticLoss(1.0)
        n, p = required_iterations(model.constants(), lam=3.0, eps=1.0 / 9.0, d_z=1.0)
        assert p == pytest.approx(1.0 / 3.0)
        assert n == 2

    def test_matches_measured_iterations_to_accuracy(self, rng):
        # independent measurement: run the ascent, count steps until within eps
        model = QuadraticLoss(1.0)
        theta = np.array([1.0, -2.0])
        x = np.array([0.5, 0.5])
        # accuracy targets chosen off the exact p^k boundaries, where a one-ulp
        # rounding of the contraction factor could shift the measured count
        for lam, inv_eps in ((2.0, 1000.0), (3.0, 100.0), (5.0, 10_000.0)):
            z_star = exact_inner_maximizer(model, theta, x.reshape(1, -1), lam)[0]
            d_z = np.linalg.norm(x - z_star)
            eps = d_z / inv_eps
            cfg = DROConfig(lam, theoretical_ascent_step(lam), t_z=1)
            steps = 0
            while True:
                Z = ascent_rows(model, theta, x.reshape(1, -1), np.zeros(1), cfg, t_z=steps)
                if np.linalg.norm(Z[0] - z_star) <= eps:
                    break
                steps += 1
            predicted, _ = required_iterations(model.constants(), lam, eps, d_z)
            assert steps == predicted

    def test_regime_errors(self):
        model = QuadraticLoss(2.0)
        with pytest.raises(RegimeError):
            required_iterations(model.constants(), lam=1.5, eps=0.1, d_z=1.0)
        with pytest.raises(ConfigError):
            required_iterations(model.constants(), lam=3.0, eps=0.0, d_z=1.0)

