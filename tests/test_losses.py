import inspect
import math
import re
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from conftest import central_difference, logistic_grads_z, quadratic_grads_z
from robustgd.errors import ConfigError, NumericError
from robustgd.losses import (LogisticLoss, QuadraticLoss, SmoothnessConstants, cross_entropy,
                             sigmoid)
from robustgd.surrogate import DROConfig, line_ascent, quadratic_line_ascent

# With zero ascent steps z = x, so the surrogate per row is the plain loss
# and its theta-gradient: the losses are checked on the line ascents' outputs
# (the margins theta . x, and theta - x) with the formulas they feed.
PLAIN = DROConfig(lam=1.0, t_z=0)


def logistic_values(theta, Z, Y):
    margins, _, _ = line_ascent(theta, Z, Y, PLAIN)
    return cross_entropy(sigmoid(margins), Y)


def logistic_grads_theta(theta, Z, Y):
    margins, _, _ = line_ascent(theta, Z, Y, PLAIN)
    return (sigmoid(margins) - Y)[:, None] * Z


def quadratic_values(model, theta, Z, Y=None):
    _, D = quadratic_line_ascent(model, theta, Z, PLAIN)
    return 0.5 * model.curvature * np.einsum("ij,ij->i", D, D)


def quadratic_grads_theta(model, theta, Z, Y=None):
    k, D = quadratic_line_ascent(model, theta, Z, PLAIN)
    return model.curvature * (1.0 + k) * D


def row(batch_fn, theta, z, y=0.0):
    """A batch loss function on the one-row batch (z, y), returning that row."""
    return batch_fn(theta, np.reshape(z, (1, -1)), np.array([y], dtype=float))[0]


class TestLogistic:
    model = LogisticLoss()

    def test_zero_logit_label_one_gives_log_two(self):
        theta = np.array([1.0, -1.0])
        z = np.array([1.0, 1.0])  # theta . z = 0
        assert row(logistic_values, theta, z, 1) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_scalar_instance_against_math_oracle(self):
        # independent scalar arithmetic: -ln(1 - sigmoid(2))
        expected = -math.log(1.0 - 1.0 / (1.0 + math.exp(-2.0)))
        got = row(logistic_values, np.array([2.0]), np.array([1.0]), 0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.126928011042973, rel=1e-12)

    def test_zero_logit_gradient_is_half_z(self):
        theta = np.array([1.0, -2.0, 1.0])
        z = np.array([2.0, 1.0, 0.0])  # theta . z = 0, a = 1/2, y = 1 -> (a-y) = -1/2
        np.testing.assert_allclose(row(logistic_grads_theta, theta, z, 1), -0.5 * z, rtol=1e-15)
        np.testing.assert_allclose(row(logistic_grads_z, theta, z, 1), -0.5 * theta, rtol=1e-15)

    def test_gradients_match_central_differences(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 6))
            theta = rng.standard_normal(d)
            z = rng.standard_normal(d)
            y = int(rng.integers(0, 2))
            g_t = row(logistic_grads_theta, theta, z, y)
            g_z = row(logistic_grads_z, theta, z, y)
            fd_t = central_difference(lambda t: row(logistic_values, t, z, y), theta)
            fd_z = central_difference(lambda w: row(logistic_values, theta, w, y), z)
            np.testing.assert_allclose(g_t, fd_t, rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(g_z, fd_z, rtol=1e-5, atol=1e-7)

    def test_convexity_in_theta(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 8))
            t1, t2, z = rng.standard_normal((3, d))
            y = int(rng.integers(0, 2))
            lam = float(rng.random())
            mid = row(logistic_values, lam * t1 + (1 - lam) * t2, z, y)
            chord = (lam * row(logistic_values, t1, z, y)
                     + (1 - lam) * row(logistic_values, t2, z, y))
            assert mid <= chord + 1e-12

    def test_extreme_logits_stay_finite(self):
        theta = np.array([1000.0])
        assert np.isfinite(row(logistic_values, theta, np.array([1.0]), 0))
        assert np.isfinite(row(logistic_values, -theta, np.array([1.0]), 1))

    def test_constants_are_the_norm_bound_estimates(self):
        constants = self.model.constants(data_bound=3.0, theta_bound=2.0)
        assert constants.l_tt == pytest.approx(2.25)
        assert constants.l_zz == pytest.approx(1.0)

    def test_non_finite_inputs_raise(self):
        with pytest.raises(NumericError):
            row(logistic_values, np.array([np.nan]), np.array([1.0]), 1)
        with pytest.raises(NumericError):
            row(logistic_values, np.array([1.0]), np.array([np.inf]), 1)

    def test_batch_matches_per_sample(self, rng):
        theta = rng.standard_normal(4)
        Z = rng.standard_normal((6, 4))
        Y = rng.integers(0, 2, size=6).astype(float)
        values = logistic_values(theta, Z, Y)
        grads = logistic_grads_theta(theta, Z, Y)
        for j in range(6):
            assert values[j] == pytest.approx(row(logistic_values, theta, Z[j], Y[j]), rel=1e-15)
            np.testing.assert_allclose(grads[j], row(logistic_grads_theta, theta, Z[j], Y[j]))


class TestQuadratic:
    def test_value_zero_at_theta_equals_z(self):
        values = partial(quadratic_values, QuadraticLoss(1.0))
        v = np.array([0.3, -1.2])
        assert row(values, v, v) == 0.0

    def test_linear_gradients(self):
        grads = partial(quadratic_grads_theta, QuadraticLoss(1.0))
        assert row(grads, np.array([3.0]), np.array([1.0]))[0] == pytest.approx(2.0)
        assert row(quadratic_grads_z, np.array([3.0]), np.array([1.0]))[0] == pytest.approx(-2.0)

    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_constants_equal_curvature_exactly(self, c):
        constants = QuadraticLoss(c).constants()
        assert constants == SmoothnessConstants(c, c, c, c)

    def test_constants_take_no_bounds_and_carry_no_exactness_flag(self):
        # the quadratic's constants hold everywhere, and only its constants are exact
        assert list(inspect.signature(QuadraticLoss().constants).parameters) == []
        assert [f.name for f in fields(SmoothnessConstants)] == ["l_tt", "l_tz", "l_zt", "l_zz"]

    def test_gradients_match_central_differences(self, rng):
        model = QuadraticLoss(1.7)
        values, grads = partial(quadratic_values, model), partial(quadratic_grads_theta, model)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            theta, z = rng.standard_normal((2, d))
            fd_t = central_difference(lambda t: row(values, t, z), theta)
            fd_z = central_difference(lambda w: row(values, theta, w), z)
            np.testing.assert_allclose(row(grads, theta, z), fd_t, rtol=1e-5, atol=1e-7)
            grads_z = partial(quadratic_grads_z, curvature=model.curvature)
            np.testing.assert_allclose(row(grads_z, theta, z), fd_z, rtol=1e-5, atol=1e-7)

    def test_smoothness_inequalities_are_tight(self, rng):
        c = 2.3
        grads = partial(quadratic_grads_theta, QuadraticLoss(c))
        for _ in range(50):
            d = int(rng.integers(1, 7))
            t1, t2, z1, z2 = rng.standard_normal((4, d))
            lhs = np.linalg.norm(row(grads, t1, z1) - row(grads, t2, z1))
            assert lhs == pytest.approx(c * np.linalg.norm(t1 - t2), rel=1e-12)
            lhs = np.linalg.norm(row(grads, t1, z1) - row(grads, t1, z2))
            assert lhs == pytest.approx(c * np.linalg.norm(z1 - z2), rel=1e-12)

    @pytest.mark.parametrize("curvature", [
        0.0,
        -1.0,
        float("inf"),
        float("nan"),
        True,  # ran with curvature 1.0
        "1",   # a numpy TypeError
        None,  # a numpy TypeError
    ])
    def test_invalid_curvature(self, curvature):
        with pytest.raises(ConfigError, match=re.escape(
                f"curvature must be finite and positive, got {curvature!r}")):
            QuadraticLoss(curvature)


def test_sigmoid_stable_branches():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([800.0]))[0] == pytest.approx(1.0)
    assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)
    t = np.linspace(-30, 30, 101)
    np.testing.assert_allclose(sigmoid(t) + sigmoid(-t), 1.0, atol=1e-15)


def two_branch_sigmoid(t):
    """Reference: the masked two-branch form, exp(-t) on t >= 0 and exp(t) below."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_is_bit_equal_to_the_two_branch_form(rng):
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745.2, -745.2, 1e308, -1e308,
                        tiny, -tiny, 1e3 * tiny, -1e3 * tiny])
    scales = 10.0 ** rng.uniform(-3, 3, size=100_000)
    t = np.concatenate([special, scales * rng.standard_normal(100_000)])
    got, expected = sigmoid(t), two_branch_sigmoid(t)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()
    # into a buffer, or over t itself, with the same bits
    buffer = np.empty_like(t)
    assert sigmoid(t, out=buffer) is buffer
    np.testing.assert_array_equal(buffer.view(np.int64), expected.view(np.int64))
    assert sigmoid(t, out=t) is t
    np.testing.assert_array_equal(t.view(np.int64), expected.view(np.int64))
    assert sigmoid(0.0) == 0.5 and sigmoid(np.float64(-800.0)) == pytest.approx(0.0, abs=1e-300)


def test_smoothness_constants_validation():
    with pytest.raises(ValueError):
        SmoothnessConstants(-1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SmoothnessConstants(np.inf, 0.0, 0.0, 0.0)
