import numpy as np
import pytest

from robustgd.errors import ConfigError
from robustgd.losses import LogisticLoss
from robustgd.shift import (
    ShiftSpec,
    misclassification_rate,
    perturb_test_set,
    project_l1,
    project_l2,
    sweep_budgets,
)


class TestProjections:
    def test_l2_projection_radial(self, rng):
        V = rng.standard_normal((40, 6)) * 3.0
        P = project_l2(V, 1.0)
        norms = np.linalg.norm(P, axis=1)
        assert (norms <= 1.0 + 1e-12).all()
        inside = np.linalg.norm(V, axis=1) <= 1.0
        np.testing.assert_array_equal(P[inside], V[inside])
        # directions preserved
        outs = ~inside
        cos = np.einsum("ij,ij->i", P[outs], V[outs])
        assert (cos > 0).all()

    def test_l1_projection_against_brute_force(self, rng):
        # oracle: projection minimizes distance among dense candidates
        for _ in range(30):
            v = rng.standard_normal(4) * 2.0
            p = project_l1(v.reshape(1, -1), 1.0)[0]
            assert np.abs(p).sum() <= 1.0 + 1e-9
            base = np.linalg.norm(v - p)
            for _ in range(200):
                w = rng.standard_normal(4)
                w = w / np.abs(w).sum() * rng.uniform(0, 1.0)
                assert base <= np.linalg.norm(v - w) + 1e-9

    def test_l1_projection_keeps_interior_points(self):
        v = np.array([[0.1, -0.2, 0.05]])
        np.testing.assert_array_equal(project_l1(v, 1.0), v)

    def test_l1_projection_of_single_coordinate_clips(self):
        v = np.array([[0.75, 0.0]])
        np.testing.assert_allclose(project_l1(v, 0.3), [[0.3, 0.0]], atol=1e-15)


class TestPerturbation:
    def test_zero_budget_is_identity(self, rng):
        X = rng.standard_normal((10, 4))
        Y = rng.integers(0, 2, 10).astype(float)
        Z = perturb_test_set(rng.standard_normal(4), X, Y, ShiftSpec(norm="l2", budget=0.0))
        np.testing.assert_array_equal(Z, X)

    def test_single_l2_step_lands_on_the_sphere_along_the_gradient(self):
        theta = np.array([1.0, 2.0])
        x = np.array([0.3, -0.7])
        y = 0.0
        q = 0.25
        spec = ShiftSpec(norm="l2", budget=q, ascent_steps=1)
        Z = perturb_test_set(theta, x.reshape(1, -1), np.array([y]), spec)
        # steepest ascent for a linear logit: x + q * (a - y) theta / ||(a - y) theta||
        model = LogisticLoss()
        g = model.grads_z(theta, x.reshape(1, -1), np.array([y]))[0]
        expected = x + q * g / np.linalg.norm(g)
        np.testing.assert_allclose(Z[0], expected, rtol=1e-12)
        assert np.linalg.norm(Z[0] - x) == pytest.approx(q, rel=1e-12)

    def test_single_l1_step_concentrates_on_the_top_coordinate(self):
        # gradient proportional to (3, -1) for y=0: all budget goes to coordinate 0
        theta = np.array([3.0, -1.0])
        x = np.zeros(2)
        spec = ShiftSpec(norm="l1", budget=0.3, ascent_steps=1)
        Z = perturb_test_set(theta, x.reshape(1, -1), np.zeros(1), spec)
        np.testing.assert_allclose(Z[0] - x, [0.3, 0.0], atol=1e-15)
        # oracle: the best vertex of the L1 ball maximizes the logit increase
        vertices = [np.array(v) for v in
                    ([0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3])]
        best = max(vertices, key=lambda v: theta @ (x + v))
        np.testing.assert_allclose(Z[0] - x, best, atol=1e-15)

    @pytest.mark.parametrize("norm,measure", [
        ("l2", lambda D: np.linalg.norm(D, axis=1)),
        ("l1", lambda D: np.abs(D).sum(axis=1)),
    ])
    def test_feasibility(self, rng, norm, measure):
        theta = rng.standard_normal(6)
        X = rng.standard_normal((50, 6))
        Y = rng.integers(0, 2, 50).astype(float)
        Z = perturb_test_set(theta, X, Y, ShiftSpec(norm=norm, budget=0.4, ascent_steps=15))
        assert (measure(Z - X) <= 0.4 + 1e-9).all()

    def test_loss_never_decreases_per_sample(self, rng):
        model = LogisticLoss()
        theta = rng.standard_normal(5)
        X = rng.standard_normal((60, 5))
        Y = rng.integers(0, 2, 60).astype(float)
        before = model.values(theta, X, Y)
        Z = perturb_test_set(theta, X, Y, ShiftSpec(norm="l2", budget=0.3))
        after = model.values(theta, Z, Y)
        assert (after >= before - 1e-15).all()

    def test_budget_monotonicity_with_warm_starts(self, rng):
        theta = rng.standard_normal(4)
        X = rng.standard_normal((80, 4))
        Y = rng.integers(0, 2, 80).astype(float)
        for norm in ("l1", "l2"):
            rates = [r for _, r in sweep_budgets(theta, X, Y, norm, [0.0, 0.1, 0.2, 0.4])]
            assert all(b >= a - 1e-15 for a, b in zip(rates, rates[1:]))

    def test_sweep_returns_requested_order(self, rng):
        theta = rng.standard_normal(3)
        X = rng.standard_normal((20, 3))
        Y = rng.integers(0, 2, 20).astype(float)
        out = sweep_budgets(theta, X, Y, "l2", [0.3, 0.0, 0.1])
        assert [q for q, _ in out] == [0.3, 0.0, 0.1]

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ShiftSpec(norm="linf")
        with pytest.raises(ConfigError):
            ShiftSpec(budget=-0.1)
        with pytest.raises(ConfigError):
            ShiftSpec(ascent_steps=0)


class TestMisclassification:
    def test_zero_model_predicts_all_positive(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        Y = np.array([1, 0, 0, 1])
        assert misclassification_rate(np.zeros(1), X, Y) == pytest.approx(0.5)

    def test_separating_model_is_perfect(self):
        X = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        Y = np.array([1, 1, 0, 0])
        assert misclassification_rate(np.array([1.0]), X, Y) == 0.0

    def test_boundary_counts_as_positive_prediction(self):
        X = np.zeros((2, 2))  # logit exactly zero
        assert misclassification_rate(np.array([1.0, 1.0]), X, np.array([1, 1])) == 0.0
        assert misclassification_rate(np.array([1.0, 1.0]), X, np.array([0, 0])) == 1.0
