import re
import warnings

import numpy as np
import pytest

from conftest import logistic_grads_z, loss_values
from robustgd.errors import ConfigError, NumericError, ShapeError
from robustgd.losses import LogisticLoss
from robustgd.experiments import ExperimentConfig, prepare_data, sweep, train
from robustgd.shift import ShiftBuffer, ShiftScorer, ShiftSpec, misclassification_rate


# -- oracle: projected gradient ascent with a best-so-far iterate ------------


def project_l2(V, radius):
    """Radially project rows of V onto the L2 ball of the given radius."""
    norms = np.linalg.norm(V, axis=1)
    factor = np.ones_like(norms)
    over = norms > radius
    factor[over] = radius / norms[over]
    return V * factor[:, None]


def project_l1(V, radius):
    """Project rows of V onto the L1 ball via the sorted-threshold method."""
    A = np.abs(V)
    inside = A.sum(axis=1) <= radius
    if inside.all():
        return V.copy()
    U = np.sort(A, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1)
    j = np.arange(1, V.shape[1] + 1)
    rho = (U - (css - radius) / j > 0).sum(axis=1)
    tau = (css[np.arange(V.shape[0]), rho - 1] - radius) / rho
    tau = np.where(inside, 0.0, np.maximum(tau, 0.0))
    return np.sign(V) * np.maximum(A - tau[:, None], 0.0)


def ascent_direction(norm, grads):
    if norm == "l2":
        norms = np.linalg.norm(grads, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        return grads / safe[:, None]
    # L1 steepest ascent: move only the largest-magnitude coordinate
    idx = np.argmax(np.abs(grads), axis=1)
    rows = np.arange(grads.shape[0])
    direction = np.zeros_like(grads)
    direction[rows, idx] = np.sign(grads[rows, idx])
    return direction


def projected_ascent(theta, X, Y, norm, budget, steps=20):
    """The best (highest-loss) iterate of a projected ascent, and its per-row loss."""
    model = LogisticLoss()
    project = project_l2 if norm == "l2" else project_l1
    step = 2.5 * budget / steps
    Z = X.copy()
    best, best_loss = Z.copy(), loss_values(model, theta, Z, Y)
    for _ in range(steps):
        Z = Z + step * ascent_direction(norm, logistic_grads_z(theta, Z, Y))
        Z = X + project(Z - X, budget)
        loss = loss_values(model, theta, Z, Y)
        gain = loss > best_loss
        best[gain] = Z[gain]
        best_loss = np.maximum(best_loss, loss)
    return best, best_loss


NORMS = {
    "l1": (lambda D: np.abs(D).sum(axis=1), lambda t: np.abs(t).max()),
    "l2": (lambda D: np.linalg.norm(D, axis=1), lambda t: np.linalg.norm(t)),
}


def perturb(theta, X, Y, spec):
    """The shifted rows of one budget, from a scorer over a buffer of its own."""
    return ShiftScorer(theta, ShiftBuffer(X), Y).shifted(spec)


def shifted_rate(theta, X, Y, norm, budget):
    Z = perturb(theta, X, Y, ShiftSpec(norm=norm, budget=budget))
    return misclassification_rate(theta, Z, Y)


def instance(rng, n=50, d=6, theta_scale=1.0):
    theta = rng.standard_normal(d) * theta_scale
    X = rng.standard_normal((n, d))
    Y = rng.integers(0, 2, n).astype(float)
    return theta, X, Y


class TestOracleProjections:
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
        theta, X, Y = instance(rng, n=10, d=4)
        Z = perturb(theta, X, Y, ShiftSpec(norm="l2", budget=0.0))
        np.testing.assert_array_equal(Z, X)
        assert Z is X  # no row moves, so the buffer is not written

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_zero_model_returns_x_bitwise_without_warnings(self, rng, norm):
        _, X, Y = instance(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = perturb(np.zeros(6), X, Y, ShiftSpec(norm=norm, budget=0.3))
        np.testing.assert_array_equal(Z, X)

    def test_l2_shift_is_the_normalized_gradient_step(self):
        theta = np.array([1.0, 2.0])
        x = np.array([0.3, -0.7])
        y = 0.0
        q = 0.25
        Z = perturb(theta, x.reshape(1, -1), np.array([y]), ShiftSpec(norm="l2", budget=q))
        # steepest ascent for a linear logit: x + q * (a - y) theta / ||(a - y) theta||
        g = logistic_grads_z(theta, x.reshape(1, -1), np.array([y]))[0]
        expected = x + q * g / np.linalg.norm(g)
        np.testing.assert_allclose(Z[0], expected, rtol=1e-12)
        assert np.linalg.norm(Z[0] - x) == pytest.approx(q, rel=1e-12)

    def test_l1_shift_concentrates_on_the_top_coordinate(self):
        # gradient proportional to (3, -1) for y=0: all budget goes to coordinate 0
        theta = np.array([3.0, -1.0])
        x = np.zeros(2)
        Z = perturb(theta, x.reshape(1, -1), np.zeros(1), ShiftSpec(norm="l1", budget=0.3))
        np.testing.assert_allclose(Z[0] - x, [0.3, 0.0], atol=1e-15)
        # oracle: the best vertex of the L1 ball maximizes the logit increase
        vertices = [np.array(v) for v in
                    ([0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3])]
        best = max(vertices, key=lambda v: theta @ (x + v))
        np.testing.assert_allclose(Z[0] - x, best, atol=1e-15)

    def test_l1_tie_moves_the_lowest_index(self):
        theta = np.array([0.5, -2.0, 2.0, -2.0])
        X = np.zeros((2, 4))
        Z = perturb(theta, X, np.array([1.0, 0.0]), ShiftSpec(norm="l1", budget=0.3))
        # |theta_1| = |theta_2| = |theta_3|: coordinate 1 moves, against the label
        np.testing.assert_array_equal(Z, [[0.0, 0.3, 0.0, 0.0], [0.0, -0.3, 0.0, 0.0]])

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_shift_lands_on_the_sphere(self, rng, norm):
        measure, _ = NORMS[norm]
        for _ in range(20):
            theta, X, Y = instance(rng)
            q = float(rng.uniform(0.01, 2.0))
            Z = perturb(theta, X, Y, ShiftSpec(norm=norm, budget=q))
            np.testing.assert_allclose(measure(Z - X), q, rtol=1e-12)

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_margins_drop_by_the_dual_norm(self, rng, norm):
        _, dual = NORMS[norm]
        for _ in range(20):
            theta, X, Y = instance(rng)
            q = float(rng.uniform(0.01, 2.0))
            s = 2.0 * Y - 1.0
            Z = perturb(theta, X, Y, ShiftSpec(norm=norm, budget=q))
            np.testing.assert_allclose(s * (Z @ theta), s * (X @ theta) - q * dual(theta),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_beats_the_projected_ascent_per_row(self, rng, norm):
        model = LogisticLoss()
        for _ in range(10):
            theta, X, Y = instance(rng, theta_scale=float(rng.uniform(0.1, 3.0)))
            q = float(rng.uniform(0.05, 1.0))
            _, oracle_loss = projected_ascent(theta, X, Y, norm, q)
            Z = perturb(theta, X, Y, ShiftSpec(norm=norm, budget=q))
            assert (loss_values(model, theta, Z, Y) >= oracle_loss - 1e-12).all()

    def test_loss_never_decreases_per_sample(self, rng):
        model = LogisticLoss()
        theta, X, Y = instance(rng, n=60, d=5)
        before = loss_values(model, theta, X, Y)
        Z = perturb(theta, X, Y, ShiftSpec(norm="l2", budget=0.3))
        after = loss_values(model, theta, Z, Y)
        assert (after >= before - 1e-15).all()

    def test_huge_model_does_not_overflow_the_norm(self):
        theta = np.array([3e200, 4e200])
        Z = perturb(theta, np.zeros((1, 2)), np.zeros(1), ShiftSpec(norm="l2", budget=1.0))
        np.testing.assert_allclose(Z, [[0.6, 0.8]], rtol=1e-15)

    def test_non_finite_theta_raises(self, rng):
        _, X, Y = instance(rng, d=2)
        with pytest.raises(NumericError, match="theta"):
            perturb(np.array([np.nan, 1.0]), X, Y, ShiftSpec(norm="l1", budget=0.1))

    def test_non_finite_output_row_raises(self):
        X = np.array([[0.0, 0.0], [1.7e308, 0.0]])
        with pytest.raises(NumericError, match="non-finite"):
            perturb(np.array([1.0, 0.0]), X, np.zeros(2),
                             ShiftSpec(norm="l1", budget=1e308))

    @pytest.mark.parametrize("theta_scale", [1.0, 1e20])
    def test_rates_are_non_decreasing_in_the_budget(self, rng, theta_scale):
        # 1e20 is a diverged model: its sigmoid saturates, the margins still move
        theta, X, Y = instance(rng, n=80, d=4, theta_scale=theta_scale)
        budgets = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8]
        for norm in ("l1", "l2"):
            rates = [shifted_rate(theta, X, Y, norm, q) for q in budgets]
            assert all(b >= a for a, b in zip(rates, rates[1:])), (norm, rates)
            assert rates[-1] > rates[0]

    def test_sweep_returns_requested_order(self):
        cfg = ExperimentConfig(m=4, iterations=3, t_z=2, screen_count=1, shift_norm="l2")
        records = sweep(cfg, "shift_q", [0.3, 0.0, 0.1])
        assert [r["sweep"]["value"] for r in records] == [0.3, 0.0, 0.1]
        sharded = prepare_data(cfg)
        theta = train(cfg, sharded)[0].theta_final
        X, Y = sharded.test_features, sharded.test_labels
        for record in records:
            rate = shifted_rate(theta, X, Y, "l2", record["config"]["shift_q"])
            assert record["results"]["shift_misclassification"] == rate

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ShiftSpec(norm="linf")
        with pytest.raises(ConfigError):
            ShiftSpec(budget=-0.1)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf"), -0.1, "0.3",
                                        True, None])
    def test_a_budget_that_is_not_a_finite_real_at_least_0_is_refused_by_name(self, budget):
        # NaN passed the old check and failed only in the evaluation after training
        with pytest.raises(ConfigError, match=rf"^budget must be finite and >= 0, got "
                                              rf"{re.escape(repr(budget))}$"):
            ShiftSpec(norm="l1", budget=budget)


def copy_then_update(theta, X, Y, norm, budget):
    """The shift as a copy of X updated in place: the reference for the buffer's bits."""
    Z = X.copy()
    scale = np.abs(theta).max(initial=0.0)
    if budget == 0.0 or scale == 0.0:
        return Z
    s = 2.0 * Y - 1.0
    if norm == "l1":
        j = int(np.argmax(np.abs(theta)))
        Z[:, j] -= s * (budget * np.sign(theta[j]))
    else:
        unit = theta / scale
        Z -= np.outer(s, budget * (unit / np.linalg.norm(unit)))
    return Z


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestSharedBuffer:
    @staticmethod
    def models(rng, d):
        """Models that move different L1 columns, a zero one and one with tied |theta_j|."""
        theta = rng.standard_normal((3, d))
        tie = rng.standard_normal(d)
        j = int(np.argmax(np.abs(tie)))
        tie[(j + 2) % d] = -tie[j]
        return [*theta, np.zeros(d), tie]

    def test_scorers_sharing_one_buffer_give_the_copy_then_update_bits(self, rng):
        # each L1 budget rewrites one column from X, after restoring the one
        # another model or an L2 budget moved; every matrix has the reference's bits
        _, X, Y = instance(rng, n=40, d=5)
        X[3, 1] = -0.0
        buffer = ShiftBuffer(X)
        scorers = [ShiftScorer(theta, buffer, Y) for theta in self.models(rng, 5)]
        steps = [(norm, q) for q in (0.3, 0.0, 0.1) for norm in ("l1", "l2", "l1")]
        for step in range(len(steps) * len(scorers)):
            scorer = scorers[(3 * step) % len(scorers)]
            norm, q = steps[step % len(steps)]
            expected = copy_then_update(scorer.theta, X, Y, norm, q)
            Z = scorer.shifted(ShiftSpec(norm=norm, budget=q))
            np.testing.assert_array_equal(bits(Z), bits(expected), err_msg=f"{step}: {norm} {q}")
            assert scorer.rate(Z) == misclassification_rate(scorer.theta, expected, Y)
            assert scorer.clean_rate() == misclassification_rate(scorer.theta, X, Y)
        assert buffer.rows is not X

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_a_fresh_buffer_gives_the_copy_then_update_bits(self, rng, norm):
        _, X, Y = instance(rng, n=30, d=4)
        for theta in self.models(rng, 4):
            for q in (0.0, 0.2):
                Z = perturb(theta, X, Y, ShiftSpec(norm=norm, budget=q))
                expected = copy_then_update(theta, X, Y, norm, q)
                np.testing.assert_array_equal(bits(Z), bits(expected))
                assert (Z is X) == (q == 0.0 or not theta.any()) and Z.flags.c_contiguous

    def test_the_scorer_reads_x_from_its_buffer(self, rng):
        theta, X, Y = instance(rng, n=10, d=3)
        buffer = ShiftBuffer(X.tolist())
        scorer = ShiftScorer(theta, buffer, Y)
        assert scorer.X is buffer.X
        Z = scorer.shifted(ShiftSpec(norm="l1", budget=0.5))
        np.testing.assert_array_equal(Z, copy_then_update(theta, X, Y, "l1", 0.5))
        assert Z is buffer.rows

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_row_is_refused_only_where_a_budget_moves_it(self, rng, norm, bad):
        # the moved column is finite: the L1 check still sees the row's other column
        theta, X, Y = instance(rng, n=10, d=3)
        theta[:] = [2.0, 0.5, 0.25]
        X[4, 2] = bad
        scorer = ShiftScorer(theta, ShiftBuffer(X), Y)
        assert scorer.shifted(ShiftSpec(norm=norm, budget=0.0)) is X
        with pytest.raises(NumericError, match="^shifted features are non-finite$"):
            scorer.shifted(ShiftSpec(norm=norm, budget=0.1))


ENTRY_POINTS = {
    "perturb": lambda theta, X, Y: perturb(theta, X, Y, ShiftSpec(norm="l1", budget=0.1)),
    "miscls": misclassification_rate,
}


class TestInputChecks:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_one_label_for_many_rows_is_refused(self, rng, entry):
        theta, X, _ = instance(rng, n=5, d=3)
        with pytest.raises(ShapeError, match="label"):
            ENTRY_POINTS[entry](theta, X, np.array([1.0]))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_features_must_be_rows_of_the_model_width(self, rng, entry):
        theta, X, Y = instance(rng, n=5, d=3)
        with pytest.raises(ShapeError):
            ENTRY_POINTS[entry](theta, X[:, :2], Y)
        with pytest.raises(ShapeError):
            ENTRY_POINTS[entry](theta, X[0], Y[:1])
        with pytest.raises(ShapeError):
            ENTRY_POINTS[entry](theta, X, Y[:, None])

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_labels_outside_zero_one_are_refused(self, rng, entry, bad):
        theta, X, Y = instance(rng, n=5, d=3)
        Y[2] = bad
        with pytest.raises(ConfigError, match="labels"):
            ENTRY_POINTS[entry](theta, X, Y)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_logit_keeps_its_sign(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]])
        theta = np.array([1e308, 1e308])  # logits +inf, -inf and 1e308
        assert misclassification_rate(theta, X, np.array([1, 0, 1])) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_nan_logit_is_refused_with_its_rows(self):
        X = np.array([[np.nan, 1.0], [1.0, 1.0], [np.nan, -1.0]])
        theta = np.array([1.0, 1.0])
        with pytest.raises(NumericError, match="NaN in 2 rows") as exc:
            misclassification_rate(theta, X, np.array([1, 1, 0]))
        np.testing.assert_array_equal(exc.value.rows, [0, 2])
