import numpy as np
import pytest

from robustgd.aggregation import (
    GradientSet,
    ScreenConfig,
    check_screening_bound,
    norm_screen,
    screening_coefficient,
    screening_deviation_bound,
)
from robustgd import verify
from robustgd.errors import ConfigError, RegimeError, ShapeError


def scalars(*values):
    return GradientSet([np.array([float(v)]) for v in values])


class TestNormScreen:
    def test_identical_inputs_returns_the_common_vector(self):
        v = np.array([1.5, -2.0, 0.25])
        out = norm_screen(GradientSet([v] * 10), ScreenConfig(3))
        np.testing.assert_allclose(out, v, rtol=1e-15)

    def test_byzantine_dominated_instance(self):
        # 4 forgeries tying an honest norm all survive screening:
        # kept = {-2, -2, -2, -2, 2, 1}, mean = -5/6 (hand enumeration)
        grads = scalars(-2, -2, -2, -2, 6, 5, 4, 3, 2, 1)
        out = norm_screen(grads, ScreenConfig(4))
        assert out[0] == pytest.approx(-5.0 / 6.0, abs=1e-15)

    def test_three_input_toy_screens_the_largest(self):
        out = norm_screen(scalars(4, 6, -5.9), ScreenConfig(1))
        assert out[0] == pytest.approx(-0.95, abs=1e-12)

    def test_zero_screening_equals_arithmetic_mean(self, rng):
        vectors = rng.standard_normal((17, 9))
        out = norm_screen(GradientSet(vectors), ScreenConfig(0))
        np.testing.assert_allclose(out, vectors.mean(axis=0), atol=1e-12)

    def test_permutation_invariance_on_tie_free_inputs(self, rng):
        vectors = rng.standard_normal((12, 5)) * np.arange(1, 13)[:, None]
        cfg = ScreenConfig(4)
        base = norm_screen(GradientSet(vectors), cfg)
        for _ in range(20):
            perm = rng.permutation(12)
            out = norm_screen(GradientSet(vectors[perm]), cfg)
            np.testing.assert_allclose(out, base, rtol=1e-12)

    @pytest.mark.parametrize("c", [2.5, -1.25, 1e-3])
    def test_scaling_equivariance(self, rng, c):
        vectors = rng.standard_normal((9, 4))
        cfg = ScreenConfig(3)
        base = norm_screen(GradientSet(vectors), cfg)
        out = norm_screen(GradientSet(c * vectors), cfg)
        np.testing.assert_allclose(out, c * base, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_within_the_count_are_dropped(self, rng, bad):
        finite = rng.standard_normal((5, 3))
        bad_rows = [[bad, 0.0, 1.0], [1.0, bad, bad], [bad] * 3]
        vectors = np.insert(finite, [0, 2, 5], bad_rows, axis=0)
        out = norm_screen(GradientSet(vectors), ScreenConfig(3))
        expected = np.zeros(3)
        for row in finite:  # left to right, as the screen sums
            expected += row
        np.testing.assert_array_equal(out, expected / 5)

    def test_more_non_finite_rows_than_the_count_leak_into_the_mean(self, rng):
        # the screen does not judge finiteness; the round loop refuses the result
        vectors = np.vstack([rng.standard_normal((4, 2)), [[np.inf, 0.0], [np.nan, 1.0]]])
        out = norm_screen(GradientSet(vectors), ScreenConfig(1))
        assert not np.isfinite(out).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_row_past_the_float_range_ranks_as_inf_and_is_screened(self, rng):
        finite = rng.standard_normal((4, 3))
        vectors = np.insert(finite, 2, [1e308, -1e308, 1e308], axis=0)
        grads = GradientSet(vectors)
        assert grads.norms()[2] == np.inf
        np.testing.assert_array_equal(grads.norms()[[0, 1, 3, 4]],
                                      np.linalg.norm(finite, axis=1))
        expected = np.zeros(3)
        for row in finite:  # left to right, as the screen sums
            expected += row
        np.testing.assert_array_equal(norm_screen(grads, ScreenConfig(1)), expected / 4)

    def test_ties_keep_lower_original_index(self):
        # two vectors of equal norm straddling the cut: lower index survives
        grads = scalars(3, -3, 1, 5)
        out = norm_screen(grads, ScreenConfig(2))  # keep two smallest: 1 and the first "3"
        assert out[0] == pytest.approx((3 + 1) / 2)

    def test_dimension_mismatch_is_structural_error(self):
        with pytest.raises(ShapeError):
            GradientSet([np.array([1.0, 2.0]), np.array([1.0])])

    def test_screening_everything_is_config_error(self):
        with pytest.raises(ConfigError):
            norm_screen(scalars(1, 2, 3), ScreenConfig(3))

    def test_negative_screen_count_rejected(self):
        with pytest.raises(ConfigError):
            ScreenConfig(-1)


def loop_screen(grads, cfg):
    """The screened mean as a left-to-right loop over the kept rows, the reference for the reduction."""
    keep = grads.m - cfg.screen_count
    kept = np.sort(np.argsort(np.linalg.norm(grads.matrix, axis=1), kind="stable")[:keep])
    acc = np.zeros(grads.dim)
    for i in kept:
        acc += grads.matrix[i]
    return acc / kept.size


def assert_same_bits(out, expected):
    assert out.shape == expected.shape
    np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))


class TestNormScreenMatchesTheLoop:
    """The one-pass screened mean gives the left-to-right loop's bits."""

    def test_random_screening_instances(self):
        dims = set()
        for block, _ in verify._screening_fuzz_blocks(2000, seed=0):
            for i in range(block.size):
                grads, _, cfg, _ = block.instance(i)
                assert_same_bits(norm_screen(grads, cfg), loop_screen(grads, cfg))
                dims.add(grads.dim)
        assert 1 in dims  # a single column, which a plain sum would add pairwise

    @pytest.mark.parametrize("m", [1, 3, 20])
    def test_rows_of_signed_zeros(self, rng, m):
        signs = rng.choice([-0.0, 0.0], size=(m, 4))
        signs[:, 0] = -0.0  # a column of negative zeros only
        for vectors in (signs, np.full((m, 4), -0.0)):
            grads = GradientSet(vectors)
            out = norm_screen(grads, ScreenConfig(m // 3))
            assert_same_bits(out, loop_screen(grads, ScreenConfig(m // 3)))
            assert not np.signbit(out).any()

    def test_ties_in_norm(self, rng):
        base = rng.standard_normal(5)
        # sign flips and permutations keep the norm: every row ties with every other
        vectors = np.array([rng.permutation(base) * rng.choice([-1.0, 1.0], 5)
                            for _ in range(12)])
        for b in range(12):
            grads = GradientSet(vectors)
            assert_same_bits(norm_screen(grads, ScreenConfig(b)), loop_screen(grads, ScreenConfig(b)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_byzantine_rows_are_screened(self, rng, bad):
        for dim in (1, 7):
            vectors = rng.standard_normal((19, dim))
            vectors[[0, 5, 11, 18]] = bad
            vectors[11, 0] = 1.0  # partly finite where dim > 1
            grads = GradientSet(vectors)
            out = norm_screen(grads, ScreenConfig(4))
            assert np.isfinite(out).all()
            assert_same_bits(out, loop_screen(grads, ScreenConfig(4)))


class TestDeviationBound:
    def test_toy_instance_values(self):
        grads = scalars(4, 6, -5.9)
        bound = screening_deviation_bound(grads, [0, 1], ScreenConfig(1), np.array([5.0]))
        assert bound.c_alpha == pytest.approx(1.0)
        assert bound.delta == pytest.approx(1.0)
        assert bound.rhs == pytest.approx(6.0)

    def test_toy_instance_check_slack(self):
        grads = scalars(4, 6, -5.9)
        result = check_screening_bound(grads, [0, 1], ScreenConfig(1), np.array([5.0]))
        assert result.holds
        assert result.slack == pytest.approx(0.05, abs=1e-12)  # 6 - 5.95

    def test_all_honest_rhs_is_delta(self, rng):
        vectors = rng.standard_normal((8, 3))
        S = rng.standard_normal(3)
        bound = screening_deviation_bound(
            GradientSet(vectors), range(8), ScreenConfig(2), S
        )
        assert bound.c_alpha == 0.0
        expected = np.linalg.norm(vectors - S, axis=1).max()
        assert bound.rhs == pytest.approx(expected, rel=1e-15)

    def test_identical_inputs_slack_is_calpha_norm_s(self, rng):
        v = rng.standard_normal(6)
        S = rng.standard_normal(6)
        grads = GradientSet([v] * 10)
        result = check_screening_bound(grads, range(7), ScreenConfig(3), S)
        assert result.holds
        expected = result.bound.c_alpha * np.linalg.norm(S)
        assert result.slack == pytest.approx(expected, rel=1e-12)

    def test_alpha_above_beta_is_inapplicable(self):
        grads = scalars(1, 2, 3, 4, 5, 6)
        with pytest.raises(RegimeError):
            screening_deviation_bound(grads, [0, 1, 2, 3], ScreenConfig(1), np.array([0.0]))

    def test_alpha_above_half_is_inapplicable(self):
        grads = scalars(1, 2, 3, 4, 5, 6)
        with pytest.raises(RegimeError):
            screening_deviation_bound(grads, [0, 1], ScreenConfig(5), np.array([0.0]))

    def test_empty_or_duplicate_honest_indices_rejected(self):
        grads = scalars(1, 2, 3)
        with pytest.raises(ConfigError):
            screening_deviation_bound(grads, [], ScreenConfig(1), np.array([0.0]))
        with pytest.raises(ConfigError):
            screening_deviation_bound(grads, [0, 0, 1], ScreenConfig(1), np.array([0.0]))

    @pytest.mark.parametrize("honest, message", [
        ([0, 0, 1], "honest indices must be unique"),
        ([2, 1, 2], "honest indices must be unique"),
        ([0, 3], r"honest indices out of range \[0, 3\)"),
        ([-1, 1], r"honest indices out of range \[0, 3\)"),
        ([0, 0, 3], r"honest indices out of range \[0, 3\)"),  # the range is checked first
    ])
    def test_bad_honest_indices_are_named(self, honest, message):
        with pytest.raises(ConfigError, match=message):
            screening_deviation_bound(scalars(1, 2, 3), honest, ScreenConfig(1), np.array([0.0]))

    @pytest.mark.parametrize("honest", [[0, 1, 2, 3], [0, 1, 2]], ids=["all-honest", "one-byz"])
    @pytest.mark.parametrize("check", [screening_deviation_bound, check_screening_bound])
    def test_screening_every_input_is_a_config_error_without_a_warning(self, check, honest):
        # tier-1 turns a RuntimeWarning into an error, so a 0/0 or x/0 on the way
        # would replace the named refusal
        with pytest.raises(ConfigError, match=r"^screen_count=4 must be < m=4 \(keep at least one\)$"):
            check(scalars(1, 2, 3, 4), honest, ScreenConfig(4), np.array([0.0]))

    def test_honest_order_does_not_matter(self):
        grads = GradientSet(np.arange(12.0).reshape(6, 2) ** 1.5)
        S = np.array([0.5, -1.0])
        a = screening_deviation_bound(grads, [4, 0, 2, 5], ScreenConfig(2), S)
        b = screening_deviation_bound(grads, [0, 2, 4, 5], ScreenConfig(2), S)
        assert a == b
        assert a.delta == np.linalg.norm(grads.matrix[[0, 2, 4, 5]] - S, axis=1).max()

    def test_quick_fuzz(self, rng):
        from robustgd.verify import fuzz_screening_bound

        result = fuzz_screening_bound(n_instances=1500, seed=7)
        assert result.passed, result.detail


class TestScreeningCoefficient:
    def test_value_is_twice_the_byzantine_count_over_the_kept_count(self):
        assert screening_coefficient(0, 0, 1) == 0.0
        assert screening_coefficient(3, 3, 20) == 6 / 17  # 2*0.15/0.85
        assert screening_coefficient(1, 2, 10) == 0.25
        assert screening_coefficient(10, 10, 30) == 1.0  # alpha = beta = 1/3, exactly

    @pytest.mark.parametrize("byzantine, screened, m, error, message", [
        (0, 4, 4, ConfigError, r"screen_count=4 must be < m=4 \(keep at least one\)"),
        (5, 5, 4, ConfigError, r"screen_count=5 must be < m=4"),      # checked first
        (3, 2, 10, RegimeError, r"corrupted fraction 3/10 exceeds screened fraction 2/10"),
        (6, 8, 10, RegimeError, r"corrupted fraction 6/10 exceeds 1/2"),
    ])
    def test_refusals_come_in_order(self, byzantine, screened, m, error, message):
        with pytest.raises(error, match=f"^{message}"):
            screening_coefficient(byzantine, screened, m)
