import math

import numpy as np
import pytest

from robustgd.aggregation import (
    DeviationBound,
    ScreenConfig,
    norm_screen,
    row_norms,
    screening_coefficient,
    screening_deviation_bound,
)
from robustgd import verify
from robustgd.errors import ConfigError, NumericError, RegimeError, ShapeError


def scalars(*values):
    return np.array(values, dtype=float)[:, None]


def mask(m, honest):
    out = np.zeros(m, dtype=bool)
    out[list(honest)] = True
    return out


def screened_mean(reports, screen_count):
    return norm_screen(reports, screen_count)[0]


class TestNormScreen:
    def test_identical_inputs_returns_the_common_vector(self):
        v = np.array([1.5, -2.0, 0.25])
        out = screened_mean(np.tile(v, (10, 1)), 3)
        np.testing.assert_allclose(out, v, rtol=1e-15)

    def test_byzantine_dominated_instance(self):
        # 4 forgeries tying an honest norm all survive screening:
        # kept = {-2, -2, -2, -2, 2, 1}, mean = -5/6 (hand enumeration)
        out = screened_mean(scalars(-2, -2, -2, -2, 6, 5, 4, 3, 2, 1), 4)
        assert out[0] == pytest.approx(-5.0 / 6.0, abs=1e-15)

    def test_three_input_toy_screens_the_largest(self):
        out = screened_mean(scalars(4, 6, -5.9), 1)
        assert out[0] == pytest.approx(-0.95, abs=1e-12)

    def test_returns_every_row_norm(self, rng):
        vectors = rng.standard_normal((7, 4))
        _, norms = norm_screen(vectors, 2)
        np.testing.assert_array_equal(norms, np.linalg.norm(vectors, axis=1))

    def test_zero_screening_equals_arithmetic_mean(self, rng):
        vectors = rng.standard_normal((17, 9))
        out = screened_mean(vectors, 0)
        np.testing.assert_allclose(out, vectors.mean(axis=0), atol=1e-12)

    def test_permutation_invariance_on_tie_free_inputs(self, rng):
        vectors = rng.standard_normal((12, 5)) * np.arange(1, 13)[:, None]
        base = screened_mean(vectors, 4)
        for _ in range(20):
            perm = rng.permutation(12)
            out = screened_mean(vectors[perm], 4)
            np.testing.assert_allclose(out, base, rtol=1e-12)

    @pytest.mark.parametrize("c", [2.5, -1.25, 1e-3])
    def test_scaling_equivariance(self, rng, c):
        vectors = rng.standard_normal((9, 4))
        base = screened_mean(vectors, 3)
        out = screened_mean(c * vectors, 3)
        np.testing.assert_allclose(out, c * base, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_within_the_count_are_dropped(self, rng, bad):
        finite = rng.standard_normal((5, 3))
        bad_rows = [[bad, 0.0, 1.0], [1.0, bad, bad], [bad] * 3]
        vectors = np.insert(finite, [0, 2, 5], bad_rows, axis=0)
        out = screened_mean(vectors, 3)
        expected = np.zeros(3)
        for row in finite:  # left to right, as the screen sums
            expected += row
        np.testing.assert_array_equal(out, expected / 5)

    def test_more_non_finite_rows_than_the_count_leak_into_the_mean(self, rng):
        # the screen does not judge finiteness; the round loop refuses the result
        vectors = np.vstack([rng.standard_normal((4, 2)), [[np.inf, 0.0], [np.nan, 1.0]]])
        out = screened_mean(vectors, 1)
        assert not np.isfinite(out).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_row_past_the_float_range_ranks_as_inf_and_is_screened(self, rng):
        finite = rng.standard_normal((4, 3))
        vectors = np.insert(finite, 2, [1e308, -1e308, 1e308], axis=0)
        out, norms = norm_screen(vectors, 1)
        np.testing.assert_array_equal(norms, row_norms(vectors))
        assert norms[2] == np.inf
        np.testing.assert_array_equal(norms[[0, 1, 3, 4]], np.linalg.norm(finite, axis=1))
        expected = np.zeros(3)
        for row in finite:  # left to right, as the screen sums
            expected += row
        np.testing.assert_array_equal(out, expected / 4)

    def test_ties_keep_lower_original_index(self):
        # two vectors of equal norm straddling the cut: lower index survives
        out = screened_mean(scalars(3, -3, 1, 5), 2)  # keep two smallest: 1 and the first "3"
        assert out[0] == pytest.approx((3 + 1) / 2)

    @pytest.mark.parametrize("reports", [
        [np.array([1.0, 2.0]), np.array([1.0])],   # ragged
        np.ones(3),                                # one vector, not a matrix
        np.ones((0, 2)),                           # no report
        np.ones((3, 0)),                           # no coordinate
        np.ones((2, 0, 2)),                        # a stack of matrices without a report
        np.ones((0, 2, 2)),                        # an empty stack
    ])
    def test_reports_that_are_not_an_m_by_d_matrix_are_a_shape_error(self, reports):
        with pytest.raises(ShapeError):
            norm_screen(reports, 0)
        with pytest.raises(ShapeError):
            screening_deviation_bound(reports, np.ones(2, dtype=bool), 0, np.zeros(2))

    def test_only_the_screen_takes_a_stack_of_matrices(self):
        stack = np.ones((2, 2, 2))
        G, norms = norm_screen(stack, 1)
        assert G.shape == (2, 2) and norms.shape == (2, 2)
        with pytest.raises(ShapeError, match=r"2-d \(m, d\) matrix, got shape \(2, 2, 2\)"):
            screening_deviation_bound(stack, np.ones(2, dtype=bool), 0, np.zeros(2))

    def test_screening_everything_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^screen_count=3 must be < m=3 \(keep at least one\)$"):
            norm_screen(scalars(1, 2, 3), 3)

    @pytest.mark.parametrize("count, message", [
        (-1, "screen_count must be >= 0, got -1"),          # averaged every row
        (True, "screen_count must be an integer count, got True"),  # screened one row
        (1.5, "screen_count must be an integer count, got 1.5"),    # a bare slicing TypeError
    ])
    def test_bad_counts_are_refused_by_name(self, count, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            norm_screen(scalars(1, 2, 3), count)

    def test_an_integral_float_count_screens_as_its_int(self, rng):
        reports = rng.standard_normal((5, 3))
        assert_same_bits(screened_mean(reports, 2.0), screened_mean(reports, 2))


class TestScreenConfig:
    def test_integral_counts_are_stored_as_ints(self):
        for count in (0, 2, np.int64(2), 2.0):
            cfg = ScreenConfig(count)
            assert cfg.screen_count == count and type(cfg.screen_count) is int

    @pytest.mark.parametrize("count, message", [
        (-1, "screen_count must be >= 0, got -1"),
        (2.5, "screen_count must be an integer count, got 2.5"),
        (True, "screen_count must be an integer count, got True"),
        ("2", "screen_count must be an integer count, got '2'"),
        (np.nan, "screen_count must be an integer count, got nan"),
    ])
    def test_bad_counts_are_refused_by_name(self, count, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ScreenConfig(count)


def loop_screen(reports, screen_count):
    """The screened mean as a left-to-right loop over the kept rows, the reference for the reduction."""
    keep = reports.shape[0] - screen_count
    with np.errstate(over="ignore"):  # a row past the float range ranks as +inf
        norms = np.linalg.norm(reports, axis=1)
    kept = np.sort(np.argsort(norms, kind="stable")[:keep])
    acc = np.zeros(reports.shape[1])
    for i in kept:
        acc += reports[i]
    return acc / kept.size


def assert_same_bits(out, expected):
    assert out.shape == expected.shape
    np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))


class TestNormScreenMatchesTheLoop:
    """The one-pass screened mean gives the left-to-right loop's bits."""

    def test_a_stack_is_screened_slice_by_slice(self, rng):
        base = rng.standard_normal(4)
        stack = rng.standard_normal((6, 9, 4))
        # norm ties: sign flips and permutations of one row, straddling the cut
        stack[1] = [rng.permutation(base) * rng.choice([-1.0, 1.0], 4) for _ in range(9)]
        stack[2, [0, 4, 8]] = 1e308   # rows of norm inf, past the float range
        stack[3, [2, 5]] = np.inf
        stack[4] = -0.0               # a slice of negative zeros
        stack[5, :, :2] = stack[5, 0, :2]
        for b in range(9):
            with np.errstate(over="ignore", invalid="ignore"):  # kept rows of 1e308 or inf
                G, norms = norm_screen(stack, b)
                assert G.shape == (6, 4) and norms.shape == (6, 9)
                for i, reports in enumerate(stack):
                    alone_G, alone_norms = norm_screen(reports, b)
                    assert_same_bits(G[i], alone_G)
                    assert_same_bits(norms[i], alone_norms)
                    assert_same_bits(G[i], loop_screen(reports, b))
        assert (norms[2, [0, 4, 8]] == np.inf).all()
        G, _ = norm_screen(stack.reshape(2, 3, 9, 4), 3)  # any number of leading axes
        assert_same_bits(G.reshape(6, 4), norm_screen(stack, 3)[0])

    def test_screening_none_gives_the_ranked_paths_bits(self, rng):
        # the oracle is the general path at screen_count 0: rank, sort the
        # kept indices, gather them and accumulate in index order
        def ranked(reports):
            m, d = reports.shape[-2:]
            norms = row_norms(reports)
            kept = np.sort(np.argsort(norms, axis=-1, kind="stable"), axis=-1)
            kept += np.arange(0, norms.size, m).reshape(*norms.shape[:-1], 1)
            kept_sum = np.add.accumulate(reports.reshape(-1, d)[kept], axis=-2)[..., -1, :]
            return (kept_sum + 0.0) / m, norms

        stack = rng.standard_normal((5, 7, 4))
        stack[1, 3] = 1e200  # norm inf
        stack[2] = -0.0      # a slice of negative zeros
        stack[3, :, 0] = -0.0
        column = rng.standard_normal((3, 40, 1))  # d = 1, which a plain sum adds pairwise
        column[0, 9] = -1e200
        for reports in (stack, stack[1], stack[2], column, column[0], np.full((1, 3), -0.0)):
            with np.errstate(over="ignore"):  # 1e200 squared
                G, norms = norm_screen(reports, 0)
                expected_G, expected_norms = ranked(reports)
            assert_same_bits(G, expected_G)
            assert_same_bits(norms, expected_norms)
        assert np.isinf(norm_screen(stack[1], 0)[1][3])
        assert not np.signbit(norm_screen(stack[2], 0)[0]).any()

    def test_random_screening_instances(self):
        dims = set()
        for rows, _, b, _ in verify._screening_instances(2000, seed=0):
            assert_same_bits(screened_mean(rows, b), loop_screen(rows, b))
            dims.add(rows.shape[1])
        assert 1 in dims  # a single column, which a plain sum would add pairwise

    def test_a_single_column_adds_its_kept_rows_in_order(self):
        # left to right, 1 + 2**-53 rounds back to 1 at each of the eight
        # steps after the first row; a pairwise sum of the nine kept rows
        # gives 1 + 2**-50, and so does the reversed column in order
        column = scalars(1.0, *8 * [2.0 ** -53], 5.0)
        stack = np.stack([column, column[::-1], np.roll(column, 4)])
        G, _ = norm_screen(stack, 1)
        assert_same_bits(G[0], np.array([1.0 / 9]))
        assert_same_bits(G[1], np.array([(1.0 + 2.0 ** -50) / 9]))
        for reports, screened in zip(stack, G):
            assert_same_bits(norm_screen(reports, 1)[0], screened)
            assert_same_bits(screened, loop_screen(reports, 1))

    @pytest.mark.parametrize("m", [1, 3, 20])
    def test_rows_of_signed_zeros(self, rng, m):
        signs = rng.choice([-0.0, 0.0], size=(m, 4))
        signs[:, 0] = -0.0  # a column of negative zeros only
        for vectors in (signs, np.full((m, 4), -0.0)):
            out = screened_mean(vectors, m // 3)
            assert_same_bits(out, loop_screen(vectors, m // 3))
            assert not np.signbit(out).any()

    def test_ties_in_norm(self, rng):
        base = rng.standard_normal(5)
        # sign flips and permutations keep the norm: every row ties with every other
        vectors = np.array([rng.permutation(base) * rng.choice([-1.0, 1.0], 5)
                            for _ in range(12)])
        for b in range(12):
            assert_same_bits(screened_mean(vectors, b), loop_screen(vectors, b))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_byzantine_rows_are_screened(self, rng, bad):
        for dim in (1, 7):
            vectors = rng.standard_normal((19, dim))
            vectors[[0, 5, 11, 18]] = bad
            vectors[11, 0] = 1.0  # partly finite where dim > 1
            out = screened_mean(vectors, 4)
            assert np.isfinite(out).all()
            assert_same_bits(out, loop_screen(vectors, 4))

    def test_hostile_instances_hold_the_bound(self, rng):
        column = rng.standard_normal((40, 1))        # its kept sum rounds apart when added pairwise
        column[[3, 17, 29]] = 50.0                   # three forgeries, screened with two honest rows
        zeros = np.full((6, 3), -0.0)
        mixed_zeros = rng.choice([-0.0, 0.0], size=(9, 2))
        base = rng.standard_normal(5)
        ties = np.array([rng.permutation(base) * rng.choice([-1.0, 1.0], 5) for _ in range(12)])
        huge = rng.standard_normal((7, 4))
        huge[2] = 1e308                              # its squared norm overflows to +inf
        instances = [
            (column, np.setdiff1d(np.arange(40), [3, 17, 29]), 5, np.zeros(1)),  # lhs = |mean|
            (column[:9], range(9), 2, np.array([-0.0])),
            (zeros, range(6), 1, np.full(3, -0.0)),
            (zeros, [0, 1, 3, 4, 5], 2, rng.standard_normal(3)),
            (mixed_zeros, range(1, 9), 4, np.zeros(2)),
            (ties, list(range(0, 12, 2)) + [1, 3, 5], 3, base),
            (ties, range(12), 11, rng.standard_normal(5)),
            (huge, [0, 1, 3, 4, 5, 6], 1, rng.standard_normal(4)),
            (huge, [0, 1, 3, 4, 5, 6], 3, np.zeros(4)),
        ]
        for rows, honest, b, S in instances:
            G, _ = norm_screen(rows, b)
            assert_same_bits(G, loop_screen(rows, b))
            lhs = np.linalg.norm(G - S)
            assert screening_deviation_bound(rows, mask(len(rows), honest), b, S).rhs - lhs >= 0.0
            if rows is huge:
                assert np.isfinite(lhs)  # the 1e308 row is screened


class TestDeviationBound:
    def test_toy_instance_values(self):
        bound = screening_deviation_bound(scalars(4, 6, -5.9), mask(3, [0, 1]), 1, np.array([5.0]))
        assert bound.c_alpha == pytest.approx(1.0)
        assert bound.delta == pytest.approx(1.0)
        assert bound.rhs == pytest.approx(6.0)

    def test_toy_instance_check_slack(self):
        grads, S = scalars(4, 6, -5.9), np.array([5.0])
        bound = screening_deviation_bound(grads, mask(3, [0, 1]), 1, S)
        slack = bound.rhs - np.linalg.norm(screened_mean(grads, 1) - S)
        assert slack == pytest.approx(0.05, abs=1e-12)  # 6 - 5.95

    def test_all_honest_rhs_is_delta(self, rng):
        vectors = rng.standard_normal((8, 3))
        S = rng.standard_normal(3)
        bound = screening_deviation_bound(vectors, np.ones(8, dtype=bool), 2, S)
        assert bound.c_alpha == 0.0
        expected = np.linalg.norm(vectors - S, axis=1).max()
        assert bound.rhs == pytest.approx(expected, rel=1e-15)

    def test_identical_inputs_slack_is_calpha_norm_s(self, rng):
        v = rng.standard_normal(6)
        S = rng.standard_normal(6)
        grads = np.tile(v, (10, 1))
        bound = screening_deviation_bound(grads, mask(10, range(7)), 3, S)
        slack = bound.rhs - np.linalg.norm(screened_mean(grads, 3) - S)
        assert slack >= 0.0
        assert slack == pytest.approx(bound.c_alpha * np.linalg.norm(S), rel=1e-12)

    def test_alpha_above_beta_is_inapplicable(self):
        with pytest.raises(RegimeError):
            screening_deviation_bound(scalars(1, 2, 3, 4, 5, 6), mask(6, range(4)), 1,
                                      np.array([0.0]))

    def test_alpha_above_half_is_inapplicable(self):
        with pytest.raises(RegimeError):
            screening_deviation_bound(scalars(1, 2, 3, 4, 5, 6), mask(6, [0, 1]), 5,
                                      np.array([0.0]))

    @pytest.mark.parametrize("honest, error, message", [
        (np.zeros(3, dtype=bool), ConfigError, "honest mask must mark at least one row"),
        (np.ones(4, dtype=bool), ShapeError,
         r"honest must be a boolean mask of shape \(3,\), got bool of shape \(4,\)"),
        (np.ones((3, 1), dtype=bool), ShapeError, r"got bool of shape \(3, 1\)"),
        (np.array([0, 1, 2]), ShapeError, r"got int64 of shape \(3,\)"),   # indices, not a mask
        (np.array([1.0, 1.0, 0.0]), ShapeError, r"got float64 of shape \(3,\)"),
    ])
    def test_bad_honest_masks_are_named(self, honest, error, message):
        with pytest.raises(error, match=message):
            screening_deviation_bound(scalars(1, 2, 3), honest, 1, np.array([0.0]))

    def test_s_of_the_wrong_shape_is_named(self):
        with pytest.raises(ShapeError, match=r"S must have shape \(1,\), got \(2,\)"):
            screening_deviation_bound(scalars(1, 2, 3), np.ones(3, dtype=bool), 1, np.zeros(2))

    @pytest.mark.parametrize("honest", [[0, 1, 2, 3], [0, 1, 2]], ids=["all-honest", "one-byz"])
    def test_screening_every_input_is_a_config_error_without_a_warning(self, honest):
        # tier-1 turns a RuntimeWarning into an error, so a 0/0 or x/0 on the way
        # would replace the named refusal
        with pytest.raises(ConfigError, match=r"^screen_count=4 must be < m=4 \(keep at least one\)$"):
            screening_deviation_bound(scalars(1, 2, 3, 4), mask(4, honest), 4, np.array([0.0]))

    @pytest.mark.parametrize("S", [[np.nan, 0.0], [np.inf, 0.0], [1.0, -np.inf]])
    def test_a_non_finite_s_is_a_numeric_error(self, S):
        with pytest.raises(NumericError, match=r"^S must be finite, got \["):
            screening_deviation_bound(np.ones((4, 2)), mask(4, range(3)), 1, np.array(S))

    @pytest.mark.parametrize("honest", [range(3), range(4)], ids=["one-byz", "all-honest"])
    def test_a_nan_honest_row_is_a_numeric_error_naming_it(self, honest):
        reports = np.ones((4, 2))
        reports[[0, 2], 1] = np.nan
        with pytest.raises(NumericError, match=r"^honest rows \[0, 2\] hold NaN") as caught:
            screening_deviation_bound(reports, mask(4, honest), 1, np.zeros(2))
        assert caught.value.rows.tolist() == [0, 2]

    def test_non_finite_rows_that_give_a_bound_still_give_one(self):
        reports = np.ones((4, 2))
        reports[3] = np.nan                  # byzantine: not in the bound
        bound = screening_deviation_bound(reports, mask(4, range(3)), 1, np.zeros(2))
        assert bound.rhs == math.sqrt(2.0)
        reports[1, 0] = -np.inf              # an infinite honest row: an infinite bound
        bound = screening_deviation_bound(reports, mask(4, range(3)), 1, np.zeros(2))
        assert bound.delta == bound.rhs == np.inf

    def test_an_s_whose_square_overflows_keeps_a_number(self):
        # ||S|| reads inf; c_alpha = 0 drops it instead of giving 0 * inf = nan
        S = np.array([1e200, 0.0])
        reports = np.tile(S, (4, 1))
        reports[0, 1] = 1.0
        honest = np.ones(4, dtype=bool)
        assert screening_deviation_bound(reports, honest, 1, S).rhs == 1.0
        assert screening_deviation_bound(reports, mask(4, range(3)), 1, S).rhs == np.inf

    def test_quick_fuzz(self, rng):
        from robustgd.verify import fuzz_screening_bound

        result = fuzz_screening_bound(n_instances=1500, seed=7)
        assert result.passed, result.detail


def reference_deviation_bound(reports, honest, screen_count, S):
    """The bound as first written, on allocated temporaries: the oracle for the in-place one."""
    reports, S = np.asarray(reports, dtype=float), np.asarray(S, dtype=float)
    c_alpha = screening_coefficient(len(reports) - np.count_nonzero(honest), screen_count,
                                    len(reports))
    with np.errstate(over="ignore"):
        squared = float(S.dot(S))
    if not math.isfinite(squared) and not np.isfinite(S).all():
        raise NumericError(f"S must be finite, got {S}")
    distances = row_norms(reports[honest] - S)
    delta = float(distances.max())
    if math.isnan(delta):
        rows = np.flatnonzero(honest)[np.isnan(distances)]
        raise NumericError(f"honest rows {rows.tolist()} hold NaN: no deviation bound",
                           rows=rows)
    return DeviationBound(c_alpha=c_alpha, delta=delta,
                          rhs=c_alpha * math.sqrt(squared) + delta if c_alpha else delta)


def bound_bits(bound):
    return [float(value).hex() for value in (bound.c_alpha, bound.delta, bound.rhs)]


class TestDeviationBoundMatchesTheReference:
    """The in-place bound returns the reference's ``DeviationBound``, bit for bit."""

    def assert_same_bound(self, reports, honest, screen_count, S):
        expected = reference_deviation_bound(reports, honest, screen_count, S)
        bound = screening_deviation_bound(reports, honest, screen_count, S)
        assert bound_bits(bound) == bound_bits(expected)
        return bound

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fuzz_instances(self, seed):
        for rows, honest, b, S in verify._screening_instances(2000, seed):
            self.assert_same_bound(rows, honest, b, S)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_an_infinite_honest_row(self, rng, value):
        reports = rng.standard_normal((5, 3))
        reports[1] = value
        bound = self.assert_same_bound(reports, mask(5, range(4)), 1, rng.standard_normal(3))
        assert bound.delta == np.inf

    def test_an_honest_row_whose_square_overflows(self, rng):
        reports = rng.standard_normal((5, 3))
        reports[2] = 1e200
        bound = self.assert_same_bound(reports, mask(5, range(4)), 2, rng.standard_normal(3))
        assert bound.delta == np.inf

    @pytest.mark.parametrize("honest", [range(3), range(4)], ids=["one-byz", "all-honest"])
    def test_a_nan_honest_row(self, honest):
        reports = np.ones((4, 2))
        reports[[0, 2], 1] = np.nan
        errors = []
        for bound in (reference_deviation_bound, screening_deviation_bound):
            with pytest.raises(NumericError) as caught:
                bound(reports, mask(4, honest), 1, np.zeros(2))
            errors.append((str(caught.value), caught.value.rows.tolist()))
        assert errors[0] == errors[1] == ("honest rows [0, 2] hold NaN: no deviation bound",
                                          [0, 2])

    @pytest.mark.parametrize("honest, rhs", [(range(4), 1.0), (range(3), np.inf)],
                             ids=["c_alpha=0", "c_alpha>0"])
    def test_an_s_whose_square_overflows(self, honest, rhs):
        S = np.array([1e200, 0.0])
        reports = np.tile(S, (4, 1))
        reports[0, 1] = 1.0
        assert self.assert_same_bound(reports, mask(4, honest), 1, S).rhs == rhs

    def test_one_column(self, rng):
        self.assert_same_bound(rng.standard_normal((9, 1)), mask(9, range(6)), 3,
                               rng.standard_normal(1))

    @pytest.mark.parametrize("m, screen_count", [(1, 0), (2, 1)])
    def test_a_single_honest_row(self, rng, m, screen_count):
        bound = self.assert_same_bound(rng.standard_normal((m, 4)), mask(m, [0]), screen_count,
                                       rng.standard_normal(4))
        assert bound.c_alpha == 2.0 * (m - 1) / (m - screen_count)


class TestScreeningCoefficient:
    def test_value_is_twice_the_byzantine_count_over_the_kept_count(self):
        assert screening_coefficient(0, 0, 1) == 0.0
        assert screening_coefficient(3, 3, 20) == 6 / 17  # 2*0.15/0.85
        assert screening_coefficient(1, 2, 10) == 0.25
        assert screening_coefficient(10, 10, 30) == 1.0  # alpha = beta = 1/3, exactly
        assert screening_coefficient(np.int64(1), 2.0, 10.0) == 0.25  # integral reals are counts

    @pytest.mark.parametrize("byzantine, screened, m, error, message", [
        (0, 4, 4, ConfigError, r"screen_count=4 must be < m=4 \(keep at least one\)"),
        (5, 5, 4, ConfigError, r"screen_count=5 must be < m=4"),      # checked first
        (3, 2, 10, RegimeError, r"corrupted fraction 3/10 exceeds screened fraction 2/10"),
        (6, 8, 10, RegimeError, r"corrupted fraction 6/10 exceeds 1/2"),
    ])
    def test_refusals_come_in_order(self, byzantine, screened, m, error, message):
        with pytest.raises(error, match=f"^{message}"):
            screening_coefficient(byzantine, screened, m)

    @pytest.mark.parametrize("byzantine, screened, m, message", [
        (-1, 0, 5, "byzantine must be >= 0, got -1"),
        (0, -1, 5, "screened must be >= 0, got -1"),
        (1, 1, -5, "m must be >= 0, got -5"),
        (1.5, 2, 5, "byzantine must be an integer count, got 1.5"),
        (1, 2.5, 5, "screened must be an integer count, got 2.5"),
        (1, 1, 5.5, "m must be an integer count, got 5.5"),
        (True, 1, 5, "byzantine must be an integer count, got True"),
        (0, False, 5, "screened must be an integer count, got False"),
        (0, 0, "5", "m must be an integer count, got '5'"),
    ])
    def test_counts_that_are_not_integers_at_least_zero_are_refused_by_name(
            self, byzantine, screened, m, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            screening_coefficient(byzantine, screened, m)
