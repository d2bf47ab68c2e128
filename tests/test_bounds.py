import math

import numpy as np
import pytest

from robustgd.bounds import (
    BoundReport,
    TheoryInputs,
    admissible_r_max,
    aggregate_deviation_bound,
    avg_sq_gradient_bound,
    c_alpha_factor,
    check_aggregate_deviation,
    check_avg_sq_gradient,
    check_distance,
    check_suboptimality,
    default_r,
    distance_bound,
    distance_contraction,
    measured_trajectory_factor,
    solve_reference_optimum,
    suboptimality_bound,
    surrogate_smoothness,
)
from robustgd.errors import ConfigError, RegimeError
from robustgd.losses import QuadraticLoss, SmoothnessConstants
from robustgd.surrogate import surrogate_state


def constants(l_tt, l_tz, l_zt, l_zz):
    return SmoothnessConstants(l_tt, l_tz, l_zt, l_zz)


def inputs_for(l_f_constants, lam, **kwargs):
    return TheoryInputs(constants=l_f_constants, lam=lam, **kwargs)


class TestSmoothness:
    def test_unit_constants(self):
        assert surrogate_smoothness(constants(1, 1, 1, 1), 2.0) == pytest.approx(2.0)

    def test_no_cross_terms(self):
        assert surrogate_smoothness(constants(1, 0, 0, 1), 2.0) == pytest.approx(1.0)

    def test_double_constants(self):
        assert surrogate_smoothness(constants(2, 2, 2, 2), 3.0) == pytest.approx(6.0)

    def test_requires_penalty_above_l_zz(self):
        with pytest.raises(RegimeError):
            surrogate_smoothness(constants(1, 1, 1, 2), 2.0)


class TestDeviationFloor:
    def test_clean_case_is_zero(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0)
        assert aggregate_deviation_bound(ti, grad_norm=5.0) == 0.0

    def test_arithmetic_instance(self):
        # 2*0.15/0.85 * 1 + 0.1 = 0.4529...
        ti = inputs_for(constants(1, 1, 1, 1), 2.0, alpha=0.15, beta=0.15, eps=0.0, sigma=0.1)
        assert aggregate_deviation_bound(ti, 1.0) == pytest.approx(0.3 / 0.85 + 0.1, rel=1e-12)
        assert aggregate_deviation_bound(ti, 1.0) == pytest.approx(0.45294117647, rel=1e-9)

    def test_floor_combines_solver_error_and_dispersion(self):
        ti = inputs_for(constants(1, 2, 1, 1), 3.0, alpha=0.0, beta=0.0, eps=0.25, sigma=0.3)
        assert ti.delta == pytest.approx(2 * 0.25 + 0.3)


class TestAvgSqGradientBound:
    def test_clean_limit_is_classic_descent_rate(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0)  # L_F = 2, alpha = 0, delta = 0
        assert avg_sq_gradient_bound(ti, f0_minus_fstar=3.0, T=100) == pytest.approx(
            2 * 2.0 * 3.0 / 100
        )

    def test_denominator_arithmetic(self):
        # C=0.5, r=1 -> denominator 1 - 2*0.25 = 0.5
        ti = TheoryInputs(constants=constants(1, 0, 0, 0.5), lam=1.0,
                          alpha=0.2, beta=0.2, r=1.0)
        assert ti.c_alpha == pytest.approx(0.5)
        value = avg_sq_gradient_bound(ti, f0_minus_fstar=1.0, T=10)
        assert value == pytest.approx(2 * 1.0 * 1.0 / (0.5 * 10))

    def test_r_outside_interval_rejected(self):
        ti = TheoryInputs(constants=constants(1, 1, 1, 1), lam=2.0,
                          alpha=0.2, beta=0.2, r=100.0)
        with pytest.raises(RegimeError):
            avg_sq_gradient_bound(ti, 1.0, 10)

    def test_no_admissible_r_at_breakpoint(self):
        # exactly representable fractions with 2*alpha/(1-beta) >= 1
        with pytest.raises(RegimeError):
            admissible_r_max(alpha=0.375, beta=0.375)
        with pytest.raises(RegimeError):
            admissible_r_max(alpha=0.5, beta=0.5)

    @pytest.mark.parametrize("m", range(3, 301, 3))
    def test_the_one_third_line_is_decided_exactly(self, m):
        # 2*(1/3)/(1 - 1/3) rounds to 0.9999999999999999 in floats
        k = m // 3
        with pytest.raises(RegimeError, match=r"alpha=1/3, beta=1/3"):
            admissible_r_max(alpha=k / m, beta=k / m)
        assert admissible_r_max(alpha=(k - 1) / m, beta=(k - 1) / m) > 0.0

    def test_default_r_midpoint_and_cap(self):
        assert default_r(0.0, 0.0) == 10.0
        hi = admissible_r_max(0.1, 0.1)
        assert default_r(0.1, 0.1) == pytest.approx(min(10.0, hi / 2))


class TestSuboptimalityBound:
    def test_clean_limit_shape(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0, k=1.5)  # L_F = 2
        D = 1.5 * 2.0
        assert suboptimality_bound(ti, theta0_dist=2.0, T=50) == pytest.approx(
            4 * 2.0 * D ** 2 / 50
        )

    def test_long_horizon_returns_error_floor(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0, alpha=0.1, beta=0.1,
                        eps=0.01, sigma=0.05, r=0.5, k=1.0)
        decayed = suboptimality_bound(ti, 1.0, T=1)
        floor = suboptimality_bound(ti, 1.0, T=10 ** 12)
        assert floor < decayed
        r, lf, delta = 0.5, ti.l_f, ti.delta
        denom = 1 - (1 + r) * ti.c_alpha ** 2
        expected = math.sqrt(2 * (1 + 1 / r) / denom) * 1.0 * delta + (1 + 1 / r) * delta ** 2 / (2 * lf)
        assert floor == pytest.approx(expected, rel=1e-12)


class TestDistanceBound:
    def test_clean_strongly_convex_rate(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0, lambda_f=1.0)  # L_F = 2
        rho = distance_contraction(ti)
        assert rho == pytest.approx((2.0 - 1.0) / (2.0 + 1.0))
        assert distance_bound(ti, 1.0, T=10) == pytest.approx(rho ** 10)

    def test_corrupted_contraction_arithmetic(self):
        # L_F=2, lambda_F=1, C=0.25: rho = (2*2*0.25 + 2 - 1)/3 = 2/3
        ti = TheoryInputs(constants=constants(2, 0, 0, 0.0), lam=1.0,
                          alpha=0.1, beta=0.2, lambda_f=1.0)
        assert ti.c_alpha == pytest.approx(0.25)
        rho = distance_contraction(ti)
        assert rho == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert distance_bound(ti, 1.0, T=10) == pytest.approx((2.0 / 3.0) ** 10, rel=1e-12)

    def test_contraction_error_fires_exactly_at_threshold(self):
        # threshold alpha = 1/(1 + 2 L_F / lambda_F) with beta = alpha
        l_f, lam_f = 2.0, 1.0
        threshold = 1.0 / (1.0 + 2.0 * l_f / lam_f)
        at = TheoryInputs(constants=constants(l_f, 0, 0, 0.0), lam=1.0,
                          alpha=threshold, beta=threshold, lambda_f=lam_f)
        with pytest.raises(RegimeError):
            distance_contraction(at)
        below = TheoryInputs(constants=constants(l_f, 0, 0, 0.0), lam=1.0,
                             alpha=threshold - 1e-9, beta=threshold - 1e-9, lambda_f=lam_f)
        assert distance_contraction(below) < 1.0

    def test_needs_positive_strong_convexity(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0)
        with pytest.raises(RegimeError):
            distance_bound(ti, 1.0, 5)


class TestMonotonicityInAlpha:
    def test_bounds_nondecreasing_in_corruption_level(self):
        # grid stays inside every bound's admissible range for these constants
        beta, r = 0.09, 0.05
        grids = np.linspace(0.0, 0.09, 9)
        prev = (-np.inf,) * 4
        for alpha in grids:
            ti = TheoryInputs(constants=constants(1, 1, 1, 1), lam=2.0, alpha=alpha,
                              beta=beta, eps=0.01, sigma=0.05, lambda_f=0.5, r=r, k=1.2)
            vals = (
                aggregate_deviation_bound(ti, 1.0),
                avg_sq_gradient_bound(ti, 1.0, 50),
                suboptimality_bound(ti, 1.0, 50),
                distance_bound(ti, 1.0, 50),
            )
            assert all(v >= p - 1e-12 for v, p in zip(vals, prev))
            prev = vals


class TestReportsAndOptimum:
    def test_bound_report_compare(self):
        good = BoundReport.compare(2.0, 1.5)
        assert good.satisfied and good.margin == pytest.approx(0.5)
        bad = BoundReport.compare(1.0, 1.5)
        assert not bad.satisfied and bad.margin == pytest.approx(-0.5)

    def test_reference_optimum_matches_closed_form(self, rng):
        model = QuadraticLoss(1.0)
        lam = 2.0
        X = rng.standard_normal((25, 4))
        theta_star, f_star = solve_reference_optimum(model, X, np.zeros(25), lam)
        np.testing.assert_allclose(theta_star, X.mean(axis=0), atol=1e-10)
        expected, _ = surrogate_state(model, X.mean(axis=0), X, np.zeros(25), lam)
        assert f_star == pytest.approx(expected, rel=1e-12)

    def test_reference_optimum_requires_eta_for_estimates(self):
        from robustgd.losses import LogisticLoss

        with pytest.raises(ConfigError):
            solve_reference_optimum(LogisticLoss(), np.zeros((3, 2)), np.zeros(3), 3.0)

    def test_trajectory_factor_and_checkers_on_a_tracked_run(self):
        from robustgd.verify import _quadratic_run

        model, X, Y, trace, base = _quadratic_run(seed=0, iterations=40)
        theta_star, f_star = solve_reference_optimum(model, X, Y, base.lam)
        k = measured_trajectory_factor(trace, theta_star)
        assert k >= 1.0
        loaded = TheoryInputs(
            constants=base.constants, lam=base.lam, alpha=base.alpha, beta=base.beta,
            eps=float(trace.inner_eps.max()), sigma=base.sigma,
            lambda_f=surrogate_smoothness(base.constants, base.lam),
        )
        for report in check_aggregate_deviation(trace, loaded):
            assert report.satisfied
        assert check_avg_sq_gradient(trace, loaded, f_star).satisfied
        f_final, _ = surrogate_state(model, trace.theta_final, X, Y, base.lam)
        assert check_suboptimality(trace, loaded, theta_star, f_star, f_final).satisfied
        assert check_distance(trace, loaded, theta_star).satisfied

    def test_ballooning_trajectory_is_flagged_vacuous(self, caplog):
        import logging

        from robustgd.simulation import RunTrace

        T, d = 3, 2
        iterates = np.array([[1.0, 0.0], [50.0, 0.0], [500.0, 0.0]])
        trace = RunTrace(
            eta=0.1,
            aggregated=np.zeros((T, d)),
            aggregated_norms=np.zeros(T),
            objective_estimates=np.zeros(T),
            worker_norms=np.zeros((T, 1)),
            iterates=iterates,
            theta_final=iterates[-1],
        )
        ti = inputs_for(constants(1, 1, 1, 1), 2.0)
        with caplog.at_level(logging.WARNING, logger="robustgd.bounds"):
            report = check_suboptimality(trace, ti, np.zeros(d), f_star=0.0, f_final=1.0)
        assert report.bound_value > 0
        assert any("vacuous" in rec.message for rec in caplog.records)

    def test_checkers_require_tracking(self):
        from robustgd.aggregation import ScreenConfig
        from robustgd.data import even_shards, quadratic_cloud
        from robustgd.simulation import TrainConfig, WorkerRoster, run_training
        from robustgd.surrogate import DROConfig

        X, Y = quadratic_cloud(12, 2, seed=1)
        shards, _ = even_shards(12, 3)
        cfg = TrainConfig(eta=0.2, iterations=3, dro=DROConfig(2.0, 0.3, 3),
                          screen=ScreenConfig(0))
        trace = run_training(QuadraticLoss(), X, Y, WorkerRoster(shards=shards), cfg)
        ti = inputs_for(constants(1, 1, 1, 1), 2.0)
        with pytest.raises(ConfigError):
            check_aggregate_deviation(trace, ti)
        with pytest.raises(ConfigError):
            check_avg_sq_gradient(trace, ti, f_star=0.0)
        with pytest.raises(ConfigError, match="coincides"):
            measured_trajectory_factor(trace, trace.iterates[0])


def test_c_alpha_validation():
    with pytest.raises(ConfigError):
        c_alpha_factor(-0.1, 0.2)
    with pytest.raises(ConfigError):
        c_alpha_factor(0.1, 1.0)
    with pytest.raises(ConfigError):
        TheoryInputs(constants=constants(1, 1, 1, 1), lam=2.0, alpha=0.3, beta=0.2)
