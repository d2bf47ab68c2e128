import math
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import quadratic_run
from robustgd.aggregation import screening_coefficient
from robustgd.bounds import (
    DEFAULT_R_CAP,
    BoundReport,
    TheoryInputs,
    admissible_r_max,
    aggregate_deviation_bound,
    avg_sq_gradient_bound,
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
        # 3 of 20 byzantine, 3 screened: 2*0.15/0.85 * 1 + 0.1 = 0.4529...
        ti = inputs_for(constants(1, 1, 1, 1), 2.0, c_alpha=screening_coefficient(3, 3, 20),
                        eps=0.0, sigma=0.1)
        assert aggregate_deviation_bound(ti, 1.0) == pytest.approx(0.3 / 0.85 + 0.1, rel=1e-12)
        assert aggregate_deviation_bound(ti, 1.0) == pytest.approx(0.45294117647, rel=1e-9)

    def test_floor_combines_solver_error_and_dispersion(self):
        ti = inputs_for(constants(1, 2, 1, 1), 3.0, c_alpha=0.0, eps=0.25, sigma=0.3)
        assert ti.delta == pytest.approx(2 * 0.25 + 0.3)


class TestAvgSqGradientBound:
    def test_clean_limit_is_classic_descent_rate(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0)  # L_F = 2, alpha = 0, delta = 0
        assert avg_sq_gradient_bound(ti, f0_minus_fstar=3.0, T=100) == pytest.approx(
            2 * 2.0 * 3.0 / 100
        )

    def test_denominator_arithmetic(self):
        # 1 of 5 byzantine and screened: C=0.5, r=1 -> denominator 1 - 2*0.25 = 0.5
        ti = TheoryInputs(constants=constants(1, 0, 0, 0.5), lam=1.0,
                          c_alpha=screening_coefficient(1, 1, 5), r=1.0)
        assert ti.c_alpha == pytest.approx(0.5)
        value = avg_sq_gradient_bound(ti, f0_minus_fstar=1.0, T=10)
        assert value == pytest.approx(2 * 1.0 * 1.0 / (0.5 * 10))

    def test_r_outside_interval_rejected(self):
        ti = TheoryInputs(constants=constants(1, 1, 1, 1), lam=2.0,
                          c_alpha=screening_coefficient(1, 1, 5), r=100.0)
        with pytest.raises(RegimeError):
            avg_sq_gradient_bound(ti, 1.0, 10)

    def test_no_admissible_r_at_breakpoint(self):
        # alpha = beta = 3/8 and 1/2: c_alpha = 1.2 and 2
        for c_alpha in (screening_coefficient(3, 3, 8), screening_coefficient(1, 1, 2)):
            for bound in (admissible_r_max, default_r):
                with pytest.raises(RegimeError, match="no admissible r"):
                    bound(c_alpha)

    @pytest.mark.parametrize("m", range(3, 301, 3))
    def test_the_one_third_line_is_decided_exactly(self, m):
        # 2*(1/3)/(1 - 1/3) rounds to 0.9999999999999999 in floats; 2k/(m - k) is 1.0
        k = m // 3
        with pytest.raises(RegimeError, match=r"c_alpha=1\.0 >= 1"):
            admissible_r_max(screening_coefficient(k, k, m))
        assert admissible_r_max(screening_coefficient(k - 1, k - 1, m)) > 0.0

    def test_the_line_is_decided_from_the_counts_on_every_small_roster(self):
        # raises exactly when 2b >= m - s: every m <= 300 at s = b, and every
        # b <= s < m with 2b <= m for m <= 50
        cases = [(b, b, m) for m in range(1, 301) for b in range(m)]
        cases += [(b, s, m) for m in range(1, 51) for b in range(m // 2 + 1)
                  for s in range(b, m)]
        wrong = []
        for b, s, m in cases:
            try:
                hi = admissible_r_max(screening_coefficient(b, s, m))
            except RegimeError:
                hi = None
            if (hi is None) != (2 * b >= m - s) or (hi is not None and not hi > 0.0):
                wrong.append((b, s, m, hi))
        assert wrong == []

    @pytest.mark.parametrize("byzantine, m", [(10_000, 30_001), (33_334, 100_003)])
    def test_large_rosters_just_below_the_line_are_admissible(self, byzantine, m):
        # 2b < m - b, so c_alpha < 1; a fraction rebuilt with a denominator of at
        # most 10,000 reads these as 1/3
        c_alpha = screening_coefficient(byzantine, byzantine, m)
        assert c_alpha < 1.0
        assert 0.0 < admissible_r_max(c_alpha) < 1e-3
        assert 0.0 < default_r(c_alpha) < admissible_r_max(c_alpha)

    def test_default_r_midpoint_and_cap(self):
        assert default_r(0.0) == DEFAULT_R_CAP == 10.0
        c_alpha = screening_coefficient(1, 1, 10)  # alpha = beta = 0.1
        hi = admissible_r_max(c_alpha)
        assert default_r(c_alpha) == pytest.approx(min(10.0, hi / 2))
        c_alpha = screening_coefficient(3, 3, 20)
        assert default_r(c_alpha) == admissible_r_max(c_alpha) / 2


class TestSuboptimalityBound:
    def test_clean_limit_shape(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0, k=1.5)  # L_F = 2
        D = 1.5 * 2.0
        assert suboptimality_bound(ti, theta0_dist=2.0, T=50) == pytest.approx(
            4 * 2.0 * D ** 2 / 50
        )

    def test_long_horizon_returns_error_floor(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0, c_alpha=screening_coefficient(1, 1, 10),
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
        # 1 of 10 byzantine, 2 screened: L_F=2, lambda_F=1, C=0.25:
        # rho = (2*2*0.25 + 2 - 1)/3 = 2/3
        ti = TheoryInputs(constants=constants(2, 0, 0, 0.0), lam=1.0,
                          c_alpha=screening_coefficient(1, 2, 10), lambda_f=1.0)
        assert ti.c_alpha == pytest.approx(0.25)
        rho = distance_contraction(ti)
        assert rho == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert distance_bound(ti, 1.0, T=10) == pytest.approx((2.0 / 3.0) ** 10, rel=1e-12)

    def test_contraction_error_fires_exactly_at_threshold(self):
        # threshold c_alpha = lambda_F / L_F (alpha = 1/(1 + 2 L_F / lambda_F) with beta = alpha)
        l_f, lam_f = 2.0, 1.0
        threshold = lam_f / l_f
        at = TheoryInputs(constants=constants(l_f, 0, 0, 0.0), lam=1.0,
                          c_alpha=threshold, lambda_f=lam_f)
        with pytest.raises(RegimeError, match="c_alpha < lambda_f/L_F"):
            distance_contraction(at)
        below = replace(at, c_alpha=threshold - 1e-15)
        assert distance_contraction(below) < 1.0

    def test_needs_positive_strong_convexity(self):
        ti = inputs_for(constants(1, 1, 1, 1), 2.0)
        with pytest.raises(RegimeError):
            distance_bound(ti, 1.0, 5)


class TestMonotonicityInAlpha:
    def test_bounds_nondecreasing_in_corruption_level(self):
        # 0 to 9 byzantine of 100 with 9 screened (alpha up to beta = 0.09): the grid
        # stays inside every bound's admissible range for these constants
        r = 0.05
        prev = (-np.inf,) * 4
        for byzantine in range(10):
            ti = TheoryInputs(constants=constants(1, 1, 1, 1), lam=2.0,
                              c_alpha=screening_coefficient(byzantine, 9, 100),
                              eps=0.01, sigma=0.05, lambda_f=0.5, r=r, k=1.2)
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
        import inspect

        from robustgd.losses import LogisticLoss

        with pytest.raises(ConfigError, match="step size"):
            solve_reference_optimum(LogisticLoss(), np.zeros((3, 2)), np.zeros(3), 3.0)
        # the step always comes from exact constants: no step, start or stopping settings
        assert list(inspect.signature(solve_reference_optimum).parameters) == [
            "model", "X", "Y", "lam"]

    def test_trajectory_factor_and_checkers_on_a_tracked_run(self):
        model, X, Y, trace, base = quadratic_run(seed=0, iterations=40)
        theta_star, f_star = solve_reference_optimum(model, X, Y, base.lam)
        k = measured_trajectory_factor(trace, theta_star)
        assert k >= 1.0
        loaded = TheoryInputs(
            constants=base.constants, lam=base.lam, c_alpha=base.c_alpha,
            eps=float(trace.inner_eps.max()), sigma=base.sigma,
            lambda_f=surrogate_smoothness(base.constants, base.lam),
        )
        for report in check_aggregate_deviation(trace, loaded):
            assert report.satisfied
        assert check_avg_sq_gradient(trace, loaded, f_star).satisfied
        f_final, _ = surrogate_state(model, trace.theta_final, X, Y, base.lam)
        assert check_suboptimality(trace, loaded, theta_star, f_star, f_final).satisfied
        assert check_distance(trace, loaded, theta_star).satisfied

    def test_deviation_reports_are_the_per_iterate_loops_bits(self, rng):
        from robustgd.simulation import RunTrace
        def per_iterate(trace, inputs):
            # the checker as a loop over iterates, one TheoryInputs per eps
            reports = []
            for t in range(trace.iterations):
                grad_norm = float(np.linalg.norm(trace.true_gradients[t]))
                per_t = replace(inputs, eps=float(trace.inner_eps[t]))
                measured = float(np.linalg.norm(trace.aggregated[t] - trace.true_gradients[t]))
                reports.append(BoundReport.compare(aggregate_deviation_bound(per_t, grad_norm),
                                                   measured))
            return reports

        def bits(reports):
            return [(r.bound_value.hex(), r.measured_value.hex(), r.satisfied, r.margin.hex())
                    for r in reports]

        *_, trace, inputs = quadratic_run(seed=1, iterations=30, attack_kind="counterexample")
        T, d = 40, 9
        scaled = np.exp(rng.normal(0.0, 4.0, (T, 1)))
        synthetic = RunTrace(
            aggregated=rng.standard_normal((T, d)) * scaled, worker_norms=np.zeros((T, 1)),
            iterates=np.zeros((T, d)), theta_final=np.zeros(d),
            true_gradients=rng.standard_normal((T, d)) * scaled, true_objectives=np.zeros(T),
            inner_eps=rng.uniform(0.0, 2.0, T))
        synthetic.true_gradients[3] = 0.0
        synthetic.aggregated[5] = synthetic.true_gradients[5]
        synthetic_inputs = inputs_for(constants(1.0, 3.0, 3.0, 0.5), 2.0, c_alpha=0.4,
                                      sigma=0.7, eps=5.0)  # eps comes from the trace instead
        for trace, inputs in ((trace, inputs), (trace.prefix(7), inputs),
                              (synthetic, synthetic_inputs)):
            reports = check_aggregate_deviation(trace, inputs)
            assert len(reports) == trace.iterations
            assert bits(reports) == bits(per_iterate(trace, inputs))
            assert all(type(r.bound_value) is float and type(r.satisfied) is bool
                       for r in reports)

    def test_ballooning_trajectory_is_flagged_vacuous(self, caplog):
        import logging

        from robustgd.simulation import RunTrace

        T, d = 3, 2
        iterates = np.array([[1.0, 0.0], [50.0, 0.0], [500.0, 0.0]])
        trace = RunTrace(
            aggregated=np.zeros((T, d)),
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


@pytest.mark.parametrize("c_alpha", [-0.1, -math.inf, math.inf, math.nan])
def test_c_alpha_validation(c_alpha):
    with pytest.raises(ConfigError, match="c_alpha must be finite and >= 0"):
        TheoryInputs(constants=constants(1, 1, 1, 1), lam=2.0, c_alpha=c_alpha)


def test_theory_inputs_take_c_alpha_not_fractions():
    settable = [f.name for f in fields(TheoryInputs)]
    assert settable == ["constants", "lam", "c_alpha", "eps", "sigma", "lambda_f", "r", "k"]
    # a tiny c_alpha squares to 0.0: the interval is unbounded, not a division by zero
    assert admissible_r_max(1e-170) == math.inf
