"""Closed-form convergence quantities and checkers that test traces against them.

Everything here evaluates formulas: the smoothness constant of the surrogate
objective, the deviation bound for the screened aggregate, and the three
rate bounds (average squared gradient for nonconvex losses, objective gap
for convex losses, iterate distance for strongly convex objectives). The
``check_*`` functions compare a recorded training trace against the bound it
should satisfy and report measured value, bound value, and margin; the
convex and strongly convex ones measure against theta*, which
``solve_reference_optimum`` gives in closed form for the quadratic family.

Screening enters every bound as one number, c_alpha, taken from the worker
counts by ``aggregation.screening_coefficient``; the rate bounds need c_alpha < 1.

Bounds are only meaningful with exact Lipschitz constants; on estimated
constants (logistic) the reports are diagnostic.
"""

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import dot_sq_norms
from .errors import ConfigError, RegimeError
from .losses import QuadraticLoss, SmoothnessConstants
from .surrogate import surrogate_state

log = logging.getLogger(__name__)

# a measured trajectory factor beyond this makes the convex-gap bound vacuous
VACUOUS_TRAJECTORY_FACTOR = 100.0
# the largest free parameter r that default_r picks
DEFAULT_R_CAP = 10.0


def surrogate_smoothness(constants: SmoothnessConstants, lam):
    """Smoothness constant of the penalized-surrogate objective.

    L_F = L_tt + L_tz * L_zt / (lam - L_zz); requires lam > L_zz so the inner
    problem is strongly concave.
    """
    if lam <= constants.l_zz:
        raise RegimeError(f"need lam > L_zz, got lam={lam}, L_zz={constants.l_zz}")
    return constants.l_tt + constants.l_tz * constants.l_zt / (lam - constants.l_zz)


def error_floor(constants: SmoothnessConstants, eps, sigma):
    """Delta = L_tz * eps + sigma: inner-solve imprecision plus gradient dispersion."""
    return constants.l_tz * eps + sigma


def admissible_r_max(c_alpha):
    """Upper end 1/c_alpha^2 - 1 of the open interval the free parameter r must lie in.

    Raises ``RegimeError`` when c_alpha >= 1: the screened mean can then
    cancel the gradient, and no NBS rate bound holds (with beta = alpha, from
    a corrupted fraction of 1/3 on).
    """
    if c_alpha >= 1.0:
        raise RegimeError(f"no admissible r: c_alpha={c_alpha!r} >= 1, that is "
                          f"2*byzantine >= m - screened (alpha >= 1/3 when beta = alpha)")
    squared = c_alpha * c_alpha
    return math.inf if squared == 0.0 else 1.0 / squared - 1.0


def default_r(c_alpha):
    """Midpoint of the admissible r interval, clipped to DEFAULT_R_CAP; the r the rate bounds take.

    Inside (0, ``admissible_r_max``) for every c_alpha < 1, which is the
    only range where the interval is not refused.
    """
    return min(DEFAULT_R_CAP, admissible_r_max(c_alpha) / 2.0)


@dataclass
class TheoryInputs:
    """Everything the rate bounds consume, bundled.

    ``c_alpha`` is ``aggregation.screening_coefficient`` of the worker counts,
    ``eps`` the inner-solve accuracy, ``sigma`` the gradient dispersion bound,
    ``k`` the trajectory-boundedness factor used by the convex-gap bound, and
    ``lambda_f`` the strong-convexity modulus (0 when unused).
    """

    constants: SmoothnessConstants
    lam: float
    c_alpha: float = 0.0
    eps: float = 0.0
    sigma: float = 0.0
    lambda_f: float = 0.0
    k: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.c_alpha) and self.c_alpha >= 0.0):
            raise ConfigError(f"c_alpha must be finite and >= 0, got {self.c_alpha}")

    @property
    def l_f(self):
        return surrogate_smoothness(self.constants, self.lam)

    @property
    def delta(self):
        return error_floor(self.constants, self.eps, self.sigma)


def aggregate_deviation_bound(inputs: TheoryInputs, grad_norm):
    """Bound on ||screened aggregate - true gradient|| at one iterate."""
    return inputs.c_alpha * grad_norm + inputs.delta


def avg_sq_gradient_bound(inputs: TheoryInputs, f0_minus_fstar, T):
    """Bound on the average squared true-gradient norm over T rounds at eta = 1/L_F.

    The free parameter r is ``default_r(c_alpha)``.
    """
    r = default_r(inputs.c_alpha)
    denom = 1.0 - (1.0 + r) * inputs.c_alpha ** 2
    first = 2.0 * inputs.l_f * f0_minus_fstar / (denom * T)
    floor = 0.0 if inputs.delta == 0.0 else (1.0 + 1.0 / r) * inputs.delta ** 2 / denom
    return first + floor


def suboptimality_bound(inputs: TheoryInputs, theta0_dist, T):
    """Bound on the final objective gap for convex losses at eta = 1/L_F.

    Uses D = k * ||theta_0 - theta*|| and r = ``default_r(c_alpha)``; the max
    of a 1/T term and an error floor driven by Delta.
    """
    r = default_r(inputs.c_alpha)
    denom = 1.0 - (1.0 + r) * inputs.c_alpha ** 2
    D = inputs.k * theta0_dist
    decay = 4.0 * inputs.l_f * D ** 2 / (denom * T)
    if inputs.delta == 0.0:
        return max(decay, 0.0)
    floor = (
        math.sqrt(2.0 * (1.0 + 1.0 / r) / denom) * D * inputs.delta
        + (1.0 + 1.0 / r) * inputs.delta ** 2 / (2.0 * inputs.l_f)
    )
    return max(decay, floor)


def distance_contraction(inputs: TheoryInputs):
    """Per-round contraction of ||theta_t - theta*|| at eta = 2/(L_F + lambda_F)."""
    if inputs.lambda_f <= 0.0:
        raise RegimeError("strong-convexity modulus lambda_f must be positive")
    l_f = inputs.l_f
    rho = (2.0 * l_f * inputs.c_alpha + l_f - inputs.lambda_f) / (l_f + inputs.lambda_f)
    if rho >= 1.0:
        raise RegimeError(
            f"contraction factor {rho} >= 1: requires c_alpha < lambda_f/L_F "
            f"(alpha below 1/(1 + 2*L_F/lambda_f) when beta = alpha)"
        )
    return rho


def distance_bound(inputs: TheoryInputs, theta0_dist, T):
    """Bound on ||theta_T - theta*|| for strongly convex objectives."""
    rho = distance_contraction(inputs)
    floor = 0.0
    if inputs.delta != 0.0:
        floor = inputs.delta / (inputs.lambda_f - inputs.l_f * inputs.c_alpha)
    return rho ** T * theta0_dist + floor


@dataclass
class BoundReport:
    bound_value: float
    measured_value: float
    satisfied: bool
    margin: float  # bound - measured

    @classmethod
    def compare(cls, bound_value, measured_value):
        margin = bound_value - measured_value
        return cls(
            bound_value=float(bound_value),
            measured_value=float(measured_value),
            satisfied=bool(margin >= 0.0),
            margin=float(margin),
        )


def _require_diagnostics(trace):
    if trace.true_gradients is None:
        raise ConfigError("trace has no true-gradient diagnostics; see with_diagnostics")


def check_aggregate_deviation(trace, inputs: TheoryInputs):
    """Per-iteration reports for ||G - grad F|| against its bound.

    The trace must carry the true-gradient diagnostics; the inner-solve
    accuracy is taken per iteration from the trace, not from ``inputs.eps``.
    Every iterate is checked in one array pass: the bound is
    ``aggregate_deviation_bound`` over the array of iterates, with the array
    of their eps, each entry bit-equal to the iterate taken alone.
    """
    _require_diagnostics(trace)
    gradients = trace.true_gradients
    deviations = trace.aggregated - gradients
    # np.linalg.norm of each iterate's vector alone
    grad_norms, measured = np.sqrt(dot_sq_norms(gradients)), np.sqrt(dot_sq_norms(deviations))
    bounds = aggregate_deviation_bound(replace(inputs, eps=trace.inner_eps), grad_norms)
    return [BoundReport.compare(bound, value)
            for bound, value in zip(bounds.tolist(), measured.tolist())]


def check_avg_sq_gradient(trace, inputs: TheoryInputs, f_star):
    _require_diagnostics(trace)
    measured = float(np.mean(np.linalg.norm(trace.true_gradients, axis=1) ** 2))
    bound = avg_sq_gradient_bound(
        inputs, float(trace.true_objectives[0]) - f_star, trace.iterations
    )
    return BoundReport.compare(bound, measured)


def measured_trajectory_factor(trace, theta_star):
    """max_t ||theta_t - theta*|| / ||theta_0 - theta*|| over the recorded iterates."""
    dists = np.linalg.norm(trace.iterates - theta_star, axis=1)
    theta0_dist = float(np.linalg.norm(trace.iterates[0] - theta_star))
    if theta0_dist == 0.0:
        raise ConfigError("theta_0 coincides with theta*; factor undefined")
    return float(dists.max()) / theta0_dist


def check_suboptimality(trace, inputs: TheoryInputs, theta_star, f_star, f_final):
    """Check the convex-gap bound with k measured from the trace iterates.

    The trajectory-boundedness factor is a hypothesis, not an algorithm
    output; when the measured value is so large that the bound says nothing,
    the check still runs but the run is flagged.
    """
    k = measured_trajectory_factor(trace, theta_star)
    if k > VACUOUS_TRAJECTORY_FACTOR:
        log.warning(
            "measured trajectory factor %.3g makes the objective-gap bound vacuous", k
        )
    theta0_dist = float(np.linalg.norm(trace.iterates[0] - theta_star))
    bound = suboptimality_bound(replace(inputs, k=k), theta0_dist, trace.iterations)
    return BoundReport.compare(bound, f_final - f_star)


def check_distance(trace, inputs: TheoryInputs, theta_star):
    """Check the strongly convex distance bound on the final iterate."""
    theta0_dist = float(np.linalg.norm(trace.iterates[0] - theta_star))
    bound = distance_bound(inputs, theta0_dist, trace.iterations)
    measured = float(np.linalg.norm(trace.theta_final - theta_star))
    return BoundReport.compare(bound, measured)


def solve_reference_optimum(model, X, Y, lam):
    """theta* and F(theta*) of the surrogate objective, in closed form.

    For the quadratic loss of curvature c, row i's surrogate term is
    s/2 * ||theta - x_i||^2 with s = c * lam / (lam - c) (``exact_rows``), so
    F is least at the data mean; its value there is ``surrogate_state``'s.
    Any other model (the logistic loss, whose constants are estimated from
    data) has no closed form and raises ``ConfigError``.
    """
    if not isinstance(model, QuadraticLoss):
        raise ConfigError(f"{type(model).__name__} has no closed-form optimum")
    theta = np.asarray(X, dtype=float).mean(axis=0)
    value, _ = surrogate_state(model, theta, X, Y, lam)
    return theta, value
