"""Closed-form convergence quantities and checkers that test traces against them.

Everything here evaluates formulas: the smoothness constant of the surrogate
objective, the deviation bound for the screened aggregate, and the three
rate bounds (average squared gradient for nonconvex losses, objective gap
for convex losses, iterate distance for strongly convex objectives). The
``check_*`` functions compare a recorded training trace against the bound it
should satisfy and report measured value, bound value, and margin.

Bounds are only meaningful with exact Lipschitz constants; on estimated
constants (logistic) the reports are diagnostic.
"""

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, RegimeError
from .losses import SmoothnessConstants
from .surrogate import surrogate_state

log = logging.getLogger(__name__)

# a measured trajectory factor beyond this makes the convex-gap bound vacuous
VACUOUS_TRAJECTORY_FACTOR = 100.0
# largest denominator read from a worker fraction; see admissible_r_max
FRACTION_DENOMINATOR = 10_000


def surrogate_smoothness(constants: SmoothnessConstants, lam):
    """Smoothness constant of the penalized-surrogate objective.

    L_F = L_tt + L_tz * L_zt / (lam - L_zz); requires lam > L_zz so the inner
    problem is strongly concave.
    """
    if lam <= constants.l_zz:
        raise RegimeError(f"need lam > L_zz, got lam={lam}, L_zz={constants.l_zz}")
    return constants.l_tt + constants.l_tz * constants.l_zt / (lam - constants.l_zz)


def c_alpha_factor(alpha, beta):
    """Screened-mean deviation coefficient 2*alpha / (1 - beta)."""
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta < 1.0:
        raise ConfigError(f"need 0 <= alpha <= 1 and 0 <= beta < 1, got {alpha}, {beta}")
    return 2.0 * alpha / (1.0 - beta)


def error_floor(constants: SmoothnessConstants, eps, sigma):
    """Delta = L_tz * eps + sigma: inner-solve imprecision plus gradient dispersion."""
    return constants.l_tz * eps + sigma


def admissible_r_max(alpha, beta):
    """Upper end of the open interval the free parameter r must lie in.

    Raises ``RegimeError`` when 2*alpha/(1-beta) >= 1, decided on fractions:
    alpha and beta are worker fractions k/m, so each is read as the nearest
    fraction with a denominator of at most FRACTION_DENOMINATOR, which
    recovers k/m exactly for m up to that size. In floats, 2*(1/3)/(1-1/3)
    rounds to 0.9999999999999999 and would put alpha = beta = 1/3 below the
    line.
    """
    # imported here so that runs which check no bound do not load decimal (~0.3 MB)
    from fractions import Fraction

    if alpha == 0.0:
        return math.inf
    hi = 1.0 / c_alpha_factor(alpha, beta) ** 2 - 1.0
    a, b = (Fraction(v).limit_denominator(FRACTION_DENOMINATOR) for v in (alpha, beta))
    if 2 * a >= 1 - b or hi <= 0.0:
        raise RegimeError(
            f"no admissible r: 2*alpha >= 1 - beta at alpha={a}, beta={b} "
            f"(requires alpha < 1/3 when beta >= alpha)"
        )
    return hi


def default_r(alpha, beta, cap=10.0):
    """Midpoint of the admissible r interval, clipped to the cap."""
    hi = admissible_r_max(alpha, beta)
    return cap if math.isinf(hi) else min(cap, hi / 2.0)


@dataclass
class TheoryInputs:
    """Everything the rate bounds consume, bundled.

    ``eps`` is the inner-solve accuracy, ``sigma`` the gradient dispersion
    bound, ``r`` the free parameter (None picks the default midpoint), ``k``
    the trajectory-boundedness factor used by the convex-gap bound, and
    ``lambda_f`` the strong-convexity modulus (0 when unused).
    """

    constants: SmoothnessConstants
    lam: float
    alpha: float = 0.0
    beta: float = 0.0
    eps: float = 0.0
    sigma: float = 0.0
    lambda_f: float = 0.0
    r: float | None = None
    k: float = 1.0

    def __post_init__(self):
        if self.beta < self.alpha:
            raise ConfigError(f"need beta >= alpha, got alpha={self.alpha}, beta={self.beta}")

    @property
    def l_f(self):
        return surrogate_smoothness(self.constants, self.lam)

    @property
    def c_alpha(self):
        return c_alpha_factor(self.alpha, self.beta)

    @property
    def delta(self):
        return error_floor(self.constants, self.eps, self.sigma)

    def resolved_r(self):
        r = default_r(self.alpha, self.beta) if self.r is None else self.r
        hi = admissible_r_max(self.alpha, self.beta)
        if not 0.0 < r < hi:
            raise RegimeError(f"r={r} outside the admissible interval (0, {hi})")
        return r


def aggregate_deviation_bound(inputs: TheoryInputs, grad_norm):
    """Bound on ||screened aggregate - true gradient|| at one iterate."""
    return inputs.c_alpha * grad_norm + inputs.delta


def avg_sq_gradient_bound(inputs: TheoryInputs, f0_minus_fstar, T):
    """Bound on the average squared true-gradient norm over T rounds at eta = 1/L_F."""
    r = inputs.resolved_r()
    denom = 1.0 - (1.0 + r) * inputs.c_alpha ** 2
    first = 2.0 * inputs.l_f * f0_minus_fstar / (denom * T)
    floor = 0.0 if inputs.delta == 0.0 else (1.0 + 1.0 / r) * inputs.delta ** 2 / denom
    return first + floor


def suboptimality_bound(inputs: TheoryInputs, theta0_dist, T):
    """Bound on the final objective gap for convex losses at eta = 1/L_F.

    Uses D = k * ||theta_0 - theta*||; the max of a 1/T term and an error
    floor driven by Delta.
    """
    r = inputs.resolved_r()
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
            f"contraction factor {rho} >= 1: requires 2*alpha/(1-beta) < lambda_f/L_F "
            f"(alpha below 1/(1 + 2*L_F/lambda_f))"
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
    """
    _require_diagnostics(trace)
    reports = []
    for t in range(trace.iterations):
        grad_norm = float(np.linalg.norm(trace.true_gradients[t]))
        per_t = replace(inputs, eps=float(trace.inner_eps[t]))
        measured = float(np.linalg.norm(trace.aggregated[t] - trace.true_gradients[t]))
        reports.append(BoundReport.compare(aggregate_deviation_bound(per_t, grad_norm), measured))
    return reports


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


def solve_reference_optimum(model, X, Y, lam, eta=None, max_iterations=100_000,
                            tol=1e-13, theta0=None):
    """Locate theta* and F(theta*) by a long clean full-batch descent run.

    Stops early once the true-gradient norm falls below tol. For exact
    constants the default step is 1/L_F; estimated constants require an
    explicit eta.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if eta is None:
        try:
            constants = model.constants()
        except TypeError as exc:
            raise ConfigError("cannot derive a step size for this model: pass eta") from exc
        if not constants.exact:
            raise ConfigError("estimated constants: pass eta explicitly")
        eta = 1.0 / surrogate_smoothness(constants, lam)
    theta = np.zeros(X.shape[1]) if theta0 is None else np.array(theta0, dtype=float)
    value, grad = surrogate_state(model, theta, X, Y, lam)
    for _ in range(max_iterations):
        if np.linalg.norm(grad) <= tol:
            break
        theta = theta - eta * grad
        value, grad = surrogate_state(model, theta, X, Y, lam)
    return theta, value
