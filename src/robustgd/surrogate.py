"""Worst-case data surrogate: per-sample penalized inner maximization.

For a sample x the surrogate loss is ``sup_z { f(theta; z) - lam * c(z, x) }``
with transport cost ``c(z, x) = ||z - x||^2 / 2``. Workers realize the sup by
plain gradient ascent started at z = x; the gradient of the surrogate in
theta is then the loss gradient evaluated at the ascent output (envelope
property), which is what the training loop aggregates.

The logistic loss sees z only through theta . z, so its z-gradient is a
multiple of theta and every ascent iterate stays on the line x + c * theta.
``ascend`` runs that case as a scalar recursion per row (the WRM surrogate of
Sinha, Namkoong & Duchi, ICLR 2018, specialised to a generalized linear
model); other losses take the generic row-by-row ascent.

The cost is 1-strongly convex and COST_SMOOTHNESS-smooth, so for
``lam > L_zz`` the inner objective is strongly concave and the ascent
contracts linearly; ``required_iterations`` converts a target accuracy into
an iteration count via the contraction factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, RegimeError
from .losses import LogisticLoss, QuadraticLoss, SmoothnessConstants, sigmoid

COST_SMOOTHNESS = 1.0  # c(z, x) = ||z - x||^2 / 2


@dataclass(frozen=True)
class DROConfig:
    """Inner-maximization settings: penalty weight and ascent schedule."""

    lam: float
    eta_z: float = 0.05
    t_z: int = 10

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if not (np.isfinite(self.eta_z) and self.eta_z > 0):
            raise ConfigError(f"eta_z must be positive, got {self.eta_z}")
        if self.t_z < 0:
            raise ConfigError(f"t_z must be >= 0, got {self.t_z}")


def transport_costs(Z, X):
    diff = Z - X
    return 0.5 * np.einsum("ij,ij->i", diff, diff)


def penalized_objectives(model, theta, Z, Y, X, lam):
    """Per-sample inner objective f(theta; z) - lam * c(z, x)."""
    return model.values(theta, Z, Y) - lam * transport_costs(Z, X)


def ascend(model, theta, X, Y, cfg, t_z=None):
    """Batched gradient ascent on the penalized objective, one row per sample.

    Runs exactly ``t_z`` steps (default cfg.t_z) of
    z <- z + eta_z * (grad_z f(theta; z) - lam * (z - x)) from z = x and
    returns the final rows Z. For the logistic loss the steps run on the line
    z = x + c * theta (see the module docstring). A step that leaves a row
    non-finite raises ``NumericError`` whose ``rows`` holds those rows.
    """
    steps = cfg.t_z if t_z is None else t_z
    X = np.asarray(X, dtype=float)
    if steps == 0:
        return X.copy()
    if isinstance(model, LogisticLoss):
        return _ascend_on_line(theta, X, Y, cfg, steps)
    Z = X.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # divergence handled below
        for k in range(steps):
            Z += cfg.eta_z * (model.grads_z(theta, Z, Y) - cfg.lam * (Z - X))
            _check_rows(Z, k + 1)
    return Z


def _ascend_on_line(theta, X, Y, cfg, steps):
    # grad_z f = (sigmoid(theta . z) - y) * theta, so with z = x + c * theta the
    # step is c <- c + eta_z * ((sigmoid(theta . x + c * ||theta||^2) - y) - lam * c)
    theta = np.asarray(theta, dtype=float)
    Y = np.asarray(Y, dtype=float)
    margins = X @ theta
    sq_norm = theta @ theta
    c = np.zeros(X.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # divergence handled below
        for k in range(steps):
            c += cfg.eta_z * ((sigmoid(margins + c * sq_norm) - Y) - cfg.lam * c)
            _check_rows(c, k + 1)
        Z = X + c[:, None] * theta
    _check_rows(Z, steps)
    return Z


def _check_rows(A, step):
    finite = np.isfinite(A)
    if not finite.all():
        bad = ~finite.reshape(A.shape[0], -1).all(axis=1)
        raise NumericError(f"inner ascent diverged at step {step}", rows=np.flatnonzero(bad))


def exact_inner_maximizer(model, theta, X, lam):
    """Closed-form maximizer rows for the quadratic family: (lam*x - c*theta)/(lam - c).

    Only the quadratic loss admits a closed form; it is the oracle against
    which the iterative ascent is checked.
    """
    if not isinstance(model, QuadraticLoss):
        raise TypeError(f"no closed-form inner maximizer for {model.kind} loss")
    c = model.curvature
    if lam <= c:
        raise RegimeError(f"inner objective not concave: lam={lam} <= curvature={c}")
    X = np.asarray(X, dtype=float)
    return (lam * X - c * theta) / (lam - c)


def theoretical_ascent_step(lam, l_c=COST_SMOOTHNESS):
    """Step size 2/(L_g + lam_g) for the strongly concave inner objective."""
    return 2.0 / (lam * l_c + lam)


def surrogate_state(model, theta, X, Y, lam, t_z=400, exact=None):
    """Objective value and gradient of the surrogate averaged over a sample set.

    Diagnostic-grade: maximizers come from the closed form when the model has
    one (default for the quadratic family), otherwise from a long ascent at
    the theoretical step size. Returns (value, gradient).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if exact is None:
        exact = isinstance(model, QuadraticLoss)
    if exact:
        Z = exact_inner_maximizer(model, theta, X, lam)
    else:
        Z = ascend(model, theta, X, Y, DROConfig(lam, theoretical_ascent_step(lam), t_z))
    value = float(penalized_objectives(model, theta, Z, Y, X, lam).mean())
    return value, model.mean_grad_theta(theta, Z, Y)


def contraction_factor(l_zz, lam, l_c=COST_SMOOTHNESS):
    """Per-iteration distance contraction of the inner ascent at the theoretical step."""
    return (2.0 * l_zz + lam * l_c - lam) / (lam * l_c + lam)


def required_iterations(constants: SmoothnessConstants, lam, l_c, eps, d_z):
    """Iterations needed to bring the ascent within eps of the exact maximizer.

    Returns (iterations, p) with p the contraction factor; the count is
    ceil(ln(d_z/eps) / ln(1/p)) for an ascent started at distance d_z.
    """
    if lam <= constants.l_zz:
        raise RegimeError(f"need lam > L_zz, got lam={lam}, L_zz={constants.l_zz}")
    if eps <= 0 or d_z <= 0:
        raise ConfigError("eps and d_z must be positive")
    p = contraction_factor(constants.l_zz, lam, l_c)
    if not 0.0 < p < 1.0:
        raise RegimeError(f"contraction factor {p} outside (0, 1)")
    ratio = math.log(d_z / eps) / math.log(1.0 / p)
    # tiny slack so exact-power cases are not bumped up by float rounding
    return max(0, math.ceil(ratio - 1e-9)), p

