"""Worst-case data surrogate: per-sample penalized inner maximization.

For a sample x the surrogate loss is ``sup_z { f(theta; z) - lam * c(z, x) }``
with transport cost ``c(z, x) = ||z - x||^2 / 2``. Workers realize the sup by
plain gradient ascent started at z = x; the gradient of the surrogate in
theta is then the loss gradient evaluated at the ascent output (envelope
property), which is what the training loop aggregates.

Both loss families keep every ascent iterate on a line through x, so the
ascent is a scalar recursion (the WRM surrogate of Sinha, Namkoong & Duchi,
ICLR 2018, specialised to each family):

- The logistic loss sees z only through theta . z, so its z-gradient is a
  multiple of theta and z = x + c * theta with one coefficient per row.
  ``line_ascent`` runs that recursion; ``line_surrogate`` evaluates the
  surrogate at the ascent output from the margins theta . x and the
  coefficients c alone, never forming z: theta . z = theta . x + c * ||theta||^2,
  the theta-gradient is r * x + (r * c) * theta with r = sigmoid(theta . z) - y,
  and the transport cost is c^2 * ||theta||^2 / 2.
- The quadratic c/2 * ||theta - z||^2 has z-gradient c * (z - theta), so
  z = x + k * (x - theta) with one coefficient k shared by every row.
  ``quadratic_line_ascent`` runs it; ``quadratic_surrogate`` gives the row
  theta-gradient c * (1 + k) * (theta - x) and the objective
  (c * (1 + k)^2 - lam * k^2) / 2 * ||theta - x||^2. The exact maximizer is
  the fixed point k = c / (lam - c), so ``exact_quadratic_rows`` gives the
  surrogate at it in closed form.

``ascend`` builds z from these recursions.

The cost is 1-strongly convex and COST_SMOOTHNESS-smooth, so for
``lam > L_zz`` the inner objective is strongly concave and the ascent
contracts linearly; ``required_iterations`` converts a target accuracy into
an iteration count via the contraction factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, RegimeError
from .losses import LogisticLoss, QuadraticLoss, SmoothnessConstants, cross_entropy, sigmoid

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
    returns the final rows Z. The steps run on the line z = x + c * theta for
    the logistic loss (``line_ascent``) and z = x + k * (x - theta) for the
    quadratic (``quadratic_line_ascent``). A diverging ascent raises
    ``NumericError`` whose ``rows`` holds the rows it carries away.
    """
    steps = cfg.t_z if t_z is None else t_z
    X = np.asarray(X, dtype=float)
    if steps == 0:
        return X.copy()
    if isinstance(model, LogisticLoss):
        _, c, _ = line_ascent(theta, X, Y, cfg, steps)
        with np.errstate(over="ignore", invalid="ignore"):  # divergence handled below
            Z = X + c[:, None] * theta
    else:
        k, D = quadratic_line_ascent(model, theta, X, cfg, steps)
        with np.errstate(over="ignore"):  # divergence handled below
            Z = X - k * D
    _check_rows(Z, f"inner ascent diverged at step {steps}")
    return Z


def line_ascent(theta, X, Y, cfg, t_z=None):
    """The logistic ascent on the line z = x + c * theta, one coefficient per row.

    grad_z f = (sigmoid(theta . z) - y) * theta, so each of the ``t_z`` steps
    (default cfg.t_z) is c <- c + eta_z * ((sigmoid(theta . x + c * ||theta||^2) - y) - lam * c)
    from c = 0. Returns (margins X @ theta, c, ||theta||^2). A non-finite theta,
    ||theta||^2, margin or coefficient raises ``NumericError``; its ``rows``
    holds the offending rows when there are any.
    """
    steps = cfg.t_z if t_z is None else t_z
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite values in theta")
    with np.errstate(over="ignore"):  # overflow is refused below
        sq_norm = theta @ theta
        margins = X @ theta
    if not np.isfinite(sq_norm):
        raise NumericError("||theta||^2 overflows")
    _check_rows(margins, "non-finite margins theta . x")
    c = np.zeros(X.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # divergence handled below
        for k in range(steps):
            c += cfg.eta_z * ((sigmoid(margins + c * sq_norm) - Y) - cfg.lam * c)
            _check_rows(c, f"inner ascent diverged at step {k + 1}")
    return margins, c, sq_norm


def line_surrogate(theta, X, Y, cfg):
    """The logistic surrogate per row at the ascent output, without forming z.

    Returns (r, c, objectives): r = sigmoid(theta . z) - y and the line
    coefficients c of z = x + c * theta, so the row's theta-gradient is
    r * x + (r * c) * theta, and the penalized objectives
    f(theta; z) - lam * c^2 * ||theta||^2 / 2. A row whose objective
    overflows raises ``NumericError`` as a divergence of the last step.
    """
    Y = np.asarray(Y, dtype=float)
    margins, c, sq_norm = line_ascent(theta, X, Y, cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite objective is refused below
        a = sigmoid(margins + c * sq_norm)
        objectives = cross_entropy(a, Y) - cfg.lam * (0.5 * (c * c) * sq_norm)
    _check_rows(objectives, f"inner ascent diverged at step {cfg.t_z}")
    return a - Y, c, objectives


def quadratic_line_ascent(model, theta, X, cfg, t_z=None):
    """The quadratic ascent on the line z = x + k * (x - theta), one coefficient for all rows.

    grad_z f = c * (z - theta), so each of the ``t_z`` steps (default cfg.t_z)
    is k <- k + eta_z * (c * (1 + k) - lam * k) from k = 0. Returns
    (k, D) with D = theta - X, so z = x - k * D. A non-finite theta or row of
    D raises ``NumericError``, as does a diverging k; rows at x = theta never
    move, so only the other rows are named.
    """
    steps = cfg.t_z if t_z is None else t_z
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite values in theta")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        D = theta - np.asarray(X, dtype=float)
    _check_rows(D, "non-finite differences theta - x")
    # Python floats: an overflowing k becomes inf or nan without a numpy warning
    c, lam, eta, k = model.curvature, float(cfg.lam), float(cfg.eta_z), 0.0
    if D.any():  # with every row at theta, z = x whatever k is
        for step in range(1, steps + 1):
            k += eta * (c * (1.0 + k) - lam * k)
            if not math.isfinite(k):
                raise NumericError(f"inner ascent diverged at step {step}", rows=_moving_rows(D))
    return k, D


def quadratic_surrogate(model, theta, X, cfg):
    """The quadratic surrogate per row at the ascent output, without forming z.

    Returns (D, g, objectives): D = theta - X and the scalar g = c * (1 + k),
    so row i's theta-gradient is g * D_i, and the penalized objectives
    (c * (1 + k)^2 - lam * k^2) / 2 * ||D_i||^2. A row whose objective
    overflows raises ``NumericError`` as a divergence of the last step.
    """
    k, D = quadratic_line_ascent(model, theta, X, cfg)
    c, lam = model.curvature, float(cfg.lam)
    weight = 0.5 * (c * (1.0 + k) * (1.0 + k) - lam * k * k)
    if not math.isfinite(weight):
        raise NumericError(f"inner ascent diverged at step {cfg.t_z}", rows=_moving_rows(D))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite objective is refused below
        objectives = weight * np.einsum("ij,ij->i", D, D)
    _check_rows(objectives, f"inner ascent diverged at step {cfg.t_z}")
    return D, c * (1.0 + k), objectives


def _moving_rows(D):
    return np.flatnonzero(D.any(axis=1))


def _check_rows(A, message):
    finite = np.isfinite(A)
    if not finite.all():
        bad = ~finite.reshape(A.shape[0], -1).all(axis=1)
        raise NumericError(message, rows=np.flatnonzero(bad))


def exact_inner_maximizer(model, theta, X, lam):
    """Closed-form maximizer rows for the quadratic family: (lam*x - c*theta)/(lam - c).

    Only the quadratic loss admits a closed form; it is the oracle against
    which the iterative ascent is checked.
    """
    c = _concave_curvature(model, lam)
    X = np.asarray(X, dtype=float)
    return (lam * X - c * theta) / (lam - c)


def exact_quadratic_rows(model, theta, X, lam):
    """The quadratic surrogate per row at the exact inner maximizer, in closed form.

    The maximizer is the end of the ascent line, z* = x + k * (x - theta) with
    k = c / (lam - c). With s = c * lam / (lam - c) = lam * k, row i's
    theta-gradient is s * (theta - x_i), its objective
    s / 2 * ||theta - x_i||^2, and its distance ||z* - x_i|| is the
    gradient's norm over lam. Returns (theta-gradients, objectives).
    """
    c = _concave_curvature(model, lam)
    s = c * lam / (lam - c)
    D = theta - np.asarray(X, dtype=float)
    return s * D, (0.5 * s) * np.einsum("ij,ij->i", D, D)


def _concave_curvature(model, lam):
    if not isinstance(model, QuadraticLoss):
        raise TypeError(f"no closed-form inner maximizer for {model.kind} loss")
    c = model.curvature
    if lam <= c:
        raise RegimeError(f"inner objective not concave: lam={lam} <= curvature={c}")
    return c


def theoretical_ascent_step(lam, l_c=COST_SMOOTHNESS):
    """Step size 2/(L_g + lam_g) for the strongly concave inner objective."""
    return 2.0 / (lam * l_c + lam)


def surrogate_state(model, theta, X, Y, lam, t_z=400, exact=None):
    """Objective value and gradient of the surrogate averaged over a sample set.

    Diagnostic-grade: the quadratic family is evaluated in closed form at the
    exact maximizers (``exact_quadratic_rows``; the default for it), otherwise
    the maximizers come from a ``t_z``-step ascent at the theoretical step
    size, so ``t_z`` applies to the logistic loss (or ``exact=False``) only.
    Returns (value, gradient).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if exact is None:
        exact = isinstance(model, QuadraticLoss)
    if exact:
        grads, objectives = exact_quadratic_rows(model, theta, X, lam)
        return float(objectives.mean()), grads.mean(axis=0)
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

