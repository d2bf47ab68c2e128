"""Worst-case data surrogate: per-sample penalized inner maximization.

For a sample x the surrogate loss is ``sup_z { f(theta; z) - lam * c(z, x) }``
with transport cost ``c(z, x) = ||z - x||^2 / 2``. Workers approximate the
sup by a few gradient-ascent steps started at z = x; the gradient of the
surrogate in theta is then the loss gradient evaluated at the ascent output
(envelope property), which is what the training loop aggregates.

Both loss families keep every ascent iterate, and the maximizer itself, on a
line through x, so the ascent is a scalar recursion and z is never formed
(the WRM surrogate of Sinha, Namkoong & Duchi, ICLR 2018, specialised to
each family):

- The logistic loss sees z only through theta . z, so its z-gradient is a
  multiple of theta and z = x + c * theta with one coefficient per row.
  ``line_ascent`` runs that recursion in place, c <- rho * c +
  eta_z / (1 + exp(-u)) - eta_z * y with rho = 1 - eta_z * lam and
  u = theta . x + c * ||theta||^2; where u is below about -709 the exp
  overflows and eta_z * sigmoid(u) comes out as 0. ``line_surrogate``
  evaluates the surrogate at the ascent output from the margins theta . x
  and the coefficients c alone: theta . z = theta . x + c * ||theta||^2,
  the theta-gradient is r * x + (r * c) * theta with r = sigmoid(theta . z) - y,
  and the transport cost is c^2 * ||theta||^2 / 2.
- The quadratic c/2 * ||theta - z||^2 has z-gradient c * (z - theta), so
  z = x + k * (x - theta) with one coefficient k shared by every row.
  ``quadratic_line_ascent`` runs it; ``quadratic_surrogate`` gives the row
  theta-gradient c * (1 + k) * (theta - x) and the objective
  (c * (1 + k)^2 - lam * k^2) / 2 * ||theta - x||^2.

``exact_rows`` evaluates the surrogate at the exact maximizer for both
families: the fixed point k = c / (lam - c) in closed form for the
quadratic, and for the logistic loss the root of one decreasing scalar
function per row, found by a bracketed Newton solve.

The cost is 1-strongly convex and COST_SMOOTHNESS-smooth, so for
``lam > L_zz`` the inner objective is strongly concave and the ascent
contracts linearly; ``required_iterations`` converts a target accuracy into
an iteration count via the contraction factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, RegimeError
from .losses import QuadraticLoss, SmoothnessConstants, cross_entropy, sigmoid

COST_SMOOTHNESS = 1.0  # c(z, x) = ||z - x||^2 / 2
ROOT_STEPS = 50  # bisection alone reaches ROOT_TOL in 48; Newton took at most 15, at the regime edge
ROOT_TOL = 16 * np.finfo(float).eps  # rounding level of g, whose terms are at most 1


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


def line_ascent(theta, X, Y, cfg, t_z=None):
    """The logistic ascent on the line z = x + c * theta, one coefficient per row.

    grad_z f = (sigmoid(theta . z) - y) * theta, so each of the ``t_z`` steps
    (default cfg.t_z) is c <- c + eta_z * ((sigmoid(u) - y) - lam * c) from
    c = 0, with u = theta . x + c * ||theta||^2. It runs in place as
    c <- rho * c + eta_z / (1 + exp(-u)) - eta_z * y with rho = 1 - eta_z * lam;
    for u below about -709 the exp overflows and the middle term is 0, where
    the true value is under eta_z * 1e-308. Returns (margins X @ theta, c,
    ||theta||^2). A non-finite theta, ||theta||^2, margin or coefficient
    raises ``NumericError``; its ``rows`` holds the offending rows when there
    are any.
    """
    steps = cfg.t_z if t_z is None else t_z
    margins, sq_norm = _margins(theta, X)
    eta, rho = cfg.eta_z, 1.0 - cfg.eta_z * cfg.lam
    neg_margins, eta_y = -margins, eta * np.asarray(Y, dtype=float)
    c = np.zeros(margins.shape[0])
    v = np.empty_like(c)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence handled below
        for k in range(steps):
            np.multiply(c, sq_norm, out=v)
            np.subtract(neg_margins, v, out=v)  # -u
            np.exp(v, out=v)
            v += 1.0
            np.divide(eta, v, out=v)  # eta_z * sigmoid(u)
            c *= rho
            c += v
            c -= eta_y
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
    r, objectives = _line_rows(margins, c, sq_norm, Y, cfg.lam)
    _check_rows(objectives, f"inner ascent diverged at step {cfg.t_z}")
    return r, c, objectives


def _margins(theta, X):
    """(X @ theta, ||theta||^2), refusing a non-finite theta, norm or margin."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite values in theta")
    with np.errstate(over="ignore"):  # overflow is refused below
        sq_norm = theta @ theta
        margins = np.asarray(X, dtype=float) @ theta
    if not np.isfinite(sq_norm):
        raise NumericError("||theta||^2 overflows")
    _check_rows(margins, "non-finite margins theta . x")
    return margins, sq_norm


def _line_rows(margins, c, sq_norm, Y, lam):
    """(r, penalized objectives) of the logistic rows at z = x + c * theta."""
    with np.errstate(over="ignore", invalid="ignore"):  # line_surrogate refuses a diverged row
        a = sigmoid(margins + c * sq_norm)
        objectives = cross_entropy(a, Y) - lam * (0.5 * (c * c) * sq_norm)
    return a - Y, objectives


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


def exact_rows(model, theta, X, Y, lam):
    """The surrogate per row at the exact inner maximizer z*, without forming z*.

    Returns (theta-gradients, penalized objectives, line coefficients of z*).
    For the quadratic family ``theta`` may also be a (B, d) block of iterates:
    D = theta[:, None, :] - X broadcasts over the leading axis, so the
    gradients are (B, n, d) and the objectives (B, n), each iterate's slice
    bit-equal to a call with that iterate alone. The gradients are the one
    (B, n, d) array it allocates, so the caller bounds B (``with_diagnostics``
    caps it at DIAGNOSTIC_BLOCK_ELEMENTS floats). The maximizer is the end
    of the ascent line:

    - quadratic: z* = x + k * (x - theta) with k = c / (lam - c) for every row.
      With s = c * lam / (lam - c) = lam * k, row i's theta-gradient is
      s * (theta - x_i), its objective s / 2 * ||theta - x_i||^2, and its
      distance ||z* - x_i|| is the gradient's norm over lam.
    - logistic: z* = x + c * theta with c the root of
      g(c) = sigmoid(theta . x + c * ||theta||^2) - y - lam * c; the rows are
      r * x + (r * c) * theta and the objectives of ``line_surrogate``.

    Outside the strongly concave regime (lam <= c for the quadratic,
    lam <= ||theta||^2 / 4 for the logistic loss) raises ``RegimeError``.
    """
    X = np.asarray(X, dtype=float)
    if isinstance(model, QuadraticLoss):
        c = model.curvature
        if lam <= c:
            raise RegimeError(f"inner objective not concave: lam={lam} <= curvature={c}")
        s = c * lam / (lam - c)
        D = np.asarray(theta, dtype=float)[..., None, :] - X
        objectives = (0.5 * s) * np.einsum("...ij,...ij->...i", D, D)
        D *= s  # the gradients, in place: no second (B, n, d) array
        return D, objectives, c / (lam - c)
    Y = np.asarray(Y, dtype=float)
    margins, sq_norm = _margins(theta, X)
    if lam <= sq_norm / 4.0:
        raise RegimeError(
            f"inner objective not concave: lam={lam} <= ||theta||^2/4={sq_norm / 4.0}"
        )
    c = _logistic_root(margins, sq_norm, Y, lam)
    r, objectives = _line_rows(margins, c, sq_norm, Y, lam)
    return r[:, None] * X + np.outer(r * c, theta), objectives, c


def _logistic_root(margins, sq_norm, Y, lam):
    """The root c of g(c) = sigmoid(margin + c * ||theta||^2) - y - lam * c, per row.

    For lam > ||theta||^2 / 4, g' = ||theta||^2 * a * (1 - a) - lam < 0, and
    g changes sign on [-y / lam, (1 - y) / lam], so each row has one root
    there. Each step shrinks the row's bracket to the sign change and takes
    the Newton point when it lies in the closed bracket, else the midpoint;
    the ends count because a saturated margin puts the root within rounding
    of one. A residual still above ROOT_TOL after ROOT_STEPS steps raises
    ``NumericError``.
    """
    lo, hi = -Y / lam, (1.0 - Y) / lam
    c = np.zeros_like(margins)
    for _ in range(ROOT_STEPS):
        a = sigmoid(margins + c * sq_norm)
        g = a - Y - lam * c
        if np.all(np.abs(g) <= ROOT_TOL):
            return c
        lo, hi = np.where(g > 0.0, c, lo), np.where(g > 0.0, hi, c)
        newton = c - g / (sq_norm * a * (1.0 - a) - lam)
        c = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
    raise NumericError(f"inner maximizer not found in {ROOT_STEPS} steps",
                       rows=np.flatnonzero(np.abs(g) > ROOT_TOL))


def theoretical_ascent_step(lam, l_c=COST_SMOOTHNESS):
    """Step size 2/(L_g + lam_g) for the strongly concave inner objective."""
    return 2.0 / (lam * l_c + lam)


def surrogate_state(model, theta, X, Y, lam):
    """Objective value and gradient of the surrogate averaged over a sample set.

    Evaluated at the exact inner maximizers (``exact_rows``). Returns
    (value, gradient).
    """
    grads, objectives, _ = exact_rows(model, theta, X, Y, lam)
    return float(objectives.mean()), grads.mean(axis=0)


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

