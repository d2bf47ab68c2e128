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
  One step loop runs that recursion in place (``_line_steps``), and
  ``line_ascent`` checks the coefficients once, after the last step. It
  returns the margins theta . x, the coefficients c and ||theta||^2, from
  which the theta-gradient at the ascent output follows:
  theta . z = theta . x + c * ||theta||^2, and the gradient is
  r * x + (r * c) * theta with r = sigmoid(theta . z) - y. With zero steps
  (t_z = 0, the ``nbs_only`` and ``erm`` variants) c = 0 is returned
  without the step setup or its check. The training round does not call
  ``line_ascent``: ``simulation.ReportPlan`` sets up eta_z * y, rho and the
  buffers once per batch, and each round runs ``_margins`` and
  ``_line_steps`` into them over the whole (R, k * n, d) block of every
  honest worker of every run.
- The quadratic c/2 * ||theta - z||^2 has z-gradient c * (z - theta), so
  z = x + k * (x - theta) with one coefficient k shared by every row.
  ``quadratic_line_ascent`` runs it, and the row theta-gradient is
  c * (1 + k) * (theta - x).

The training round needs only the gradients. The logistic penalized inner
objective at the ascent output, f(theta; z) - lam * ||z - x||^2 / 2, comes
from its own call (``inner_objectives``, which runs the same ascent): the
cross-entropy at theta . z minus lam * c^2 * ||theta||^2 / 2, the plain
cross-entropy at t_z = 0. It backs the record's final objective estimate,
which only the experiments' logistic runs take, and a round's refusal of a
penalty that overflows the objective, which it runs only when the largest
coefficient puts a penalty above a cap.

Over a leading run axis, or a block of iterates, every product is the
stacked form of the iterate's own (a (1, d) @ (d, 1) dot for ||theta||^2,
an (N, d) @ (d, 1) product for the margins), so each iterate's values are
bit-equal to a call with it alone, and a ``NumericError``'s ``rows`` index
the rows of all iterates in order.

``exact_rows`` evaluates the surrogate at the exact maximizer for both
families, at one iterate or a (B, d) block of them: the fixed point
k = c / (lam - c) in closed form for the quadratic, and for the logistic
loss the root of one decreasing scalar function per row, found by a
bracketed Newton solve that stops each iterate once its rows converge.

The cost is 1-strongly convex and COST_SMOOTHNESS-smooth, so for
``lam > L_zz`` the inner objective is strongly concave and the ascent
contracts linearly; ``required_iterations`` converts a target accuracy into
an iteration count via the contraction factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, RegimeError
from .errors import require_count, require_positive
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
        for name in ("lam", "eta_z"):  # stored as floats
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))
        object.__setattr__(self, "t_z", require_count("t_z", self.t_z, 0))  # stored as an int


def line_ascent(theta, X, Y, cfg):
    """The logistic ascent on the line z = x + c * theta, one coefficient per row.

    grad_z f = (sigmoid(theta . z) - y) * theta, so each of the cfg.t_z steps
    is c <- c + eta_z * ((sigmoid(u) - y) - lam * c) from
    c = 0, with u = theta . x + c * ||theta||^2 (``_line_steps``). Returns
    (margins X @ theta, c, ||theta||^2); with cfg.t_z = 0, c = 0 without a
    step or a check. A non-finite theta, ||theta||^2, margin or coefficient
    raises ``NumericError``; its ``rows`` holds the offending rows when there
    are any. The coefficients are checked once, after the last step: a
    non-finite c stays non-finite under the update (inf times rho, or plus a
    finite term, is inf or nan), so only then does the ascent rerun from
    c = 0, checking every step, to name the first diverging step and its rows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the checks
        margins, sq_norm = _margins(theta, X)
        c = np.zeros(margins.shape)
        if cfg.t_z == 0:  # no step: z = x
            return margins, c, sq_norm
        steps = (c, np.empty_like(c), -margins, sq_norm, cfg.eta_z * np.asarray(Y, dtype=float),
                 cfg.eta_z, 1.0 - cfg.eta_z * cfg.lam, cfg.t_z)
        _line_steps(*steps)
        if not np.isfinite(c).all():
            _line_steps(*steps, check=True)  # raises at the first diverging step
    return margins, c, sq_norm


def _line_steps(c, v, neg_margins, sq_norm, eta_y, eta, rho, t_z, check=False):
    """Write into ``c`` the coefficients after ``t_z`` in-place line steps from c = 0.

    Each step is c <- rho * c + eta / (1 + exp(-u)) - eta_y with
    u = theta . x + c * ||theta||^2, rho = 1 - eta_z * lam and eta_y = eta_z * y;
    for u below about -709 the exp overflows and the middle term is 0, where
    the true value is under eta_z * 1e-308. ``c`` is overwritten and ``v`` is
    scratch of its shape; ``check`` refuses a non-finite c at every step.
    The caller ignores numpy's overflow and invalid warnings.
    """
    c.fill(0.0)
    for k in range(1, t_z + 1):
        np.multiply(c, sq_norm, out=v)
        np.subtract(neg_margins, v, out=v)  # -u
        np.exp(v, out=v)
        v += 1.0
        np.divide(eta, v, out=v)  # eta_z * sigmoid(u)
        c *= rho
        c += v
        c -= eta_y
        if check:
            _check_rows(c, f"inner ascent diverged at step {k}")


def inner_objectives(theta, X, Y, cfg):
    """The logistic penalized inner objective per row at the ascent output, without forming z.

    f(theta; z) - lam * ||z - x||^2 / 2 after the cfg.t_z ascent steps of
    ``line_ascent``, for ``theta`` and ``X`` as it takes them:
    cross_entropy(sigmoid(theta . z), y) - lam * c^2 * ||theta||^2 / 2, whose
    c terms are exactly zero at cfg.t_z = 0, so the plain cross-entropy's
    bits. A row whose objective overflows raises ``NumericError`` as a
    divergence of the last step.
    """
    Y = np.asarray(Y, dtype=float)
    margins, c, sq_norm = line_ascent(theta, X, Y, cfg)
    _, objectives = _line_rows(margins, c, sq_norm, Y, cfg.lam)
    _check_rows(objectives, f"inner ascent diverged at step {cfg.t_z}")
    return objectives


def _margins(theta, X, out=None):
    """(X @ theta, ||theta||^2), refusing a non-finite theta, norm or margin.

    ``theta`` is one (d,) iterate or a (B, d) block against (N, d) rows, or
    one iterate per run, (R, d) against (R, N, d) rows. Each iterate's
    products are the stacked (1, d) @ (d, 1) dot and (N, d) @ (d, 1) margins,
    so its values are bit-equal to a call with it alone; the margins are
    (..., N), written into ``out`` if given, of shape (..., N, 1), and the
    squared norms are (..., 1). theta . theta is finite only if every theta_i
    is, so one check on it covers both; only a failed one looks at theta to
    tell which. The caller ignores numpy's overflow and invalid warnings.
    """
    theta, X = np.asarray(theta, dtype=float), np.asarray(X, dtype=float)
    column = theta[..., :, None]
    sq_norm = (theta[..., None, :] @ column)[..., 0]
    margins = np.matmul(X, column, out=out)[..., 0]
    if not np.isfinite(sq_norm).all():
        _check_iterates(theta, "non-finite values in theta", X)
        _check_iterates(sq_norm, "||theta||^2 overflows", X)
    _check_rows(margins, "non-finite margins theta . x")
    return margins, sq_norm


def _line_rows(margins, c, sq_norm, Y, lam):
    """(r, penalized objectives) of the logistic rows at z = x + c * theta."""
    with np.errstate(over="ignore", invalid="ignore"):  # inner_objectives refuses a diverged row
        a = sigmoid(margins + c * sq_norm)
        objectives = cross_entropy(a, Y) - lam * (0.5 * (c * c) * sq_norm)
    return a - Y, objectives


def quadratic_line_ascent(model, theta, X, cfg):
    """The quadratic ascent on the line z = x + k * (x - theta), one coefficient for all rows.

    grad_z f = c * (z - theta), so each of the cfg.t_z steps is
    k <- k + eta_z * (c * (1 + k) - lam * k) from k = 0. Returns
    (k, D) with D = theta - X, so z = x - k * D. ``theta`` may be one
    iterate per run, (R, d) against (R, N, d) rows; k depends on none of them,
    so it is shared. A non-finite theta or row of D raises ``NumericError``,
    as does a diverging k; rows at x = theta never move, so only the other
    rows are named.
    """
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    _check_iterates(theta, "non-finite values in theta", X)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        D = theta[..., None, :] - X
    _check_rows(D, "non-finite differences theta - x", vectors=True)
    # Python floats: an overflowing k becomes inf or nan without a numpy warning
    c, lam, eta, k = model.curvature, float(cfg.lam), float(cfg.eta_z), 0.0
    if D.any():  # with every row at theta, z = x whatever k is
        for step in range(1, cfg.t_z + 1):
            k += eta * (c * (1.0 + k) - lam * k)
            if not math.isfinite(k):
                raise NumericError(f"inner ascent diverged at step {step}",
                                   rows=np.flatnonzero(D.any(axis=-1)))
    return k, D


def _check_rows(A, message, vectors=False):
    """Refuse a non-finite entry of ``A``, naming the rows that hold one.

    A row is one entry of ``A``, or one last-axis vector if ``vectors``;
    ``rows`` are flat indices, so over a leading run axis they count the
    rows of every run before.
    """
    finite = np.isfinite(A)
    if not finite.all():
        bad = ~(finite.all(axis=-1) if vectors else finite)
        raise NumericError(message, rows=np.flatnonzero(bad))


def _check_iterates(A, message, X):
    """Refuse a non-finite value of an iterate, which hits every row of its run.

    ``A`` belongs to one iterate (it is below 2-d, and the error has no
    ``rows``) or holds one row per iterate, and then ``rows`` are the first
    rows of the failing iterates among their N rows each, in order.
    """
    finite = np.isfinite(A)
    if not finite.all():
        rows = None if np.ndim(A) < 2 else np.flatnonzero(~finite.all(axis=-1)) * X.shape[-2]
        raise NumericError(message, rows=rows)


def exact_rows(model, theta, X, Y, lam):
    """The surrogate per row at the exact inner maximizer z*, without forming z*.

    Returns (theta-gradients, penalized objectives, line coefficients of z*).
    ``theta`` is one (d,) iterate or a (B, d) block against the same (n, d)
    rows, giving (B, n, d) gradients and (B, n) objectives, each iterate's
    bit-equal to a call with it alone. The gradients are the one such array
    it allocates, so the caller bounds B (``with_diagnostics`` caps it at
    DIAGNOSTIC_BLOCK_ELEMENTS floats). For the quadratic family they are
    laid out row-major, (n, B, d) in memory and handed back as its
    (B, n, d) view, so a mean over the n rows adds B * d contiguous floats
    per row (the same bits as adding each iterate's d); the objectives stay
    a C-ordered (B, n) array, so a mean over n sums each iterate's pairwise,
    as alone. The maximizer is the end of the ascent line:

    - quadratic: z* = x + k * (x - theta) with k = c / (lam - c) for every row.
      With s = c * lam / (lam - c) = lam * k, row i's theta-gradient is
      s * (theta - x_i), its objective s / 2 * ||theta - x_i||^2, and its
      distance ||z* - x_i|| is the gradient's norm over lam.
    - logistic: z* = x + c * theta with c the root of
      g(c) = sigmoid(theta . x + c * ||theta||^2) - y - lam * c; the rows are
      r * x + (r * c) * theta and the objectives those of ``inner_objectives``.

    Outside the strongly concave regime (lam <= c for the quadratic,
    lam <= ||theta||^2 / 4 for the logistic loss) raises ``RegimeError``
    whose ``iterate`` is the block's first iterate outside it. A non-finite
    iterate raises ``NumericError`` for both families; for a block, its
    ``rows`` are the first rows of the failing iterates.
    """
    theta, X = np.asarray(theta, dtype=float), np.asarray(X, dtype=float)
    if isinstance(model, QuadraticLoss):
        _check_iterates(theta, "non-finite values in theta", X)
        c = model.curvature
        if lam <= c:
            raise RegimeError(f"inner objective not concave: lam={lam} <= curvature={c}",
                              iterate=0)
        s = c * lam / (lam - c)
        # (n, B, d) memory, handed back as its (B, n, d) view: a mean over the
        # n rows adds runs of B * d floats, with the same bits as runs of d
        D = np.moveaxis(theta - X.reshape(len(X), *[1] * (theta.ndim - 1), -1), 0, -2)
        # C-ordered (B, n), so that a mean over n sums each iterate's row pairwise
        objectives = np.einsum("...ij,...ij->...i", D, D, order="C")
        objectives *= 0.5 * s
        D *= s  # the gradients, in place: no second (B, n, d) array
        return D, objectives, c / (lam - c)
    Y = np.asarray(Y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _margins
        margins, sq_norm = _margins(theta, X)
    outside = np.flatnonzero(lam <= sq_norm / 4.0)  # one entry per iterate
    if outside.size:
        first = int(outside[0])
        raise RegimeError(f"inner objective not concave: lam={lam} <= "
                          f"||theta||^2/4={sq_norm.flat[first] / 4.0}", iterate=first)
    c = _logistic_root(margins, sq_norm, Y, lam)
    r, objectives = _line_rows(margins, c, sq_norm, Y, lam)
    return r[..., None] * X + (r * c)[..., None] * theta[..., None, :], objectives, c


def _logistic_root(margins, sq_norm, Y, lam):
    """The root c of g(c) = sigmoid(margin + c * ||theta||^2) - y - lam * c, per row.

    For lam > ||theta||^2 / 4, g' = ||theta||^2 * a * (1 - a) - lam < 0, and
    g changes sign on [-y / lam, (1 - y) / lam], so each row has one root
    there. Each step shrinks the row's bracket to the sign change and takes
    the Newton point when it lies in the closed bracket, else the midpoint;
    the ends count because a saturated margin puts the root within rounding
    of one. A residual still above ROOT_TOL after ROOT_STEPS steps raises
    ``NumericError``. The margins may be a (B, n) block of iterates with
    (B, 1) squared norms: an iterate stops once all its residuals are within
    ROOT_TOL, so its roots are bit-equal to solving it alone.
    """
    lo, hi = -Y / lam, (1.0 - Y) / lam
    c = np.zeros_like(margins)
    for _ in range(ROOT_STEPS):
        a = sigmoid(margins + c * sq_norm)
        g = a - Y - lam * c
        done = (np.abs(g) <= ROOT_TOL).all(axis=-1, keepdims=True)  # one per iterate
        if done.all():
            return c
        lo, hi = np.where(g > 0.0, c, lo), np.where(g > 0.0, hi, c)
        newton = c - g / (sq_norm * a * (1.0 - a) - lam)
        step = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        c = np.where(done, c, step) if done.any() else step  # a done iterate keeps its roots
    raise NumericError(f"inner maximizer not found in {ROOT_STEPS} steps",
                       rows=np.flatnonzero(np.abs(g) > ROOT_TOL))


def theoretical_ascent_step(lam):
    """Step size 2/(L_g + lam_g) for the strongly concave inner objective."""
    return 2.0 / (lam * COST_SMOOTHNESS + lam)


def surrogate_state(model, theta, X, Y, lam):
    """Objective value and gradient of the surrogate averaged over a sample set.

    Evaluated at the exact inner maximizers (``exact_rows``). Returns
    (value, gradient).
    """
    grads, objectives, _ = exact_rows(model, theta, X, Y, lam)
    return float(objectives.mean()), grads.mean(axis=0)


def contraction_factor(l_zz, lam):
    """Per-iteration distance contraction of the inner ascent at the theoretical step."""
    return (2.0 * l_zz + lam * COST_SMOOTHNESS - lam) / (lam * COST_SMOOTHNESS + lam)


def required_iterations(constants: SmoothnessConstants, lam, eps, d_z):
    """Iterations needed to bring the ascent within eps of the exact maximizer.

    Returns (iterations, p) with p the contraction factor; the count is
    ceil(ln(d_z/eps) / ln(1/p)) for an ascent started at distance d_z.
    """
    if lam <= constants.l_zz:
        raise RegimeError(f"need lam > L_zz, got lam={lam}, L_zz={constants.l_zz}")
    if eps <= 0 or d_z <= 0:
        raise ConfigError("eps and d_z must be positive")
    p = contraction_factor(constants.l_zz, lam)
    if not 0.0 < p < 1.0:
        raise RegimeError(f"contraction factor {p} outside (0, 1)")
    ratio = math.log(d_z / eps) / math.log(1.0 / p)
    # tiny slack so exact-power cases are not bumped up by float rounding
    return max(0, math.ceil(ratio - 1e-9)), p

