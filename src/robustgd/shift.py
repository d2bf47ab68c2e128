"""Test-time distributional shift: norm-bounded adversarial feature perturbation.

Each test feature vector moves inside an L1 or L2 ball of radius q around the
original point to maximize the cross-entropy loss of a fixed trained model;
labels are untouched. The model is linear in z, and the loss of a row falls
with its margin s * theta . z (s = 2y - 1), so the worst point in the ball
lowers every margin by exactly q * ||theta||_*, the dual norm of the ball:
x - s * q * sign(theta_j) * e_j with j = argmax |theta_j| for L1 (the lowest
such index on ties) and x - s * q * theta / ||theta|| for L2 (the linear case
of Goodfellow, Shlens & Szegedy, ICLR 2015). A larger budget lowers every
margin further, so misclassification is non-decreasing in q.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

L1 = "l1"
L2 = "l2"


@dataclass(frozen=True)
class ShiftSpec:
    norm: str = L2
    budget: float = 0.0

    def __post_init__(self):
        if self.norm not in (L1, L2):
            raise ConfigError(f"norm must be {L1!r} or {L2!r}, got {self.norm!r}")
        if not (isinstance(self.budget, numbers.Real) and not isinstance(self.budget, bool)
                and math.isfinite(self.budget) and self.budget >= 0):
            raise ConfigError(f"budget must be finite and >= 0, got {self.budget!r}")


def _checked(theta, X, Y):
    """theta, X and Y as float arrays: X of shape (n, theta.size), labels (n,) in {0, 1}."""
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if theta.ndim != 1 or X.ndim != 2 or X.shape[1] != theta.size:
        raise ShapeError(f"need X of shape (n, {theta.size}) for theta of shape "
                         f"{theta.shape}, got X of shape {X.shape}")
    if Y.shape != (X.shape[0],):
        raise ShapeError(f"need one label per row of X, shape ({X.shape[0]},), got {Y.shape}")
    if not np.isin(Y, (0.0, 1.0)).all():
        raise ConfigError("labels must be 0 or 1")
    return theta, X, Y


def perturb_test_set(theta, X, Y, spec: ShiftSpec):
    """The loss-maximizing point of the budget ball around each row of X.

    Returns a new feature matrix; with theta = 0 or a zero budget every row
    stays where it is. A non-finite theta or output row raises ``NumericError``.
    """
    theta, X, Y = _checked(theta, X, Y)
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite values in theta")
    Z = X.copy()
    scale = np.abs(theta).max(initial=0.0)
    if spec.budget == 0.0 or scale == 0.0:
        return Z
    s = 2.0 * Y - 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are refused below
        if spec.norm == L1:
            j = int(np.argmax(np.abs(theta)))
            Z[:, j] -= s * (spec.budget * np.sign(theta[j]))
        else:
            unit = theta / scale  # ||theta|| itself may overflow
            Z -= np.outer(s, spec.budget * (unit / np.linalg.norm(unit)))
    if not np.all(np.isfinite(Z)):
        raise NumericError("shifted features are non-finite")
    return Z


def misclassification_rate(theta, X, Y):
    """Fraction of samples whose thresholded prediction disagrees with the label.

    The decision rule predicts 1 when sigmoid(theta . x) >= 1/2, i.e. when the
    logit is nonnegative; the boundary case counts as predicting 1. A logit
    that overflows to +-inf keeps its sign; a NaN logit (inf - inf, or a
    non-finite input) has none and raises ``NumericError`` naming its rows.
    """
    theta, X, Y = _checked(theta, X, Y)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN logits are refused below
        logits = X @ theta
    nan_rows = np.flatnonzero(np.isnan(logits))
    if nan_rows.size:
        raise NumericError(f"logits theta . x are NaN in {nan_rows.size} rows", rows=nan_rows)
    predictions = (logits >= 0.0).astype(int)
    return float(np.mean(predictions != Y.astype(int)))
