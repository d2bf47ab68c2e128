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

A ``ShiftScorer`` scores one model on one test set at many budgets: it
checks theta, X and Y once, takes the clean rate once, and writes each
budget's rows into the ``ShiftBuffer`` it reads X from, which the models of
one test set share; an L1 budget rewrites only the moved column.
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


ALL_COLUMNS = -1  # ShiftBuffer.moved after an L2 shift


class ShiftBuffer:
    """One reused matrix for shifted copies of a test set X, and which of its columns moved.

    The matrix is made at the first shift. ``moved`` is then the column the
    last L1 shift rewrote, or ``ALL_COLUMNS`` after an L2 shift, so an L1
    shift restores only what differs from X before it rewrites its column.
    """

    def __init__(self, X):
        self.X = np.asarray(X, dtype=float)
        self.rows = None
        self.moved = None

    def l1(self, j, offsets):
        """The rows of X with column j set to X[:, j] - offsets."""
        if self.rows is None:
            self.rows = self.X.copy()
        elif self.moved == ALL_COLUMNS:
            np.copyto(self.rows, self.X)
        elif self.moved != j:
            self.rows[:, self.moved] = self.X[:, self.moved]
        np.subtract(self.X[:, j], offsets, out=self.rows[:, j])
        self.moved = j
        return self.rows

    def l2(self, signs, step):
        """The rows X - outer(signs, step)."""
        if self.rows is None:
            self.rows = np.empty(self.X.shape)
        np.multiply.outer(signs, step, out=self.rows)
        np.subtract(self.X, self.rows, out=self.rows)
        self.moved = ALL_COLUMNS
        return self.rows


class ShiftScorer:
    """One model's misclassification on one test set, clean and under any budget ball.

    X is ``buffer.X``, the test set of a ``ShiftBuffer`` that the models of
    one test set share. theta, X and Y are checked once, when it is built,
    and the clean rate is taken once. Each shift is written into the buffer:
    an L1 shift rewrites only its moved column, ``X[:, j] - s * (q * sign(theta_j))``,
    and an L2 shift subtracts into the buffer, the same operations as an
    update of a copy of X, so the bits are equal.
    """

    def __init__(self, theta, buffer, Y):
        theta, X, Y = _checked(theta, buffer.X, Y)
        if not np.all(np.isfinite(theta)):
            raise NumericError("non-finite values in theta")
        self.theta, self.X, self.Y, self.buffer = theta, X, Y, buffer
        self.scale = np.abs(theta).max(initial=0.0)
        self._labels, self._signs = Y.astype(int), 2.0 * Y - 1.0
        self._finite_x = bool(np.isfinite(X).all())
        self._clean = None

    def shifted(self, spec: ShiftSpec):
        """The loss-maximizing point of the budget ball around each row of X.

        X itself under a zero budget or theta = 0, where every row stays where
        it is, else the buffer. Non-finite shifted rows raise ``NumericError``.
        """
        if spec.budget == 0.0 or self.scale == 0.0:
            return self.X
        theta = self.theta
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are refused below
            if spec.norm == L1:
                j = int(np.argmax(np.abs(theta)))
                Z = self.buffer.l1(j, self._signs * (spec.budget * np.sign(theta[j])))
                # the other columns are X's
                finite = self._finite_x and np.isfinite(Z[:, j]).all()
            else:
                unit = theta / self.scale  # ||theta|| itself may overflow
                Z = self.buffer.l2(self._signs, spec.budget * (unit / np.linalg.norm(unit)))
                finite = np.isfinite(Z).all()
        if not finite:
            raise NumericError("shifted features are non-finite")
        return Z

    def clean_rate(self):
        """``misclassification_rate`` on X, taken at the first call."""
        if self._clean is None:
            self._clean = misclassification_rate(self.theta, self.X, self.Y)
        return self._clean

    def rate(self, features):
        """``misclassification_rate`` on rows of X's shape, such as ``shifted`` returns."""
        return _rate(self.theta, features, self._labels)


def misclassification_rate(theta, X, Y):
    """Fraction of samples whose thresholded prediction disagrees with the label.

    The decision rule predicts 1 when sigmoid(theta . x) >= 1/2, i.e. when the
    logit is nonnegative; the boundary case counts as predicting 1. A logit
    that overflows to +-inf keeps its sign; a NaN logit (inf - inf, or a
    non-finite input) has none and raises ``NumericError`` naming its rows.
    """
    theta, X, Y = _checked(theta, X, Y)
    return _rate(theta, X, Y.astype(int))


def _rate(theta, X, labels):
    with np.errstate(over="ignore", invalid="ignore"):  # NaN logits are refused below
        logits = X @ theta
    nan_rows = np.flatnonzero(np.isnan(logits))
    if nan_rows.size:
        raise NumericError(f"logits theta . x are NaN in {nan_rows.size} rows", rows=nan_rows)
    predictions = (logits >= 0.0).astype(int)
    return float(np.mean(predictions != labels))
