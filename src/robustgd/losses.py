"""Loss models with gradients in both the parameter and the data argument.

Two families are provided: logistic regression cross-entropy (the model used
in the experiments) and an isotropic quadratic ``c/2 * ||theta - z||^2``
whose Lipschitz constants are exact, which makes it the workhorse for
numerical checks of the convergence bounds.

Every operation is batched: it takes ``Z`` with one sample per row and
``Y`` with one label per sample, and returns one row per sample. A single
sample is a one-row batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class SmoothnessConstants:
    """The four gradient Lipschitz constants of a loss f(theta; z).

    ``exact`` is False when the values are conservative estimates (the
    logistic constants over a norm-bounded domain) rather than tight
    constants; estimated constants must not be used where a check relies
    on exactness.
    """

    l_tt: float
    l_tz: float
    l_zt: float
    l_zz: float
    exact: bool = True

    def __post_init__(self):
        for name in ("l_tt", "l_tz", "l_zt", "l_zz"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def sigmoid(t):
    """Numerically stable logistic function, elementwise.

    With e = exp(-|t|) in [0, 1] this is 1/(1 + e) for t >= 0 and e/(1 + e)
    otherwise; neither branch can overflow, so both are computed and selected
    without masking.
    """
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def cross_entropy(a, Y):
    """Per-sample binary cross-entropy of probabilities ``a`` against labels ``Y``.

    ``a`` is clipped to [PROB_CLAMP, 1 - PROB_CLAMP], so the result is finite.
    """
    a = np.clip(a, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(Y * np.log(a) + (1.0 - Y) * np.log(1.0 - a))


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")


class LogisticLoss:
    """Binary cross-entropy with a = sigmoid(theta . z) and no bias term."""

    kind = "logistic"

    def probabilities(self, theta, Z):
        return sigmoid(Z @ theta)

    def values(self, theta, Z, Y):
        _check_finite("theta", theta)
        _check_finite("Z", Z)
        return cross_entropy(self.probabilities(theta, Z), Y)

    def grads_theta(self, theta, Z, Y):
        a = self.probabilities(theta, Z)
        return (a - Y)[:, None] * Z

    def grads_z(self, theta, Z, Y):
        a = self.probabilities(theta, Z)
        return np.outer(a - Y, theta)

    def mean_grad_theta(self, theta, Z, Y):
        return self.grads_theta(theta, Z, Y).mean(axis=0)

    def constants(self, data_bound, theta_bound):
        """Conservative Lipschitz estimates over ||z|| <= data_bound, ||theta|| <= theta_bound.

        The sigmoid derivative is at most 1/4, so the theta-theta block is
        bounded by data_bound^2 / 4 and the z-z block by theta_bound^2 / 4;
        the cross blocks pick up an extra unit from the first-order term.
        """
        if data_bound < 0 or theta_bound < 0:
            raise ValueError("norm bounds must be nonnegative")
        cross = 1.0 + data_bound * theta_bound / 4.0
        return SmoothnessConstants(
            l_tt=data_bound ** 2 / 4.0,
            l_tz=cross,
            l_zt=cross,
            l_zz=theta_bound ** 2 / 4.0,
            exact=False,
        )


class QuadraticLoss:
    """Isotropic quadratic loss c/2 * ||theta - z||^2; labels are ignored.

    Every Lipschitz constant equals the curvature c exactly, so this family
    drives all checks that need exact constants.
    """

    kind = "quadratic"

    def __init__(self, curvature=1.0):
        if not np.isfinite(curvature) or curvature <= 0:
            raise ValueError(f"curvature must be positive, got {curvature}")
        self.curvature = float(curvature)

    def values(self, theta, Z, Y):
        _check_finite("theta", theta)
        _check_finite("Z", Z)
        diff = theta - Z
        return 0.5 * self.curvature * np.einsum("ij,ij->i", diff, diff)

    def grads_theta(self, theta, Z, Y):
        return self.curvature * (theta - Z)

    def grads_z(self, theta, Z, Y):
        return self.curvature * (Z - theta)

    def mean_grad_theta(self, theta, Z, Y):
        return self.grads_theta(theta, Z, Y).mean(axis=0)

    def constants(self, data_bound=0.0, theta_bound=0.0):
        c = self.curvature
        return SmoothnessConstants(l_tt=c, l_tz=c, l_zt=c, l_zz=c, exact=True)
