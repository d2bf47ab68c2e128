"""Loss models: the two families, their Lipschitz constants and the logistic primitives.

Two families are provided: logistic regression cross-entropy (the model used
in the experiments) and an isotropic quadratic ``c/2 * ||theta - z||^2``
whose Lipschitz constants are exact, which makes it the workhorse for
numerical checks of the convergence bounds.

A loss class gives its family's smoothness constants; it evaluates nothing
itself. Every value and gradient the package uses is taken on the line its
inner ascent keeps z on: ``surrogate.line_surrogate`` and
``surrogate.quadratic_surrogate`` (gradients) and
``surrogate.inner_objectives`` (values) at the ascent output, with zero
ascent steps the plain loss and its parameter gradient, and
``surrogate.exact_rows`` at the exact inner maximizer. The logistic ones are built from the
branch-free ``sigmoid`` and the clipped ``cross_entropy`` below, except the
steps of ``surrogate.line_ascent``, which evaluate eta_z * sigmoid(u) in
place as eta_z / (1 + exp(-u)); the test shift works on the logistic
margins (``shift.perturb_test_set``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import require_positive

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


class LogisticLoss:
    """Binary cross-entropy with a = sigmoid(theta . z) and no bias term."""

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

    def __init__(self, curvature=1.0):
        self.curvature = require_positive("curvature", curvature)

    def constants(self, data_bound=0.0, theta_bound=0.0):
        c = self.curvature
        return SmoothnessConstants(l_tt=c, l_tz=c, l_zt=c, l_zz=c, exact=True)
