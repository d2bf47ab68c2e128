"""Loss models: the two families, their Lipschitz constants and the logistic primitives.

Two families are provided: logistic regression cross-entropy (the model used
in the experiments) and an isotropic quadratic ``c/2 * ||theta - z||^2``
whose Lipschitz constants are exact, which makes it the workhorse for
numerical checks of the convergence bounds.

A loss class gives its family's smoothness constants; it evaluates nothing
itself. Every value and gradient the package uses is taken on the line its
inner ascent keeps z on. At the ascent output, the gradients are formed by
``simulation.worker_reports`` from the line coefficients (the logistic step
loop ``surrogate._line_steps``, the quadratic's one coefficient k from
``surrogate.quadratic_line_ascent``), and the logistic values by
``simulation._objective_sums`` from the same coefficients; with zero ascent
steps they are the plain loss and its parameter gradient. At the exact inner
maximizer they come from ``surrogate.exact_rows``. The logistic ones are
built from the branch-free ``sigmoid`` and the clipped ``cross_entropy``
below, except the steps of ``surrogate._line_steps``, which evaluate
eta_z * sigmoid(u) in place as eta_z / (1 + exp(-u)); the test shift works
on the logistic margins (``shift.ShiftScorer``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import require_positive

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class SmoothnessConstants:
    """The four gradient Lipschitz constants of a loss f(theta; z).

    Only ``QuadraticLoss`` gives exact ones; the logistic constants are
    conservative estimates over a norm-bounded domain, so a check that
    relies on exactness takes the quadratic family only.
    """

    l_tt: float
    l_tz: float
    l_zt: float
    l_zz: float

    def __post_init__(self):
        for name in ("l_tt", "l_tz", "l_zt", "l_zz"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def sigmoid(t, out=None):
    """Numerically stable logistic function, elementwise.

    With e = exp(-|t|) in [0, 1] this is 1/(1 + e) for t >= 0 and e/(1 + e)
    otherwise; neither branch can overflow, so both are computed and selected
    without masking. e, 1 + e and the result share one buffer: ``out`` if
    given (it may be ``t`` itself), else a new array of t's shape.
    """
    t = np.asarray(t, dtype=float)
    positive = t >= 0
    e = np.copysign(t, -1.0, out=np.empty(t.shape) if out is None else out)  # -|t|
    np.exp(e, out=e)
    numerators = np.where(positive, 1.0, e)
    e += 1.0
    return np.divide(numerators, e, out=e)


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
        )


class QuadraticLoss:
    """Isotropic quadratic loss c/2 * ||theta - z||^2; labels are ignored.

    Every Lipschitz constant equals the curvature c exactly, so this family
    drives all checks that need exact constants.
    """

    def __init__(self, curvature=1.0):
        self.curvature = require_positive("curvature", curvature)

    def constants(self):
        c = self.curvature
        return SmoothnessConstants(l_tt=c, l_tz=c, l_zt=c, l_zz=c)
