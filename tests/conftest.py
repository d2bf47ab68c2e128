from dataclasses import replace

import numpy as np
import pytest

from robustgd.errors import RegimeError
from robustgd import verify
from robustgd.losses import LogisticLoss, cross_entropy, sigmoid
from robustgd.surrogate import line_ascent, quadratic_line_ascent


def central_difference(f, x, h=1e-6):
    """Independent gradient oracle: central differences coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def logistic_grads_z(theta, Z, Y):
    """Per-row gradient of the logistic cross-entropy in the data argument."""
    return np.outer(sigmoid(Z @ theta) - Y, theta)


def quadratic_grads_z(theta, Z, Y, curvature=1.0):
    """Per-row gradient of the quadratic loss c/2 * ||theta - z||^2 in the data argument."""
    return curvature * (Z - theta)


def rowwise_ascent(grads_z, theta, X, Y, cfg, t_z):
    """The inner ascent row by row in z, the reference for the line paths.

    ``grads_z(theta, Z, Y)`` is the loss gradient in the data argument.
    """
    Z = np.array(X, dtype=float)
    for _ in range(t_z):
        Z += cfg.eta_z * (grads_z(theta, Z, Y) - cfg.lam * (Z - X))
    return Z


def logistic_line_steps(theta, X, Y, cfg, t_z):
    """Every coefficient of the logistic line ascent, by the plain update.

    Row k is c after k steps of c += eta_z * ((sigmoid(u) - y) - lam * c) with
    u = theta . x + c * ||theta||^2, from c = 0: the reference for
    ``line_ascent``. Overflow runs on into inf and nan, so a diverging row
    stays non-finite from its first non-finite step on.
    """
    theta = np.asarray(theta, dtype=float)
    margins, sq_norm = np.asarray(X, dtype=float) @ theta, theta @ theta
    Y = np.asarray(Y, dtype=float)
    steps = [np.zeros(margins.shape[0])]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(t_z):
            c = steps[-1]
            steps.append(c + cfg.eta_z * ((sigmoid(margins + c * sq_norm) - Y) - cfg.lam * c))
    return np.array(steps)


def loss_values(model, theta, Z, Y):
    """Per-row loss f(theta; z) at explicit rows Z, for either family."""
    if isinstance(model, LogisticLoss):
        return cross_entropy(sigmoid(Z @ theta), Y)
    diff = theta - Z
    return 0.5 * model.curvature * np.einsum("ij,ij->i", diff, diff)


def loss_grads_theta(model, theta, Z, Y):
    """Per-row gradient of the loss in the parameter at explicit rows Z."""
    if isinstance(model, LogisticLoss):
        return (sigmoid(Z @ theta) - Y)[:, None] * Z
    return model.curvature * (theta - Z)


def penalized_objectives(model, theta, Z, Y, X, lam):
    """Per-row inner objective f(theta; z) - lam * ||z - x||^2 / 2."""
    diff = Z - X
    return loss_values(model, theta, Z, Y) - lam * 0.5 * np.einsum("ij,ij->i", diff, diff)


def ascent_rows(model, theta, X, Y, cfg, t_z=None):
    """The ascent output z, built from the line coefficients the package ships.

    z = x + c * theta for the logistic loss, z = x - k * (theta - x) for the
    quadratic; ``t_z`` overrides cfg.t_z.
    """
    cfg = cfg if t_z is None else replace(cfg, t_z=t_z)
    X = np.asarray(X, dtype=float)
    if isinstance(model, LogisticLoss):
        _, c, _ = line_ascent(theta, X, Y, cfg)
        return X + c[:, None] * theta
    k, D = quadratic_line_ascent(model, theta, X, cfg)
    return X - k * D


def quadratic_run(seed, iterations, attack_kind="aggressive"):
    """The run of ``verify._quadratic_runs`` for one seed, trained alone.

    Returns its (model, X, Y, trace, theory inputs).
    """
    return verify._quadratic_runs({(seed, attack_kind): iterations})[seed, attack_kind]


def exact_inner_maximizer(model, theta, X, lam):
    """Closed-form maximizer rows for the quadratic family: (lam*x - c*theta)/(lam - c)."""
    c = model.curvature
    if lam <= c:
        raise RegimeError(f"inner objective not concave: lam={lam} <= curvature={c}")
    return (lam * np.asarray(X, dtype=float) - c * theta) / (lam - c)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
