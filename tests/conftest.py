import numpy as np
import pytest

from robustgd.losses import sigmoid


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
