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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
