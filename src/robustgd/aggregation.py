"""Norm-based screening: drop the largest-norm inputs, average the rest.

Screening bounds the influence of any single corrupted input: a gradient
either gets dropped for its conspicuous norm or survives with a norm no
larger than some honest input's. The deviation of the screened mean from
any reference vector S is bounded by ``2*alpha/(1-beta) * ||S|| + Delta``
where alpha is the corrupted fraction, beta the screened fraction, and
Delta the worst honest distance to S; ``screening_deviation_bound`` computes
the bound and ``check_screening_bound`` tests it against the actual output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RegimeError, ShapeError


class GradientSet:
    """A batch of m same-dimension vectors, stored one per row."""

    def __init__(self, vectors):
        """Take an (m, d) matrix, or a list of m equal-length vectors."""
        try:
            matrix = np.asarray(vectors, dtype=float)
        except ValueError as exc:  # ragged input
            raise ShapeError(f"inputs must be vectors of one dimension: {exc}") from exc
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ShapeError(f"expected a 2-d (m, d) matrix, got shape {matrix.shape}")
        self.matrix = matrix
        self._norms = None

    @property
    def m(self):
        return self.matrix.shape[0]

    @property
    def dim(self):
        return self.matrix.shape[1]

    def norms(self):
        """Row norms, computed on first use and kept: the rows are not meant to change.

        A row whose squared norm passes the float range (a byzantine report
        of 1e308, say) gets norm +inf without a numpy warning, so screening
        ranks it above every finite row.
        """
        if self._norms is None:
            with np.errstate(over="ignore"):  # np.linalg.norm's own formula, without its overhead
                self._norms = np.sqrt(np.add.reduce(self.matrix * self.matrix, axis=1))
        return self._norms


@dataclass(frozen=True)
class ScreenConfig:
    """Number of largest-norm inputs to drop before averaging."""

    screen_count: int

    def __post_init__(self):
        if self.screen_count < 0:
            raise ConfigError(f"screen_count must be >= 0, got {self.screen_count}")

    def beta(self, m):
        return self.screen_count / m


@dataclass(frozen=True)
class DeviationBound:
    c_alpha: float  # 2*alpha / (1 - beta)
    delta: float    # max over honest i of ||g_i - S||
    rhs: float      # c_alpha * ||S|| + delta


def _kept_indices(grads: GradientSet, cfg: ScreenConfig):
    if cfg.screen_count >= grads.m:
        raise ConfigError(
            f"screen_count={cfg.screen_count} must be < m={grads.m} (keep at least one)"
        )
    # stable sort: equal norms keep the lower original index first
    order = np.argsort(grads.norms(), kind="stable")
    return np.sort(order[: grads.m - cfg.screen_count])


def norm_screen(grads: GradientSet, cfg: ScreenConfig) -> np.ndarray:
    """Mean of the m - screen_count smallest-norm inputs.

    Ties in norm are broken by original index (lower kept first); the kept
    vectors are summed left to right in ascending original index so the
    output is bit-stable.
    """
    kept = _kept_indices(grads, cfg)
    # accumulate adds row by row in order (reduce would sum a single column
    # pairwise); + 0.0 gives the +0.0 a zero-started sum has where all rows are -0.0
    return (np.add.accumulate(grads.matrix[kept], axis=0)[-1] + 0.0) / kept.size


def screening_deviation_bound(grads, honest_idx, cfg, S) -> DeviationBound:
    """Worst-case deviation of the screened mean from a reference vector S.

    Requires the corrupted fraction alpha = 1 - |honest|/m to satisfy
    alpha <= beta (enough inputs screened) and alpha <= 1/2.
    """
    honest = np.unique(np.asarray(honest_idx, dtype=int))
    if honest.size == 0:
        raise ConfigError("honest index set must be non-empty")
    if honest.size != len(honest_idx):
        raise ConfigError("honest indices must be unique")
    if honest.min() < 0 or honest.max() >= grads.m:
        raise ConfigError(f"honest indices out of range [0, {grads.m})")
    S = np.asarray(S, dtype=float)
    if S.shape != (grads.dim,):
        raise ShapeError(f"S must have shape ({grads.dim},), got {S.shape}")

    m = grads.m
    byz_count = m - honest.size
    if byz_count > cfg.screen_count:
        raise RegimeError(
            f"bound inapplicable: alpha={byz_count}/{m} exceeds beta={cfg.screen_count}/{m}"
        )
    if 2 * byz_count > m:
        raise RegimeError(f"bound inapplicable: alpha={byz_count}/{m} exceeds 1/2")

    alpha = byz_count / m
    beta = cfg.beta(m)
    c_alpha = 2.0 * alpha / (1.0 - beta)
    delta = float(np.max(np.linalg.norm(grads.matrix[honest] - S, axis=1)))
    return DeviationBound(
        c_alpha=c_alpha,
        delta=delta,
        rhs=c_alpha * float(np.linalg.norm(S)) + delta,
    )


@dataclass(frozen=True)
class ScreeningCheck:
    holds: bool
    slack: float  # rhs - ||screened mean - S||
    bound: DeviationBound


def check_screening_bound(grads, honest_idx, cfg, S) -> ScreeningCheck:
    """Evaluate the deviation bound against the actual screened output."""
    bound = screening_deviation_bound(grads, honest_idx, cfg, S)
    lhs = float(np.linalg.norm(norm_screen(grads, cfg) - np.asarray(S, dtype=float)))
    slack = bound.rhs - lhs
    return ScreeningCheck(holds=slack >= 0.0, slack=slack, bound=bound)
