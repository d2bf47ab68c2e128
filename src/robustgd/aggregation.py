"""Norm-based screening: drop the largest-norm inputs, average the rest.

Screening bounds the influence of any single corrupted input: a gradient
either gets dropped for its conspicuous norm or survives with a norm no
larger than some honest input's. The deviation of the screened mean from
any reference vector S is bounded by ``c_alpha * ||S|| + Delta``, where
c_alpha = 2*alpha/(1-beta) for the corrupted fraction alpha and the screened
fraction beta (``screening_coefficient``, from the worker counts) and Delta
is the worst honest distance to S; ``screening_deviation_bound`` computes
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


@dataclass(frozen=True)
class DeviationBound:
    c_alpha: float  # screening_coefficient of the instance
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


def screening_coefficient(byzantine, screened, m):
    """c_alpha = 2*alpha/(1-beta) from the worker counts: 2*byzantine / (m - screened).

    Refuses ``screened >= m`` (``ConfigError``), then more byzantine workers
    than screened ones or a byzantine majority (``RegimeError``). For counts
    below 2**53 the quotient is >= 1 exactly when 2*byzantine >= m - screened.
    """
    if screened >= m:
        raise ConfigError(f"screen_count={screened} must be < m={m} (keep at least one)")
    if byzantine > screened:
        raise RegimeError(
            f"corrupted fraction {byzantine}/{m} exceeds screened fraction {screened}/{m}")
    if 2 * byzantine > m:
        raise RegimeError(f"corrupted fraction {byzantine}/{m} exceeds 1/2")
    return 2.0 * byzantine / (m - screened)


def screening_deviation_bound(grads, honest_idx, cfg, S) -> DeviationBound:
    """Worst-case deviation of the screened mean from a reference vector S.

    Requires counts that ``screening_coefficient`` accepts.
    """
    honest_idx = np.asarray(honest_idx, dtype=int)
    if honest_idx.size == 0:
        raise ConfigError("honest index set must be non-empty")
    if honest_idx.min() < 0 or honest_idx.max() >= grads.m:
        raise ConfigError(f"honest indices out of range [0, {grads.m})")
    honest = np.zeros(grads.m, dtype=bool)  # a mask: its rows come out in ascending order
    honest[honest_idx] = True
    honest_count = np.count_nonzero(honest)
    if honest_count != len(honest_idx):
        raise ConfigError("honest indices must be unique")
    S = np.asarray(S, dtype=float)
    if S.shape != (grads.dim,):
        raise ShapeError(f"S must have shape ({grads.dim},), got {S.shape}")

    c_alpha = screening_coefficient(grads.m - honest_count, cfg.screen_count, grads.m)
    gaps = grads.matrix[honest] - S
    delta = float(np.sqrt(np.add.reduce(gaps * gaps, axis=1)).max())  # np.linalg.norm's formula
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
