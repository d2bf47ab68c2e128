"""Norm-based screening: drop the largest-norm inputs, average the rest.

Screening bounds the influence of any single corrupted input: a gradient
either gets dropped for its conspicuous norm or survives with a norm no
larger than some honest input's. The deviation of the screened mean from
any reference vector S is bounded by ``c_alpha * ||S|| + Delta``, where
c_alpha = 2*alpha/(1-beta) for the corrupted fraction alpha and the screened
fraction beta (``screening_coefficient``, from the worker counts) and Delta
is the worst honest distance to S; ``screening_deviation_bound`` computes
the bound, and refuses a non-finite S or a NaN honest row with
``NumericError`` instead of returning a NaN bound. Every function takes the
reports as one plain (m, d) array; ``norm_screen`` also takes a stack of
them, (..., m, d), one screen per leading index, so a batch of training runs
screens its round in one call. The screened sum adds the kept rows in index
order whatever the stack's shape, so every screen is bit-stable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, RegimeError, ShapeError, require_count


def _report_matrix(reports, stacked=False):
    """``reports`` as an (m, d) float matrix, or (..., m, d) if ``stacked``, or ``ShapeError``.

    Every axis must have length at least 1.
    """
    try:
        reports = np.asarray(reports, dtype=float)
    except ValueError as exc:  # ragged input
        raise ShapeError(f"inputs must be vectors of one dimension: {exc}") from exc
    if not (reports.ndim == 2 or stacked and reports.ndim > 2) or 0 in reports.shape:
        expected = "an (m, d) matrix or a stack of them" if stacked else "a 2-d (m, d) matrix"
        raise ShapeError(f"expected {expected}, got shape {reports.shape}")
    return reports


def row_norms(rows):
    """Euclidean norm of each row (last-axis vector) of an array.

    A row whose squared norm passes the float range (a byzantine report of
    1e308, say) gets norm +inf without a numpy warning, so screening ranks it
    above every finite row.
    """
    with np.errstate(over="ignore"):  # np.linalg.norm's own formula, without its overhead
        return np.sqrt(np.add.reduce(rows * rows, axis=-1))


def dot_sq_norms(vectors):
    """Squared Euclidean norm of each row of an (R, d) matrix, as its dot with itself.

    This is the sum np.linalg.norm takes for a single vector, dot(x, x), in
    one (1, d) @ (d, 1) product per row, so np.sqrt of it is bit-equal to
    np.linalg.norm(row) for each row taken alone. ``row_norms`` is the
    formula of np.linalg.norm(rows, axis=-1), a pairwise sum of the squares,
    which can differ from the dot in the last bit. A square past the float
    range warns here; callers that expect one silence it.
    """
    return (vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class ScreenConfig:
    """Number of largest-norm inputs to drop before averaging."""

    screen_count: int

    def __post_init__(self):
        count = require_count("screen_count", self.screen_count, 0)
        object.__setattr__(self, "screen_count", count)  # stored as an int


@dataclass(frozen=True)
class DeviationBound:
    c_alpha: float  # screening_coefficient of the instance
    delta: float    # max over honest i of ||g_i - S||
    rhs: float      # c_alpha * ||S|| + delta


def norm_screen(reports, screen_count):
    """(mean of the m - screen_count smallest-norm rows, every row's norm).

    ``reports`` is one (m, d) array, or a stack (..., m, d) screened one
    (m, d) slice at a time: the results are then (..., d) and (..., m), each
    slice bit-equal to a call on that slice alone. ``screen_count`` must be
    an integer count below m (``ConfigError`` naming it). Ties in norm are
    broken by original index (lower kept first); the kept rows are summed
    left to right in ascending original index so the output is bit-stable.
    With ``screen_count == 0`` every row is kept, so none is ranked: the
    rows are summed in index order as they stand, with the same bits. The
    kept sum is a fresh array, so it is finished (+ 0.0, then the division)
    in place.
    """
    reports = _report_matrix(reports, stacked=True)
    screen_count = require_count("screen_count", screen_count, 0)
    m, d = reports.shape[-2:]
    if screen_count >= m:
        raise ConfigError(f"screen_count={screen_count} must be < m={m} (keep at least one)")
    norms = row_norms(reports)
    if screen_count == 0:  # every row is kept, already in index order: nothing to rank
        return (np.add.accumulate(reports, axis=-2)[..., -1, :] + 0.0) / m, norms
    # stable sort: equal norms keep the lower original index first
    kept = norms.argsort(axis=-1, kind="stable")[..., : m - screen_count]
    kept.sort(axis=-1)
    if norms.size > m:  # more than one slice: index the stacked rows, slice i's from i * m
        kept += np.arange(0, norms.size, m).reshape(*norms.shape[:-1], 1)
    # a new C-ordered (..., m - screen_count, d) array; take skips fancy indexing's overhead
    kept_rows = reports.reshape(-1, d).take(kept, axis=0)
    # Both sums add row by row in index order: reduce runs its inner loop
    # along the rows' contiguous d axis, but a single column (d = 1) it would
    # sum pairwise, so that one accumulates. + 0.0 gives the +0.0 a
    # zero-started sum has where all rows are -0.0.
    if d > 1:
        kept_sum = np.add.reduce(kept_rows, axis=-2)
        kept_sum += 0.0
    else:
        kept_sum = np.add.accumulate(kept_rows, axis=-2)[..., -1, :] + 0.0
    kept_sum /= m - screen_count
    return kept_sum, norms


def screening_coefficient(byzantine, screened, m):
    """c_alpha = 2*alpha/(1-beta) from the worker counts: 2*byzantine / (m - screened).

    Refuses a count that is not an integer >= 0 (``ConfigError`` naming it),
    then ``screened >= m`` (``ConfigError``), then more byzantine workers
    than screened ones or a byzantine majority (``RegimeError``). For counts
    below 2**53 the quotient is >= 1 exactly when 2*byzantine >= m - screened.
    """
    byzantine = require_count("byzantine", byzantine, 0)
    screened = require_count("screened", screened, 0)
    m = require_count("m", m, 0)
    if screened >= m:
        raise ConfigError(f"screen_count={screened} must be < m={m} (keep at least one)")
    if byzantine > screened:
        raise RegimeError(
            f"corrupted fraction {byzantine}/{m} exceeds screened fraction {screened}/{m}")
    if 2 * byzantine > m:
        raise RegimeError(f"corrupted fraction {byzantine}/{m} exceeds 1/2")
    return 2.0 * byzantine / (m - screened)


def screening_deviation_bound(reports, honest, screen_count, S) -> DeviationBound:
    """Worst-case deviation of ``norm_screen(reports, screen_count)`` from S.

    ``honest`` is a boolean mask over the rows of ``reports``, True for the
    honest ones. Requires counts that ``screening_coefficient`` accepts. A
    non-finite S, or an honest row holding NaN, has no bound: ``NumericError``
    (naming those rows in its ``rows``). An infinite honest row gives an
    infinite bound, and so does a finite S whose squared norm overflows
    unless c_alpha = 0. Delta is ``row_norms(reports[honest] - S).max()``,
    bit for bit, taken in place on the one gathered copy of the honest rows:
    the differences, their squares and the norms overwrite it.
    """
    reports = _report_matrix(reports)
    m, d = reports.shape
    honest = np.asarray(honest)
    if honest.dtype != bool or honest.shape != (m,):
        raise ShapeError(f"honest must be a boolean mask of shape ({m},), "
                         f"got {honest.dtype} of shape {honest.shape}")
    honest_count = np.count_nonzero(honest)
    if honest_count == 0:
        raise ConfigError("honest mask must mark at least one row")
    S = np.asarray(S, dtype=float)
    if S.shape != (d,):
        raise ShapeError(f"S must have shape ({d},), got {S.shape}")

    c_alpha = screening_coefficient(m - honest_count, screen_count, m)
    # ||S||^2 and row_norms(reports[honest] - S), in place on the one gathered
    # copy of the honest rows. A square past the float range reads inf, as in
    # row_norms; a non-finite S (whose differences may be inf - inf) is refused
    # before they are read.
    distances = reports.compress(honest, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        squared = float(S.dot(S))  # np.linalg.norm's own formula, without its overhead
        distances -= S
        distances *= distances
        distances = np.add.reduce(distances, axis=-1)
    if not math.isfinite(squared) and not np.isfinite(S).all():
        raise NumericError(f"S must be finite, got {S}")
    np.sqrt(distances, out=distances)
    delta = float(np.maximum.reduce(distances))
    if math.isnan(delta):  # a NaN honest row; an infinite one gives an infinite bound
        rows = np.flatnonzero(honest)[np.isnan(distances)]
        raise NumericError(f"honest rows {rows.tolist()} hold NaN: no deviation bound",
                           rows=rows)
    # c_alpha = 0 drops the ||S|| term, also where S * S overflows to inf
    return DeviationBound(
        c_alpha=c_alpha,
        delta=delta,
        rhs=c_alpha * math.sqrt(squared) + delta if c_alpha else delta,
    )
