"""Dataset ingestion, stratified splitting, and training rows for m equal workers.

The real experiment corpus is the spambase email CSV (57 numeric feature
columns plus a final 0/1 label, no header). ``synthetic_spambase_like``
generates a stand-in of exactly that shape and class balance (4,601 rows,
1,813 of them spam) from a seed alone, for environments where the file is
not available; ``quadratic_cloud`` produces the sample
clouds used by the quadratic-family theory checks. ``split_and_shard``
shuffles the training rows and drops the tail that m does not divide; no
index lists are kept, since worker j's shard is the j-th of m equal
contiguous blocks of the rows. Data preparation holds the corpus and, at
most, its train and test outputs: the stand-in's Gaussian blocks are drawn
a slab of rows at a time, and the training statistics are taken in place on
a gathered copy that is dropped before the outputs are gathered. On the
spambase shape the traced peak is about 4.2 MiB, of which the corpus is
2.0 MiB and the train and test matrices 2.0 MiB.
"""

import csv
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, require_count

log = logging.getLogger(__name__)

SPAMBASE_FEATURES = 57
SPAMBASE_ROWS = 4601
SPAMBASE_SPAM_ROWS = 1813
_SLAB_ROWS = 512  # rows of Gaussian draws the stand-in corpus holds at a time


@dataclass
class Dataset:
    features: np.ndarray  # (N, d)
    labels: np.ndarray    # (N,) values in {0, 1}


def load_spambase(path) -> Dataset:
    """Parse a spambase-format CSV: 57 numeric features + binary label per row.

    Raw features are returned as-is; standardization happens at split time so
    its parameters can come from the training rows only. A file that cannot
    be read, or a row that is not UTF-8 text of 58 finite numbers ending in a
    0/1 label, raises ``DataFormatError`` naming the path and the line. The
    bytes are decoded once up front to name an undecodable line, and the
    rows are read through a text wrapper that decodes them a chunk at a
    time, so no full-file string is held while the rows are parsed.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        data.decode("utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        line = len(data[: exc.start + 1].splitlines())
        raise DataFormatError(
            f"{path}, line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None
    rows, labels = [], []
    # split into lines as open(newline="")
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if not row:
                continue
            if len(row) != SPAMBASE_FEATURES + 1:
                raise DataFormatError(
                    f"{where}: expected {SPAMBASE_FEATURES + 1} columns, got {len(row)}"
                )
            try:
                values = [float(tok) for tok in row]
            except ValueError as exc:
                raise DataFormatError(f"{where}: non-numeric token ({exc})") from None
            if not all(map(math.isfinite, values)):
                raise DataFormatError(f"{where}: non-finite value")
            label = values[-1]
            if label not in (0.0, 1.0):
                raise DataFormatError(f"{where}: label must be 0 or 1, got {label}")
            rows.append(values[:-1])
            labels.append(int(label))
    except csv.Error as exc:
        raise DataFormatError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(
        features=np.asarray(rows, dtype=float),
        labels=np.asarray(labels, dtype=int),
    )


def stratified_split(labels, train_frac, seed):
    """Per-class shuffled split; train takes round(train_frac * class size) rows.

    Classes 0 then 1 are split; a label outside {0, 1} is a ``ConfigError``
    naming the first one.
    """
    labels = np.asarray(labels)
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        raise ConfigError(f"labels must be 0 or 1, got {labels[bad.argmax()]}")
    rng = np.random.default_rng([seed, 0xD1])
    train_idx, test_idx = [], []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        take = int(np.floor(train_frac * members.size + 0.5))
        train_idx.append(members[:take])
        test_idx.append(members[take:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def standardize(features, train_idx, *row_sets):
    """Each row set of ``features`` as a new float matrix, standardized by the train_idx rows.

    The mean and std come from the train_idx rows gathered in that order,
    by numpy's formulas (sum / n, then the root of the centered squares'
    sum / n) taken in place on that gathered copy, which is dropped before
    the row sets are gathered, in their given order, and centered, scaled
    and zeroed in place; so beside ``features`` the peak is the larger of
    that copy and the outputs. Zero-variance features map to 0 in every set. An integer
    corpus is gathered into float.
    """
    train = features[train_idx].astype(float, copy=False)
    count = train.shape[0]
    mean = train.sum(axis=0) / count
    train -= mean
    train *= train
    std = np.sqrt(train.sum(axis=0) / count)
    del train
    scale = np.where(std > 0.0, std, 1.0)
    dead = std == 0.0
    out = []
    for idx in row_sets:
        rows = features[idx].astype(float, copy=False)
        rows -= mean
        rows /= scale
        rows[:, dead] = 0.0
        out.append(rows)
    return out


@dataclass
class ShardedData:
    train_features: np.ndarray  # worker j's rows are the j-th of m equal contiguous blocks
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray


def split_and_shard(ds: Dataset, train_frac=2.0 / 3.0, m=20, seed=0) -> ShardedData:
    """Stratified train/test split, standardization, rows for m equal workers.

    The mean and std come from the training rows in sorted index order.
    Training rows are shuffled by seed and the divisibility tail is dropped,
    so the kept rows split into m contiguous blocks of equal size, worker j
    holding the j-th (``simulation.WorkerRoster``); they and the test rows
    are gathered from the corpus, which is left unchanged, and standardized
    in place. m below 1 or above the training size, and a train_frac that
    leaves no test row, are ``ConfigError``s.
    """
    m = require_count("m", m, 1)
    train_idx, test_idx = stratified_split(ds.labels, train_frac, seed)
    if test_idx.size == 0:
        raise ConfigError(f"train_frac={train_frac} leaves an empty test split "
                          f"({train_idx.size} training rows, 0 test rows)")
    if m > train_idx.size:
        raise ConfigError(f"m={m} workers exceed training size {train_idx.size}")
    rng = np.random.default_rng([seed, 0xD2])
    order = rng.permutation(train_idx.size)
    dropped = train_idx.size % m
    if dropped:
        log.warning("dropping %d training rows so %d workers get equal shards", dropped, m)
    kept = train_idx[order[: train_idx.size - dropped]]
    train_X, test_X = standardize(ds.features, train_idx, kept, test_idx)
    return ShardedData(
        train_features=train_X,
        train_labels=ds.labels[kept],
        test_features=test_X,
        test_labels=ds.labels[test_idx],
    )


def synthetic_spambase_like(seed) -> Dataset:
    """Stand-in corpus with the spambase shape and a word-frequency-like mix.

    Three feature groups mimic email term statistics: 6 sparse "marker"
    columns that are strong evidence when present but near-zero otherwise
    (an adversary can plant them within a small norm budget), 30 diffuse
    Gaussian columns that are individually weak but collectively predictive,
    and 21 pure-noise columns. 5% of the labels are flipped so the
    achievable error floor is positive. Per-feature scales vary by orders of
    magnitude, so standardization matters, as with the real file.

    The Gaussian blocks are drawn a slab of rows at a time, so the corpus is
    the only full-size matrix held.
    """
    n, dim, markers, diffuse, flip = SPAMBASE_ROWS, SPAMBASE_FEATURES, 6, 30, 0.05
    rng = np.random.default_rng([seed, 0xD3])
    classes = np.zeros(n, dtype=int)
    classes[:SPAMBASE_SPAM_ROWS] = 1
    classes = classes[rng.permutation(n)]

    features = np.zeros((n, dim))
    pos = classes == 1
    hit_rates = np.concatenate([[0.80], np.linspace(0.55, 0.30, markers - 1)])
    leak_rates = np.concatenate([[0.01], np.full(markers - 1, 0.03)])
    for j in range(markers):
        present = np.where(pos, rng.random(n) < hit_rates[j], rng.random(n) < leak_rates[j])
        features[:, j] = present * (1.2 + 0.5 * rng.exponential(1.0, size=n))
    offsets = rng.uniform(0.25, 0.45, size=diffuse) * rng.choice([-1.0, 1.0], size=diffuse)
    signs = np.where(pos, 0.5, -0.5)
    for rows, draws in _normal_slabs(rng, n, diffuse):
        draws += signs[rows, None] * offsets
        features[rows, markers:markers + diffuse] = draws
    for rows, draws in _normal_slabs(rng, n, dim - markers - diffuse):
        features[rows, markers + diffuse:] = draws
    features *= np.exp(rng.normal(0.0, 0.8, size=dim))

    labels = classes.copy()
    flips = rng.permutation(n)[: int(round(flip * n))]
    labels[flips] = 1 - labels[flips]
    return Dataset(features=features, labels=labels)


def _normal_slabs(rng, n, width):
    """An (n, width) block of standard normals as (row slice, draws) slabs.

    A ``Generator`` draws the same values however a block is split into
    calls, so the slabs hold the bits of one whole-block draw.
    """
    for lo in range(0, n, _SLAB_ROWS):
        hi = min(n, lo + _SLAB_ROWS)
        yield slice(lo, hi), rng.standard_normal((hi - lo, width))


def quadratic_cloud(n, dim, spread=1.0, center=None, seed=0):
    """Sample cloud for the quadratic family; labels are all-zero placeholders."""
    rng = np.random.default_rng([seed, 0xD4])
    if center is None:
        center = np.zeros(dim)
    X = np.asarray(center, dtype=float) + spread * rng.standard_normal((n, dim))
    return X, np.zeros(n)
