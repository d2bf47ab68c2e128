"""Byzantine gradient generators.

Attackers see every honest gradient (omniscient-adversary model) and the
reference vector, realized here as the mean of the honest local gradients at
the current iterate. Three behaviors:

- aggressive: -scale * reference; huge norm, trivially screened but fatal
  to plain averaging.
- intelligent: ratio * ||reference|| times a random unit direction; norm
  calibrated to slip past norm screening.
- counterexample: negate the honest gradient at a chosen norm rank, so the
  forgeries tie an honest norm and survive screening while cancelling it.

Intelligent directions come from the run's ``DirectionBlocks``: one
generator per byzantine worker, keyed by (rng_seed, worker), or one shared by
every worker when shared_direction is set. Round t's direction is the
stream's t-th d-vector, so a run is deterministic given rng_seed, a shorter
run is the first rounds of a longer one, and a worker's directions do not
depend on the other workers. The vectors are drawn a block of rounds at a
time, one ``standard_normal`` call per stream, and their lengths taken once
per block; ``Generator.standard_normal`` keeps no state between calls, so a
block holds the same vectors as one call per round. A block covers at most
DIRECTION_BLOCK_ROUNDS = B rounds, so however long the run, its direction
buffers hold at most B * w * d floats of vectors and B * w lengths for w
byzantine workers in d dimensions, and drawing a block takes one stream's
B * d squares at a time.
"""

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .aggregation import row_norms
from .errors import ConfigError, require_count

log = logging.getLogger(__name__)

AGGRESSIVE = "aggressive"
INTELLIGENT = "intelligent"
COUNTEREXAMPLE = "counterexample"
KINDS = (AGGRESSIVE, INTELLIGENT, COUNTEREXAMPLE)

# Middle entry of every direction-stream key [rng_seed, tag, worker]. numpy
# pads a key with zeros, so an untagged [rng_seed, worker] would equal
# initial_theta's [seed, 0x7E] at worker 0x7E; the package's other keys are
# [seed, tag] pairs, none with this tag.
_DIRECTION_TAG = 0xA7
# Worker entry of the one stream every byzantine worker draws from when directions are shared.
_SHARED_STREAM = 0x5A5A
# Rounds of intelligent directions a run draws at once, per stream
DIRECTION_BLOCK_ROUNDS = 256


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    scale: float = 10.0        # aggressive: output = -scale * reference
    ratio: float = 0.8         # intelligent: output norm = ratio * ||reference||
    target_rank: int = 1       # counterexample: honest rank in ascending norm order
    shared_direction: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}, expected one of {KINDS}")
        for name in ("scale", "ratio"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        object.__setattr__(self, "target_rank", require_count("target_rank", self.target_rank, 0))
        object.__setattr__(self, "rng_seed", require_count("rng_seed", self.rng_seed, 0))
        if not isinstance(self.shared_direction, bool):
            raise ConfigError(f"shared_direction must be true or false, "
                              f"got {self.shared_direction!r}")


class DirectionBlocks:
    """A run's intelligent directions for its ``rounds`` rounds, drawn a block of rounds at a time.

    One stream per worker in ``workers``, keyed by (rng_seed, worker), or one
    shared by all of them when shared_direction is set. ``round(t)`` gives
    the streams' t-th ``dim``-vectors and their lengths; a block of
    min(DIRECTION_BLOCK_ROUNDS, rounds) rounds is drawn when a round outside
    the current one is asked for. Rounds are read forward in training; an
    earlier round restarts the streams, so round t's vectors never depend on
    the rounds read before it.
    """

    def __init__(self, spec: AttackSpec, workers, rounds, dim):
        if spec.kind != INTELLIGENT:
            raise ConfigError(f"only the intelligent attack draws directions, got {spec.kind!r}")
        self.workers = tuple(workers)
        self.rounds = require_count("rounds", rounds, 1)
        self._keys = [[spec.rng_seed, _DIRECTION_TAG, key]
                      for key in ([_SHARED_STREAM] if spec.shared_direction else self.workers)]
        # stream-major, so that each stream fills its block with one contiguous call
        self._block = np.empty((len(self._keys), min(DIRECTION_BLOCK_ROUNDS, self.rounds), dim))
        self._lengths = np.empty(self._block.shape[:2])
        self._restart()

    def _restart(self):
        self._streams = [np.random.default_rng(key) for key in self._keys]
        self._start = self._stop = 0  # the rounds the block holds

    def round(self, t):
        """(vectors, lengths) of round ``t``: one (dim,) row per stream and its norm.

        Both are views of the block, overwritten when the next block is drawn.
        """
        if not 0 <= t < self.rounds:
            raise ConfigError(f"round {t} outside the run's {self.rounds} rounds")
        if t < self._start:
            self._restart()
        while t >= self._stop:
            self._draw_block()
        return self._block[:, t - self._start], self._lengths[:, t - self._start]

    def _draw_block(self):
        count = min(self._block.shape[1], self.rounds - self._stop)
        rows, lengths = self._block[:, :count], self._lengths[:, :count]
        for stream_rows, stream_lengths, stream in zip(rows, lengths, self._streams):
            stream.standard_normal(out=stream_rows)
            stream_lengths[:] = row_norms(stream_rows)  # squares of one stream at a time
        if not lengths.all():  # unreachable in practice; keeps the contract total
            zero = lengths == 0.0
            rows[zero, 0] = lengths[zero] = 1.0
        self._start, self._stop = self._stop, self._stop + count


def craft(spec: AttackSpec, honest_grads, reference, iteration, workers, directions=None):
    """The byzantine rows of round ``iteration``: a (len(workers), d) matrix, row i for workers[i].

    ``honest_grads`` is the (k, d) array of the round's honest reports and
    ``directions`` the run's ``DirectionBlocks`` for ``workers``.

    An intelligent row is ratio * ||reference|| times a unit direction: the
    round's vector of the worker's stream (of the shared one, for every row,
    when shared_direction is set) over its length. A round with a zero
    reference has all-zero rows, with one warning naming the workers.
    """
    reference = np.asarray(reference, dtype=float)
    rows = np.empty((len(workers), reference.size))
    if spec.kind == AGGRESSIVE:
        rows[:] = -spec.scale * reference
    elif spec.kind == INTELLIGENT:
        if directions is None or directions.workers != tuple(workers):
            raise ConfigError(f"intelligent attack needs the run's directions for workers "
                              f"{list(workers)}")
        norm = float(np.linalg.norm(reference))
        if norm == 0.0:
            log.warning("intelligent attack degenerate: zero reference at iteration %d, "
                        "workers %s", iteration, list(workers))
            rows[:] = 0.0
        else:
            vectors, lengths = directions.round(iteration)
            # one row per stream: the shared one broadcasts to every worker's row
            np.multiply(vectors, (spec.ratio * norm / lengths)[:, None], out=rows)
    else:  # counterexample: negate the honest gradient at the target norm rank
        if spec.target_rank >= len(honest_grads):
            raise ConfigError(f"target_rank={spec.target_rank} out of range for "
                              f"{len(honest_grads)} honest gradients")
        order = np.argsort(row_norms(honest_grads), kind="stable")
        rows[:] = -honest_grads[order[spec.target_rank]]
    return rows
