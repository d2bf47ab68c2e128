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

``craft`` takes one run or a stack of R runs that share the byzantine ids, so
a batch of training runs crafts its round in one call: the aggressive rows
are one product over the stacked references, the intelligent runs' reference
norms one stacked dot, and the counterexample runs' honest norms are ranked
in one stable argsort over the stack; each run's rows are bit-equal to a
call on that run alone.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .aggregation import row_norms
from .errors import ConfigError, require_count, require_positive

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
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))
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


def craft(specs, honest_grads, references, iteration, workers, directions=None):
    """The byzantine rows of round ``iteration``, row i for workers[i], for one run or a stack.

    One run: ``specs`` is its ``AttackSpec``, ``honest_grads`` the (k, d)
    array of the round's honest reports, ``references`` its (d,) reference
    and ``directions`` the run's ``DirectionBlocks`` for ``workers``; the
    result is a (len(workers), d) matrix. R runs that share the byzantine
    ids and k: a sequence of R specs, an (R, k, d) stack of honest reports,
    (R, d) references and the R runs' directions (None for a run that draws
    none); the result is (R, len(workers), d), each run's rows bit-equal to
    a call on that run alone.

    An intelligent row is ratio * ||reference|| times a unit direction: the
    round's vector of the worker's stream (of the shared one, for every row,
    when shared_direction is set) over its length. A run whose round has a
    zero reference gets all-zero rows, with one warning naming the workers.
    """
    single = isinstance(specs, AttackSpec)
    honest_grads = np.asarray(honest_grads, dtype=float)
    references = np.asarray(references, dtype=float)
    if single:  # the batch of one
        specs, directions = [specs], [directions]
        honest_grads, references = honest_grads[None], references[None]
    elif directions is None:
        directions = [None] * len(specs)
    R = len(specs)
    rows = np.empty((R, len(workers), references.shape[-1]))
    runs_of = {AGGRESSIVE: [], INTELLIGENT: [], COUNTEREXAMPLE: []}
    for r, spec in enumerate(specs):
        runs_of[spec.kind].append(r)
    aggressive, intelligent, counterexample = runs_of.values()
    if aggressive:
        runs = _run_index(aggressive, R)
        factors = np.array([-specs[r].scale for r in aggressive], dtype=float)
        rows[runs] = (factors[:, None] * references[runs])[:, None]
    if intelligent:
        stacked = references[_run_index(intelligent, R)]
        # np.linalg.norm's dot, one (1, d) @ (d, 1) product per run
        norms = np.sqrt(stacked[:, None, :] @ stacked[:, :, None])[:, 0, 0]
        for r, norm in zip(intelligent, norms):
            _intelligent_rows(specs[r], norm, iteration, workers, directions[r], rows[r])
    if counterexample:  # negate the honest gradient at the target norm rank
        grads = honest_grads[_run_index(counterexample, R)]
        for r, order in zip(counterexample, row_norms(grads).argsort(axis=-1, kind="stable")):
            rank = specs[r].target_rank
            if rank >= order.size:
                raise ConfigError(f"target_rank={rank} out of range for "
                                  f"{order.size} honest gradients")
            rows[r] = -honest_grads[r, order[rank]]
    return rows[0] if single else rows


def _run_index(runs, R):
    """An index of the run axis for the listed ``runs``: a plain slice when they are all R."""
    return slice(None) if len(runs) == R else runs


def _intelligent_rows(spec, norm, iteration, workers, directions, out):
    """Write an intelligent run's rows of round ``iteration`` to ``out``; norm = ||reference||."""
    if directions is None or directions.workers != tuple(workers):
        raise ConfigError(f"intelligent attack needs the run's directions for workers "
                          f"{list(workers)}")
    if norm == 0.0:
        log.warning("intelligent attack degenerate: zero reference at iteration %d, "
                    "workers %s", iteration, list(workers))
        out[:] = 0.0
    else:
        vectors, lengths = directions.round(iteration)
        # one row per stream: the shared one broadcasts to every worker's row
        np.multiply(vectors, (spec.ratio * norm / lengths)[:, None], out=out)
