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
generator per byzantine worker, keyed by (rng_seed, worker). Round t's
direction is the stream's t-th d-vector, so a run is deterministic given
rng_seed, a shorter run is the first rounds of a longer one, and a worker's
directions do not depend on the other workers. The vectors are drawn a block
of rounds at a time, one ``standard_normal`` call per stream, and their
lengths taken once per block; ``Generator.standard_normal`` keeps no state
between calls, so a block holds the same vectors as one call per round. A
block covers at most DIRECTION_BLOCK_ROUNDS = B rounds, so however long the
run, its direction buffers hold at most B * w * d floats of vectors and
B * w lengths for w byzantine workers in d dimensions, and drawing a block
takes one stream's B * d squares at a time.

The attack of a batch of R runs that share the byzantine ids is fixed for
the whole batch, so it is set up once, in an ``AttackPlan``: the runs
grouped by kind, the aggressive factors stacked, every counterexample
target_rank checked against the k honest workers and each intelligent run's
``DirectionBlocks`` built. ``craft`` then does only a round's arithmetic:
the aggressive rows are one product over the stacked references, the
intelligent runs' reference norms one stacked dot, and the counterexample
runs' honest norms are ranked in one stable argsort over the stack; each
run's rows are bit-equal to a plan of that run alone.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .aggregation import dot_sq_norms, row_norms
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
# Rounds of intelligent directions a run draws at once, per stream
DIRECTION_BLOCK_ROUNDS = 256


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    scale: float = 10.0        # aggressive: output = -scale * reference
    ratio: float = 0.8         # intelligent: output norm = ratio * ||reference||
    target_rank: int = 1       # counterexample: honest rank in ascending norm order
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}, expected one of {KINDS}")
        for name in ("scale", "ratio"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))
        object.__setattr__(self, "target_rank", require_count("target_rank", self.target_rank, 0))
        object.__setattr__(self, "rng_seed", require_count("rng_seed", self.rng_seed, 0))


class DirectionBlocks:
    """A run's intelligent directions for its ``rounds`` rounds, drawn a block of rounds at a time.

    One stream per worker in ``workers``, keyed by (rng_seed, worker).
    ``round(t)`` gives the streams' t-th ``dim``-vectors and their lengths; a
    block of min(DIRECTION_BLOCK_ROUNDS, rounds) rounds is drawn when a round
    outside the current one is asked for. Rounds are read forward in
    training; an earlier round restarts the streams, so round t's vectors
    never depend on the rounds read before it.
    """

    def __init__(self, rng_seed, workers, rounds, dim):
        self.rounds = require_count("rounds", rounds, 1)
        self._keys = [[rng_seed, _DIRECTION_TAG, worker] for worker in workers]
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


class AttackPlan:
    """The attack of R runs that share the byzantine ``workers``, set up once for the batch.

    ``specs`` holds each run's ``AttackSpec``, ``honest_count`` is k, the
    number of honest reports a round ranks, and ``rounds`` and ``dim`` are
    the runs' length and dimension. Each kind present keeps the index of its
    runs on the run axis (a plain slice when all R runs have it) and what its
    rows need: the aggressive runs' stacked -scale factors, each intelligent
    run's ratio and ``DirectionBlocks``, each counterexample run's
    target_rank. A target_rank of k or more is refused here, before any round.
    """

    def __init__(self, specs, workers, honest_count, rounds, dim):
        self.runs, self.workers = len(specs), list(workers)
        aggressive, intelligent, counterexample = (
            [r for r, spec in enumerate(specs) if spec.kind == kind] for kind in KINDS)
        for r in counterexample:
            if specs[r].target_rank >= honest_count:
                raise ConfigError(f"target_rank={specs[r].target_rank} out of range for "
                                  f"{honest_count} honest gradients")
        self.aggressive = self._group(aggressive,
                                      np.array([[-specs[r].scale] for r in aggressive]))
        self.intelligent = self._group(intelligent, [
            (r, specs[r].ratio, DirectionBlocks(specs[r].rng_seed, workers, rounds, dim))
            for r in intelligent])
        self.counterexample = self._group(counterexample,
                                          [(r, specs[r].target_rank) for r in counterexample])

    def _group(self, runs, entries):
        """(index of ``runs`` on the run axis, their ``entries``), or None if there are none."""
        return (slice(None) if len(runs) == self.runs else runs, entries) if runs else None


def craft(plan, honest_grads, references, iteration):
    """The (R, a, d) byzantine rows of round ``iteration`` of the ``plan``'s R runs.

    ``honest_grads`` is the (R, k, d) stack of the round's honest reports and
    ``references`` the (R, d) references; row i of run r is the report of
    worker ``plan.workers[i]``. An intelligent row is ratio * ||reference||
    times a unit direction: the round's vector of the worker's stream over
    its length. A run whose round has a zero reference gets all-zero rows,
    with one warning naming the workers.
    """
    rows = np.empty((plan.runs, len(plan.workers), references.shape[-1]))
    if plan.aggressive:
        runs, factors = plan.aggressive
        rows[runs] = (factors * references[runs])[:, None]
    if plan.intelligent:
        runs, entries = plan.intelligent
        norms = np.sqrt(dot_sq_norms(references[runs]))
        for (r, ratio, directions), norm in zip(entries, norms):
            if norm == 0.0:
                log.warning("intelligent attack degenerate: zero reference at iteration %d, "
                            "workers %s", iteration, plan.workers)
                rows[r] = 0.0
            else:
                vectors, lengths = directions.round(iteration)
                np.multiply(vectors, (ratio * norm / lengths)[:, None], out=rows[r])
    if plan.counterexample:  # negate the honest gradient at the target norm rank
        runs, entries = plan.counterexample
        orders = row_norms(honest_grads[runs]).argsort(axis=-1, kind="stable")
        for (r, rank), order in zip(entries, orders):
            rows[r] = -honest_grads[r, order[rank]]
    return rows
