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

Intelligent directions come from the run's direction streams
(``direction_streams``): one generator per byzantine worker, keyed by
(rng_seed, worker), or one shared by every worker when shared_direction is
set. Each round draws one d-vector from each stream, so a run is
deterministic given rng_seed, round t's direction is the stream's t-th
draw, and a worker's directions do not depend on the other workers.
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


def direction_streams(spec: AttackSpec, workers):
    """The run's intelligent-direction generators, built once when the run starts.

    One per worker in ``workers``, keyed by (rng_seed, worker), or one shared
    by all of them when shared_direction is set; none for the other kinds,
    which draw nothing.
    """
    if spec.kind != INTELLIGENT:
        return ()
    keys = [_SHARED_STREAM] if spec.shared_direction else workers
    return tuple(np.random.default_rng([spec.rng_seed, _DIRECTION_TAG, key]) for key in keys)


def craft(spec: AttackSpec, honest_grads, reference, iteration, workers, streams=()):
    """The byzantine rows of one round: a (len(workers), d) matrix, row i for workers[i].

    ``honest_grads`` is the (k, d) array of the round's honest reports and
    ``streams`` the run's ``direction_streams(spec, workers)``.

    An intelligent row is ratio * ||reference|| times a unit direction: the
    d-vector the round draws from the worker's stream (from the shared one,
    for every row, when shared_direction is set), normalized. Every round
    draws one vector from each stream, a round with a zero reference too;
    that round's rows are all zero, with one warning naming the workers.
    """
    reference = np.asarray(reference, dtype=float)
    rows = np.empty((len(workers), reference.size))
    if spec.kind == AGGRESSIVE:
        rows[:] = -spec.scale * reference
    elif spec.kind == INTELLIGENT:
        if len(streams) != (1 if spec.shared_direction else len(workers)):
            raise ConfigError(f"intelligent attack needs the run's direction streams for "
                              f"workers {list(workers)}, got {len(streams)}")
        for row, stream in zip(rows, streams):
            stream.standard_normal(out=row)
        if spec.shared_direction:
            rows[1:] = rows[0]
        norm = float(np.linalg.norm(reference))
        if norm == 0.0:
            log.warning("intelligent attack degenerate: zero reference at iteration %d, "
                        "workers %s", iteration, list(workers))
            rows[:] = 0.0
        else:
            lengths = row_norms(rows)
            if not lengths.all():  # unreachable in practice; keeps the contract total
                zero = lengths == 0.0
                rows[zero, 0] = lengths[zero] = 1.0
            rows *= (spec.ratio * norm / lengths)[:, None]
    else:  # counterexample: negate the honest gradient at the target norm rank
        if spec.target_rank >= len(honest_grads):
            raise ConfigError(f"target_rank={spec.target_rank} out of range for "
                              f"{len(honest_grads)} honest gradients")
        order = np.argsort(row_norms(honest_grads), kind="stable")
        rows[:] = -honest_grads[order[spec.target_rank]]
    return rows
