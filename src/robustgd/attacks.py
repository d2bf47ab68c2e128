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
"""

import logging
from dataclasses import dataclass

import numpy as np

from .aggregation import row_norms
from .errors import ConfigError

log = logging.getLogger(__name__)

AGGRESSIVE = "aggressive"
INTELLIGENT = "intelligent"
COUNTEREXAMPLE = "counterexample"
KINDS = (AGGRESSIVE, INTELLIGENT, COUNTEREXAMPLE)

# Direction stream tag used by every byzantine worker when directions are shared.
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
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.ratio <= 0:
            raise ConfigError(f"ratio must be positive, got {self.ratio}")
        if self.target_rank < 0:
            raise ConfigError(f"target_rank must be >= 0, got {self.target_rank}")


def _unit_direction(spec: AttackSpec, dim, iteration, worker):
    stream = _SHARED_STREAM if spec.shared_direction else worker
    rng = np.random.default_rng([spec.rng_seed, iteration, stream])
    g = rng.standard_normal(dim)
    n = np.linalg.norm(g)
    if n == 0.0:  # unreachable in practice; keeps the contract total
        g[0] = 1.0
        n = 1.0
    return g / n


def craft(spec: AttackSpec, honest_grads, reference, iteration, workers):
    """The byzantine rows of one round: a (len(workers), d) matrix, row i for workers[i].

    ``honest_grads`` is the (k, d) array of the round's honest reports.

    Deterministic given (rng_seed, iteration, worker); intelligent directions
    are drawn fresh per worker per iteration from their own generator unless
    shared_direction is set. A zero reference makes every intelligent row
    zero, with one warning naming the workers.
    """
    reference = np.asarray(reference, dtype=float)
    rows = np.empty((len(workers), reference.size))
    if spec.kind == AGGRESSIVE:
        rows[:] = -spec.scale * reference
    elif spec.kind == INTELLIGENT:
        norm = float(np.linalg.norm(reference))
        if norm == 0.0:
            log.warning("intelligent attack degenerate: zero reference at iteration %d, "
                        "workers %s", iteration, list(workers))
            rows[:] = 0.0
        else:
            for row, worker in zip(rows, workers):
                row[:] = _unit_direction(spec, reference.size, iteration, worker)
            rows *= spec.ratio * norm
    else:  # counterexample: negate the honest gradient at the target norm rank
        if spec.target_rank >= len(honest_grads):
            raise ConfigError(f"target_rank={spec.target_rank} out of range for "
                              f"{len(honest_grads)} honest gradients")
        order = np.argsort(row_norms(honest_grads), kind="stable")
        rows[:] = -honest_grads[order[spec.target_rank]]
    return rows
