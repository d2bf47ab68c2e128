"""Synchronous distributed training rounds with byzantine gradient injection.

Each round the server broadcasts the iterate; honest workers run the inner
maximization over their shard and report the mean surrogate gradient;
byzantine workers report crafted vectors instead. The server screens by
norm, averages the survivors, and steps. The honest rows are gathered once
before the loop, so one batched ascent per round (``worker_reports``) serves
every honest worker and each worker's mean is a segment reduction. For the
logistic loss that ascent is a scalar recursion per row, and the reports come
from the margins and line coefficients without an (n, d) perturbed matrix.
Everything is deterministic for a fixed seed: worker order, reduction order,
and attack randomness are all pinned, so two runs with the same config
produce bit-identical traces.

The round loop runs only the algorithm. The trace records every iterate, so
the diagnostics the bound checkers need (the true surrogate gradient and
objective over all samples and the worst-case inner-solve error) are
computed after the run by ``with_diagnostics``; they never feed back into
the update.
"""

from dataclasses import dataclass, replace

import numpy as np

from .aggregation import GradientSet, ScreenConfig, norm_screen
from .attacks import AttackSpec, craft
from .errors import ConfigError, NumericError
from .losses import LogisticLoss, QuadraticLoss
from .surrogate import (
    DROConfig,
    ascend,
    exact_inner_maximizer,
    line_surrogate,
    penalized_objectives,
    theoretical_ascent_step,
)

VARIANTS = ("alg2", "dro_only", "nbs_only", "erm")


@dataclass
class WorkerRoster:
    """Shard assignment plus the byzantine subset and its attack behavior."""

    shards: list                      # per-worker sample index arrays
    byzantine: tuple = ()
    attack: AttackSpec | None = None
    allow_excess_byzantine: bool = False  # more byzantine workers than screen_count

    def __post_init__(self):
        self.byzantine = tuple(sorted(set(int(i) for i in self.byzantine)))
        m = len(self.shards)
        if m < 1:
            raise ConfigError("roster needs at least one worker")
        if self.byzantine and (self.byzantine[0] < 0 or self.byzantine[-1] >= m):
            raise ConfigError(f"byzantine ids out of range [0, {m})")
        if len(self.byzantine) >= m:
            raise ConfigError("at least one worker must be honest")
        if self.byzantine and self.attack is None:
            raise ConfigError("byzantine workers declared without an attack spec")

    @property
    def m(self):
        return len(self.shards)

    @property
    def honest(self):
        byz = set(self.byzantine)
        return tuple(i for i in range(self.m) if i not in byz)


def validate_roster(roster: WorkerRoster, n_samples, screen: ScreenConfig):
    seen = np.concatenate([np.asarray(s, dtype=int) for s in roster.shards])
    if seen.size == 0:
        raise ConfigError("empty shards")
    if seen.min() < 0 or seen.max() >= n_samples:
        raise ConfigError(f"shard indices out of range [0, {n_samples})")
    if np.unique(seen).size != seen.size:
        raise ConfigError("shards overlap")
    sizes = {len(s) for s in roster.shards}
    if 0 in sizes:
        raise ConfigError("every worker needs a non-empty shard")
    if len(roster.byzantine) > screen.screen_count and not roster.allow_excess_byzantine:
        raise ConfigError(
            f"{len(roster.byzantine)} byzantine workers exceed screen_count="
            f"{screen.screen_count}; set allow_excess_byzantine to demo this regime"
        )


@dataclass
class TrainConfig:
    eta: float
    iterations: int
    dro: DROConfig
    screen: ScreenConfig
    seed: int = 0
    theta0: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")


@dataclass
class RunTrace:
    eta: float
    aggregated: np.ndarray           # (T, d)
    aggregated_norms: np.ndarray     # (T,)
    objective_estimates: np.ndarray  # (T,) mean honest-worker inner objective
    worker_norms: np.ndarray         # (T, m) reported gradient norms
    iterates: np.ndarray             # (T, d) iterate before each update
    theta_final: np.ndarray
    # filled by with_diagnostics
    true_gradients: np.ndarray | None = None   # (T, d)
    true_objectives: np.ndarray | None = None  # (T,)
    inner_eps: np.ndarray | None = None        # (T,) worst ||z_eps - z*||

    @property
    def iterations(self):
        return self.aggregated.shape[0]


def initial_theta(dim, seed):
    """Seeded small random initialization, shared across compared variants."""
    rng = np.random.default_rng([seed, 0x7E])
    return 0.01 * rng.standard_normal(dim)


def worker_reports(model, theta, X, Y, counts, dro: DROConfig):
    """Honest workers' reports: (mean surrogate gradients, mean inner objectives).

    ``X`` and ``Y`` hold the workers' rows back to back, ``counts[j]`` rows
    for worker j. One ascent runs over all rows; each worker's gradient is the
    loss gradient at the ascent output averaged over its rows. The logistic
    loss is evaluated from the line coefficients (``line_surrogate``) without
    forming the ascent output. Returns a (k, d) gradient matrix and a (k,)
    objective vector for the k workers.
    """
    counts = np.asarray(counts, dtype=int)
    if counts.ndim != 1 or counts.size == 0 or counts.min() < 1 or counts.sum() != len(X):
        raise ConfigError(f"row counts {counts.tolist()} must be positive and sum to {len(X)}")
    starts = np.cumsum(counts) - counts
    if isinstance(model, LogisticLoss):
        r, c, objectives = line_surrogate(theta, X, Y, dro)
        grad_sums = (np.add.reduceat(r[:, None] * X, starts, axis=0)
                     + np.add.reduceat(r * c, starts)[:, None] * theta)
    else:
        Z = ascend(model, theta, X, Y, dro)
        grad_sums = np.add.reduceat(model.grads_theta(theta, Z, Y), starts, axis=0)
        objectives = penalized_objectives(model, theta, Z, Y, X, dro.lam)
    return grad_sums / counts[:, None], np.add.reduceat(objectives, starts) / counts


def run_training(model, X, Y, roster: WorkerRoster, cfg: TrainConfig) -> RunTrace:
    """Run the full round loop and return the per-iteration trace."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    validate_roster(roster, X.shape[0], cfg.screen)
    m, d, T = roster.m, X.shape[1], cfg.iterations
    theta = initial_theta(d, cfg.seed) if cfg.theta0 is None else np.array(cfg.theta0, dtype=float)
    if theta.shape != (d,):
        raise ConfigError(f"theta0 must have shape ({d},), got {theta.shape}")

    trace = RunTrace(
        eta=cfg.eta,
        aggregated=np.empty((T, d)),
        aggregated_norms=np.empty(T),
        objective_estimates=np.empty(T),
        worker_norms=np.empty((T, m)),
        iterates=np.empty((T, d)),
        theta_final=np.empty(d),
    )
    honest = list(roster.honest)
    rows = np.concatenate([np.asarray(roster.shards[i], dtype=int) for i in honest])
    honest_X, honest_Y = X[rows], Y[rows]
    counts = np.array([len(roster.shards[i]) for i in honest])
    ends = np.cumsum(counts)

    for t in range(T):
        trace.iterates[t] = theta
        try:
            honest_grads, honest_objs = worker_reports(
                model, theta, honest_X, honest_Y, counts, cfg.dro
            )
        except NumericError as exc:
            # a failure without rows (a non-finite theta) hits every worker
            first = 0 if exc.rows is None else exc.rows[0]
            worker = honest[np.searchsorted(ends, first, side="right")]
            raise NumericError(f"iteration {t}, worker {worker}: {exc}") from exc
        grads = np.empty((m, d))
        grads[honest] = honest_grads
        honest_set = GradientSet(honest_grads)
        reference = honest_grads.mean(axis=0)
        for i in roster.byzantine:
            grads[i] = craft(roster.attack, honest_set, reference, iteration=t, worker=i)

        G = norm_screen(GradientSet(grads), cfg.screen)
        if not np.all(np.isfinite(G)):
            raise NumericError(f"iteration {t}: non-finite aggregated gradient")

        trace.aggregated[t] = G
        trace.aggregated_norms[t] = np.linalg.norm(G)
        trace.objective_estimates[t] = honest_objs.mean()
        trace.worker_norms[t] = np.linalg.norm(grads, axis=1)

        theta = theta - cfg.eta * G
        if not np.all(np.isfinite(theta)):
            raise NumericError(f"iteration {t}: iterate diverged to non-finite values")

    trace.theta_final = theta
    return trace


def _ascent_error_factor(model, dro: DROConfig):
    # per-step contraction of ||z - z*|| for the quadratic family
    return abs(1.0 - dro.eta_z * (dro.lam - model.curvature))


def with_diagnostics(model, X, Y, trace: RunTrace, dro: DROConfig, true_solver_t_z=400):
    """A copy of the trace with the true-gradient diagnostics filled in.

    At every recorded iterate: the surrogate objective and gradient over all
    samples, and the worst distance of a worker-precision ascent (``dro``,
    the run's inner settings) from the exact maximizer. The quadratic family
    uses the closed-form maximizer and the analytic error factor; other
    losses use a ``true_solver_t_z``-step ascent at the theoretical step size
    and measure the error against it.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    T, d = trace.aggregated.shape
    quadratic = isinstance(model, QuadraticLoss)
    precise = DROConfig(dro.lam, theoretical_ascent_step(dro.lam), true_solver_t_z)
    true_gradients, true_objectives, inner_eps = np.empty((T, d)), np.empty(T), np.empty(T)
    for t, theta in enumerate(trace.iterates):
        if quadratic:
            z_star = exact_inner_maximizer(model, theta, X, dro.lam)
            start_dist = np.linalg.norm(X - z_star, axis=1).max()
            inner_eps[t] = _ascent_error_factor(model, dro) ** dro.t_z * start_dist
        else:
            z_star = ascend(model, theta, X, Y, precise)
            z_eps = ascend(model, theta, X, Y, dro)
            inner_eps[t] = np.linalg.norm(z_eps - z_star, axis=1).max()
        true_objectives[t] = penalized_objectives(model, theta, z_star, Y, X, dro.lam).mean()
        true_gradients[t] = model.mean_grad_theta(theta, z_star, Y)
    return replace(trace, true_gradients=true_gradients, true_objectives=true_objectives,
                   inner_eps=inner_eps)


def variant_config(variant, cfg: TrainConfig, roster: WorkerRoster):
    """Per-variant surgery: which of the two robustness measures stay on.

    alg2 keeps both; dro_only drops screening (plain averaging); nbs_only
    drops the data perturbation (zero ascent steps); erm drops both.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    new_cfg, new_roster = cfg, roster
    if variant in ("dro_only", "erm"):
        new_cfg = replace(new_cfg, screen=ScreenConfig(0))
        if roster.byzantine:
            new_roster = replace(roster, allow_excess_byzantine=True)
    if variant in ("nbs_only", "erm"):
        new_cfg = replace(new_cfg, dro=replace(new_cfg.dro, t_z=0))
    return new_cfg, new_roster


def run_variant(variant, model, X, Y, roster: WorkerRoster, cfg: TrainConfig) -> RunTrace:
    new_cfg, new_roster = variant_config(variant, cfg, roster)
    return run_training(model, X, Y, new_roster, new_cfg)


def gradient_dispersion(model, X, Y, theta, lam, precision_t_z=400):
    """Largest distance from a single-sample surrogate gradient to their mean.

    Maximizers are solved to high precision by running the ascent for
    precision_t_z steps at the theoretical step size.
    """
    dro = DROConfig(lam, theoretical_ascent_step(lam), precision_t_z)
    Z = ascend(model, theta, np.asarray(X, dtype=float), np.asarray(Y, dtype=float), dro)
    per_sample = model.grads_theta(theta, Z, np.asarray(Y, dtype=float))
    mean = per_sample.mean(axis=0)
    return float(np.linalg.norm(per_sample - mean, axis=1).max())
