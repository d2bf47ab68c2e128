"""Synchronous distributed training rounds with byzantine gradient injection.

Each round the server broadcasts the iterate; honest workers run the inner
maximization over their shard and report the mean surrogate gradient;
byzantine workers report crafted vectors instead. The server screens by
norm, averages the survivors, and steps. The honest rows are gathered once
before the loop, so one batched ascent per round (``worker_reports``) serves
every honest worker and each worker's mean is a segment reduction. That
ascent is a scalar recursion on a line through each row: one coefficient per
row for the logistic loss, one coefficient shared by every row for the
quadratic. The reports come from those coefficients without an (n, d)
perturbed matrix: for the logistic loss, worker j's gradient sum is one
matrix-vector product X_j^T r_j over its rows plus a segment sum of r * c
times theta; for the quadratic, c * (1 + k) times segment sums of theta - x.
Everything is deterministic for a fixed seed: worker order, reduction order,
and attack randomness are all pinned, so two runs with the same config
produce bit-identical traces.

The round loop runs only the algorithm. The trace records every iterate, so
the diagnostics the bound checkers need (the true surrogate gradient and
objective over all samples and the worst-case inner-solve error) are
computed after the run by ``with_diagnostics``; they never feed back into
the update. They, and ``gradient_dispersion``, are taken at the exact inner
maximizer (``surrogate.exact_rows``): in closed form for the quadratic family,
by a bracketed scalar root solve per row for the logistic loss.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .aggregation import GradientSet, ScreenConfig, norm_screen
from .attacks import AttackSpec, craft
from .errors import ConfigError, NumericError, RegimeError
from .losses import LogisticLoss, QuadraticLoss
from .surrogate import DROConfig, exact_rows, line_ascent, line_surrogate, quadratic_surrogate

VARIANTS = ("alg2", "dro_only", "nbs_only", "erm")
# cap, in floats, on each (B, n, d) temporary of the blocked quadratic diagnostics
DIAGNOSTIC_BLOCK_ELEMENTS = 2 ** 13


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

    def prefix(self, rounds):
        """The first ``rounds`` rounds, bit-equal to a run stopped there.

        A round depends only on the rounds before it, so every per-round
        field is cut to its first ``rounds`` rows and ``theta_final`` is the
        iterate that followed them.
        """
        if not 1 <= rounds <= self.iterations:
            raise ConfigError(f"prefix needs 1 <= rounds <= {self.iterations}, got {rounds}")
        if rounds == self.iterations:
            return self
        per_round = {f.name: getattr(self, f.name)[:rounds] for f in fields(self)
                     if f.name not in ("eta", "theta_final") and getattr(self, f.name) is not None}
        return replace(self, theta_final=self.iterates[rounds], **per_round)


def initial_theta(dim, seed):
    """Seeded small random initialization, shared across compared variants."""
    rng = np.random.default_rng([seed, 0x7E])
    return 0.01 * rng.standard_normal(dim)


def worker_reports(model, theta, X, Y, counts, dro: DROConfig):
    """Honest workers' reports: (mean surrogate gradients, mean inner objectives).

    ``X`` and ``Y`` hold the workers' rows back to back, ``counts[j]`` rows
    for worker j. One ascent runs over all rows; each worker's gradient is the
    loss gradient at the ascent output averaged over its rows, evaluated from
    the line coefficients (``line_surrogate``, ``quadratic_surrogate``)
    without forming the ascent output. A logistic worker's gradient sum is
    X_j^T r_j + (sum of r * c) * theta over its rows X_j, the first term one
    BLAS product per worker; the objectives and the quadratic sums are
    segment sums. Returns a (k, d) gradient matrix and a (k,) objective
    vector for the k workers.
    """
    counts = np.asarray(counts, dtype=int)
    if counts.ndim != 1 or counts.size == 0 or counts.min() < 1 or counts.sum() != len(X):
        raise ConfigError(f"row counts {counts.tolist()} must be positive and sum to {len(X)}")
    ends = np.cumsum(counts)
    starts = ends - counts
    if isinstance(model, LogisticLoss):
        r, c, objectives = line_surrogate(theta, X, Y, dro)
        grad_sums = np.add.reduceat(r * c, starts)[:, None] * theta
        for j, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            grad_sums[j] += r[s:e] @ X[s:e]
    else:
        D, rate, objectives = quadratic_surrogate(model, theta, X, dro)
        grad_sums = rate * np.add.reduceat(D, starts, axis=0)
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
        # The server's side of the round warns of nothing past the float
        # range: a byzantine report there gets norm inf and is screened, a
        # non-finite aggregate or iterate is refused below, and a finite G
        # past 1e154 has norm inf, which the records refuse by name.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in roster.byzantine:
                grads[i] = craft(roster.attack, honest_set, reference, iteration=t, worker=i)
            reports = GradientSet(grads)
            G = norm_screen(reports, cfg.screen)
            G_norm = np.linalg.norm(G)
            step = theta - cfg.eta * G
        if not np.isfinite(G).all():
            raise NumericError(f"iteration {t}: non-finite aggregated gradient")

        trace.aggregated[t] = G
        trace.aggregated_norms[t] = G_norm
        trace.objective_estimates[t] = honest_objs.mean()
        trace.worker_norms[t] = reports.norms()  # computed once, by the screen

        theta = step
        if not np.isfinite(theta).all():
            raise NumericError(f"iteration {t}: iterate diverged to non-finite values")

    trace.theta_final = theta
    return trace


def with_diagnostics(model, X, Y, trace: RunTrace, dro: DROConfig):
    """A copy of the trace with the true-gradient diagnostics filled in.

    At every recorded iterate: the surrogate objective and gradient over all
    samples at the exact inner maximizers (``exact_rows``, the same numbers
    as ``surrogate_state``), and the worst distance of a worker-precision
    ascent (``dro``, the run's inner settings) from them. For the quadratic
    family that distance is analytic, |1 - eta_z * (lam - c)|^t_z * max ||z* - x||,
    and the iterates go to ``exact_rows`` in blocks of B = DIAGNOSTIC_BLOCK_ELEMENTS
    // (n * d), at least 1: each (B, n, d) temporary (the gradients, and
    their squares inside the norm) holds at most that many floats, or one
    iterate's n * d when that is more. Every value is bit-equal to the
    iterate taken alone. For the logistic loss, one iterate at a time, both
    points lie on the line x + c * theta, so the distance is
    max |c_eps - c*| * ||theta|| with c_eps from ``line_ascent``. An iterate
    outside the strongly concave regime raises ``RegimeError`` naming it; the
    quadratic regime does not depend on theta, so that is iterate 0.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    T, d = trace.aggregated.shape
    true_gradients, true_objectives, inner_eps = np.empty((T, d)), np.empty(T), np.empty(T)
    if isinstance(model, QuadraticLoss):
        # per-step contraction of ||z - z*||, over lam: ||z* - x|| = ||theta-gradient|| / lam
        error_factor = abs(1.0 - dro.eta_z * (dro.lam - model.curvature)) ** dro.t_z / dro.lam
        block = max(1, DIAGNOSTIC_BLOCK_ELEMENTS // X.size)
        for start in range(0, T, block):
            stop = min(start + block, T)
            try:
                grads, objectives, _ = exact_rows(model, trace.iterates[start:stop], X, Y, dro.lam)
            except RegimeError as exc:
                raise RegimeError(f"iterate {start}: {exc}") from exc
            true_objectives[start:stop] = objectives.mean(axis=1)
            true_gradients[start:stop] = grads.mean(axis=1)
            inner_eps[start:stop] = error_factor * np.linalg.norm(grads, axis=2).max(axis=1)
    else:
        for t, theta in enumerate(trace.iterates):
            try:
                grads, objectives, c_star = exact_rows(model, theta, X, Y, dro.lam)
            except RegimeError as exc:
                raise RegimeError(f"iterate {t}: {exc}") from exc
            true_objectives[t] = objectives.mean()
            true_gradients[t] = grads.mean(axis=0)
            _, c_eps, sq_norm = line_ascent(theta, X, Y, dro)
            inner_eps[t] = np.abs(c_eps - c_star).max() * np.sqrt(sq_norm)
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


def gradient_dispersion(model, X, Y, theta, lam):
    """Largest distance from a single-sample surrogate gradient to their mean.

    The gradients are taken at the exact inner maximizers (``exact_rows``);
    for the quadratic family the dispersion is
    c * lam / (lam - c) * max ||x_i - mean x|| whatever theta is.
    """
    per_sample, _, _ = exact_rows(model, theta, X, Y, lam)
    mean = per_sample.mean(axis=0)
    return float(np.linalg.norm(per_sample - mean, axis=1).max())
