"""Synchronous distributed training rounds with byzantine gradient injection.

Each round the server broadcasts the iterate; honest workers run the inner
maximization over their shard and report the mean surrogate gradient;
byzantine workers report crafted vectors instead. The server screens by
norm, averages the survivors, and steps. Every shard holds the same number
of rows (``validate_roster`` refuses unequal sizes), so before the loop the
k honest shards are gathered once into one (k, n, d) block, and one batched
ascent per round (``worker_reports``) serves every honest worker. That
ascent is a scalar recursion on a line through each row: one coefficient per
row for the logistic loss, one coefficient shared by every row for the
quadratic. A report is the worker's mean surrogate gradient and nothing
else; it comes from those coefficients without an (n, d) perturbed matrix:
for the logistic loss, the k gradient sums are one stacked product
r_j^T X_j over the block (one matrix-vector product per worker) plus, when
the ascent takes steps, segment sums of r * c times theta; for the
quadratic, c * (1 + k) times segment sums of theta - x. A report that is
not finite is refused in the round. The batch's attack is set up once,
before round 0 (``AttackPlan``: the runs grouped by kind, every
counterexample target_rank checked and each intelligent run's directions
built, one generator per byzantine worker drawn a block of rounds at a
time), and the byzantine rows of a round come from one ``craft`` call that
only does the round's arithmetic; round t's direction is each generator's
t-th vector, so a run of T rounds is the first T rounds of a longer one.
With zero ascent steps (t_z = 0) the reports are the plain logistic
gradient r_j^T X_j, and with screen_count = 0 the screen keeps every report
without ranking them; both are bit-equal to the general path.
Everything is deterministic for a fixed seed: worker order, reduction order,
and attack randomness are all pinned, so two runs with the same config
produce bit-identical traces.

The loop runs R runs at once over a leading run axis (``train_runs``): an
(R, k, n, d) block, (R, d) iterates, and per round one ascent over the
block, one stacked ``craft`` call for the (R, a, d) byzantine rows of every
run and one screen of the (R, m, d) reports. The runs of a batch share the
roster shape, the inner settings and the number of rounds; each keeps its
own data, shards, step size, initial iterate and attack, with its own
directions. Every product over the run axis is the stacked form of the
run's own, so each run's trace is bit-equal to the run trained alone.
``run_training`` is the batch of one.

The round loop runs only the algorithm: it forms no inner objective. The
record's objective estimate, the mean honest-worker inner objective at the
last iterate theta_{T-1}, is taken after the run by ``honest_objective``,
over the same honest block and with the same ascent and reductions as a
round would use. The trace records every iterate, so the diagnostics the
bound checkers need (the true surrogate gradient and objective over all
samples and the worst-case inner-solve error) are computed after the run by
``with_diagnostics``, in one loop over blocks of iterates for both
families; they never feed back into the update. They, and
``gradient_dispersion`` at a single iterate, are taken at the exact inner
maximizer (``surrogate.exact_rows``): in closed form for the quadratic family,
by a bracketed scalar root solve per row for the logistic loss.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .aggregation import ScreenConfig, norm_screen
from .attacks import AttackPlan, AttackSpec, craft
from .errors import ConfigError, NumericError, RegimeError, require_count, require_positive
from .losses import LogisticLoss, QuadraticLoss
from .surrogate import (DROConfig, exact_rows, inner_objectives, line_ascent, line_surrogate,
                        quadratic_surrogate)

VARIANTS = ("alg2", "dro_only", "nbs_only", "erm")
# cap, in floats, on each (B, n, d) temporary of the blocked diagnostics
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


def validate_roster(roster: WorkerRoster, n_samples, screen_count):
    seen = np.concatenate([np.asarray(s, dtype=int) for s in roster.shards])
    if seen.size == 0:
        raise ConfigError("empty shards")
    if seen.min() < 0 or seen.max() >= n_samples:
        raise ConfigError(f"shard indices out of range [0, {n_samples})")
    if np.unique(seen).size != seen.size:
        raise ConfigError("shards overlap")
    sizes = sorted({len(s) for s in roster.shards})
    if sizes[0] == 0:
        raise ConfigError("every worker needs a non-empty shard")
    if len(sizes) > 1:
        raise ConfigError(f"every shard must hold the same number of rows, got sizes {sizes}")
    if len(roster.byzantine) > screen_count and not roster.allow_excess_byzantine:
        raise ConfigError(
            f"{len(roster.byzantine)} byzantine workers exceed screen_count="
            f"{screen_count}; set allow_excess_byzantine to demo this regime"
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
        self.eta = require_positive("eta", self.eta)
        self.iterations = require_count("iterations", self.iterations, 1)
        self.seed = require_count("seed", self.seed, 0)


@dataclass
class RunTrace:
    aggregated: np.ndarray           # (T, d)
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
                     if f.name != "theta_final" and getattr(self, f.name) is not None}
        return replace(self, theta_final=self.iterates[rounds], **per_round)


def initial_theta(dim, seed):
    """Seeded small random initialization, shared across compared variants."""
    rng = np.random.default_rng([seed, 0x7E])
    return 0.01 * rng.standard_normal(dim)


def worker_reports(model, theta, X, Y, dro: DROConfig):
    """Honest workers' reports: their mean surrogate gradients.

    ``X`` is a (k, n, d) block holding worker j's n rows at ``X[j]``, ``Y``
    the (k, n) labels and ``theta`` the (d,) iterate; or, for R runs at once,
    an (R, k, n, d) block, (R, k, n) labels and (R, d) iterates, each run's
    reports bit-equal to its own call. One ascent runs over all the rows;
    each worker's gradient is the loss gradient at the ascent output averaged
    over its rows, evaluated from the line coefficients (``line_surrogate``,
    ``quadratic_surrogate``) without forming the ascent output. A logistic
    worker's gradient sum is X_j^T r_j + (sum of r * c) * theta over its
    rows, the first terms one stacked product over the block; at t_z = 0 the
    coefficients are zero and the sum is X_j^T r_j alone. The quadratic sums
    are segment sums. Returns a (k, d) gradient matrix, (R, k, d) for R runs;
    a report that is not finite raises ``NumericError`` with the worker's
    first row. A ``NumericError`` row indexes the block's rows in order: row
    i lies in run i // (k * n) and in worker i % (k * n) // n of that run.
    """
    theta = np.asarray(theta, dtype=float)
    if (X.ndim not in (3, 4) or 0 in X.shape or Y.shape != X.shape[:-1]
            or theta.shape != X.shape[:-3] + X.shape[-1:]):
        raise ConfigError(f"expected a (k, n, d) row block with (k, n) labels and a (d,) "
                          f"iterate, or each with a leading run axis, got shapes {X.shape}, "
                          f"{Y.shape} and {theta.shape}")
    *runs, k, n, d = X.shape
    rows, labels = X.reshape(*runs, k * n, d), Y.reshape(*runs, k * n)
    starts = np.arange(0, k * n, n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite report is refused below
        if isinstance(model, LogisticLoss):
            r, c = line_surrogate(theta, rows, labels, dro)
            grad_sums = np.matmul(r.reshape(*runs, k, 1, n), X).reshape(*runs, k, d)
            if dro.t_z:
                c_sums = np.add.reduceat(r * c, starts, axis=-1)
                grad_sums += c_sums[..., None] * theta[..., None, :]
        else:
            D, rate = quadratic_surrogate(model, theta, rows, dro)
            grad_sums = rate * np.add.reduceat(D, starts, axis=-2)
        reports = grad_sums / n
    if not np.isfinite(reports).all():  # name each such worker's first row
        refused = np.flatnonzero(~np.isfinite(reports).all(axis=-1))
        raise NumericError("non-finite gradient report", rows=n * refused)
    return reports


def honest_objective(model, X, Y, roster, dro: DROConfig, trace):
    """The mean honest-worker inner objective at the run's last iterate theta_{T-1}.

    ``X``, ``Y``, ``roster`` and ``dro`` are the run's own and ``trace`` its
    ``RunTrace``. The honest block is gathered as ``train_runs`` gathers it,
    and the per-row objectives (``inner_objectives``) are reduced as a round
    would: a sum per worker over its rows divided by n, then a sum over the k
    workers divided by k. A ``NumericError`` (a sum that overflows included)
    names the iteration T - 1 and the worker. The inputs are taken as the
    run's training validated them.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    honest, honest_X, honest_Y = _honest_block(X[None], Y[None], [roster])
    _, k, n, d = honest_X.shape
    try:
        objectives = inner_objectives(model, trace.iterates[-1:], honest_X.reshape(1, k * n, d),
                                      honest_Y.reshape(1, k * n), dro)
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            sums = np.add.reduceat(objectives, np.arange(0, k * n, n), axis=-1)
        if not np.isfinite(sums).all():  # name each such worker's first row
            raise NumericError("inner objective sum overflows",
                               rows=n * np.flatnonzero(~np.isfinite(sums)))
    except NumericError as exc:
        row = 0 if exc.rows is None else exc.rows[0]
        raise NumericError(f"iteration {trace.iterations - 1}, worker {honest[row // n]}: "
                           f"{exc}") from exc
    return float(np.add.reduce(sums / n, axis=1)[0] / k)


def _honest_block(X, Y, rosters):
    """(honest ids, (R, k, n, d) rows, (R, k, n) labels) of the k honest workers of R runs."""
    honest = np.array(rosters[0].honest)
    shards = np.array([[np.asarray(run.shards[i], dtype=int) for i in honest]
                       for run in rosters])  # (R, k, n)
    run_axis = np.arange(len(rosters))[:, None, None]
    return honest, X[run_axis, shards], Y[run_axis, shards]


# what the runs of one batch share: (field, its value for a run's roster and config)
_SHARED = (
    ("m", lambda roster, cfg: roster.m),
    ("byzantine", lambda roster, cfg: roster.byzantine),
    ("shard rows", lambda roster, cfg: len(roster.shards[0])),
    ("screen_count", lambda roster, cfg: cfg.screen.screen_count),
    ("dro", lambda roster, cfg: cfg.dro),
    ("iterations", lambda roster, cfg: cfg.iterations),
)


def train_runs(model, X, Y, rosters, cfgs):
    """Train R runs as one batch: one round loop over a leading run axis.

    ``X`` is (R, N, d) and ``Y`` (R, N); run r trains on ``X[r]``, ``Y[r]``
    with ``rosters[r]`` and ``cfgs[r]``, and its trace is bit-equal to
    ``run_training(model, X[r], Y[r], rosters[r], cfgs[r])``. The runs must
    share m, the byzantine ids, the shard row count, screen_count, dro and
    iterations (``ConfigError`` naming the field and the run); each keeps its
    own data, shards, eta, seed or theta0 and attack. With byzantine
    workers the batch builds one ``AttackPlan`` before round 0, and each
    round makes one ``craft`` call, over the stack of every run's honest
    reports, and one ``norm_screen`` call, however many runs there are. In
    a batch of more than one run, an error a run raises names it ("run r, "),
    so a ``NumericError`` names the run, the iteration and the worker.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    R = len(rosters)
    if R < 1 or len(cfgs) != R or X.ndim != 3 or X.shape[0] != R or Y.shape != X.shape[:2]:
        raise ConfigError(f"expected (R, N, d) rows, (R, N) labels, R rosters and R configs "
                          f"for R >= 1 runs, got shapes {X.shape} and {Y.shape}, "
                          f"{R} rosters and {len(cfgs)} configs")
    label = [f"run {r}, " if R > 1 else "" for r in range(R)]
    _, N, d = X.shape
    theta = np.empty((R, d))
    for r, (roster, cfg) in enumerate(zip(rosters, cfgs)):
        validate_roster(roster, N, cfg.screen.screen_count)
        for field, value in _SHARED:
            if value(roster, cfg) != value(rosters[0], cfgs[0]):
                raise ConfigError(f"run {r}: {field}={value(roster, cfg)!r} differs from run "
                                  f"0's {value(rosters[0], cfgs[0])!r}; a batch shares it")
        theta0 = (initial_theta(d, cfg.seed) if cfg.theta0 is None
                  else np.array(cfg.theta0, dtype=float))
        if theta0.shape != (d,):
            raise ConfigError(f"{label[r]}theta0 must have shape ({d},), got {theta0.shape}")
        theta[r] = theta0
    eta = np.array([[cfg.eta] for cfg in cfgs])  # (R, 1)
    roster, cfg = rosters[0], cfgs[0]  # their shared fields
    m, T, screen_count = roster.m, cfg.iterations, cfg.screen.screen_count

    # run-major, so that each run's fields are contiguous; the loop writes
    # round t of every run through round-major views
    run_major = dict(aggregated=np.empty((R, T, d)), worker_norms=np.empty((R, T, m)),
                     iterates=np.empty((R, T, d)))
    aggregated, worker_norms, iterates = (a.swapaxes(0, 1) for a in run_major.values())
    honest, honest_X, honest_Y = _honest_block(X, Y, rosters)
    byzantine = np.array(roster.byzantine, dtype=int)
    k, n = honest_Y.shape[1:]
    grads = np.empty((R, m, d))  # every report of the round; nothing keeps it past the round
    plan = (AttackPlan([run.attack for run in rosters], roster.byzantine, k, T, d)
            if byzantine.size else None)

    for t in range(T):
        iterates[t] = theta
        try:
            honest_grads = worker_reports(model, theta, honest_X, honest_Y, cfg.dro)
        except NumericError as exc:
            # a failure without rows (a non-finite theta of one run) hits every worker
            run, row = divmod(0 if exc.rows is None else exc.rows[0], k * n)
            raise NumericError(f"{label[run]}iteration {t}, worker {honest[row // n]}: "
                               f"{exc}") from exc
        grads[:, honest] = honest_grads
        # The server's side of the round warns of nothing past the float
        # range: a byzantine report there gets norm inf and is screened, and
        # a non-finite aggregate or iterate is refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            if plan is not None:
                # np.mean's sum and division, without its overhead
                references = np.add.reduce(honest_grads, axis=1) / k
                grads[:, byzantine] = craft(plan, honest_grads, references, t)
            G, worker_norms[t] = norm_screen(grads, screen_count)
            step = theta - eta * G
        if not np.isfinite(step).all():  # also where G is not finite: one check for both
            _refuse_non_finite(G, f"iteration {t}: non-finite aggregated gradient", label)
            _refuse_non_finite(step, f"iteration {t}: iterate diverged to non-finite values",
                               label)
        aggregated[t] = G
        theta = step

    return [RunTrace(theta_final=theta[r], **{name: a[r] for name, a in run_major.items()})
            for r in range(R)]


def run_training(model, X, Y, roster: WorkerRoster, cfg: TrainConfig) -> RunTrace:
    """Run the full round loop and return the per-iteration trace: a batch of one run."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return train_runs(model, X[None], Y[None], [roster], [cfg])[0]


def _refuse_non_finite(vectors, message, label):
    """``NumericError`` naming the first run whose row of ``vectors`` is not all finite, if any."""
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise NumericError(label[np.argmin(finite)] + message)


def with_diagnostics(model, X, Y, trace: RunTrace, dro: DROConfig):
    """A copy of the trace with the true-gradient diagnostics filled in.

    At every recorded iterate: the surrogate objective and gradient over all
    samples at the exact inner maximizers (``exact_rows``, the same numbers
    as ``surrogate_state``), and the worst distance of a worker-precision
    ascent (``dro``, the run's inner settings) from them. The iterates go to
    ``exact_rows`` in blocks of B = max(1, DIAGNOSTIC_BLOCK_ELEMENTS // (n * d)),
    so each (B, n, d) temporary holds at most that many floats, or one
    iterate's n * d, and every value is bit-equal to the iterate taken alone.
    Only the distance depends on the family: analytic for the quadratic,
    |1 - eta_z * (lam - c)|^t_z * max ||z* - x||; for the logistic loss both
    points lie on the line x + c * theta, so it is max |c_eps - c*| * ||theta||
    with c_eps from ``line_ascent`` on the block. An iterate outside the
    strongly concave regime raises ``RegimeError`` naming the first one; the
    quadratic regime does not depend on theta, so that is iterate 0.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    T, d = trace.aggregated.shape
    true_gradients, true_objectives, inner_eps = np.empty((T, d)), np.empty(T), np.empty(T)
    block = max(1, DIAGNOSTIC_BLOCK_ELEMENTS // X.size)
    for start in range(0, T, block):
        rounds, theta = slice(start, start + block), trace.iterates[start:start + block]
        try:
            grads, objectives, c_star = exact_rows(model, theta, X, Y, dro.lam)
        except RegimeError as exc:
            raise RegimeError(f"iterate {start + exc.iterate}: {exc}") from exc
        true_objectives[rounds] = objectives.mean(axis=1)
        true_gradients[rounds] = grads.mean(axis=1)
        if isinstance(model, QuadraticLoss):  # ||z* - x|| = ||theta-gradient|| / lam
            factor = abs(1.0 - dro.eta_z * (dro.lam - model.curvature)) ** dro.t_z / dro.lam
            inner_eps[rounds] = factor * np.linalg.norm(grads, axis=2).max(axis=1)
        else:  # z_eps and z* on the line x + c * theta
            _, c_eps, sq_norm = line_ascent(theta, X, Y, dro)
            inner_eps[rounds] = np.abs(c_eps - c_star).max(axis=1) * np.sqrt(sq_norm[:, 0])
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
