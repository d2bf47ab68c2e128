"""Synchronous distributed training rounds with byzantine gradient injection.

Each round the server broadcasts the iterate; honest workers run the inner
maximization over their shard and report the mean surrogate gradient;
byzantine workers report crafted vectors instead. The server screens by
norm, averages the survivors, and steps. Worker j's shard is the j-th of m
equal contiguous blocks of the N training rows (``train_runs`` refuses an N
that m does not divide), and workers 0 .. alpha_m - 1 are byzantine, so
before the loop the rows are viewed as an (m, n, d) block and the k honest
workers' rows are its last k blocks: a C-ordered (k, n, d) view for one
run, copied once into C order for a batch of several. The honest side of
the rounds is set up once, before round 0, in a ``ReportPlan``: the block's
(k * n, d) row view and labels, the workers' segment starts, and for the
logistic loss eta_z * y, rho and every scratch buffer a round needs. Each
round, the reports are written back by slices, and one
``worker_reports(plan, theta)`` call does only the round's arithmetic: one
batched ascent that serves every honest worker, a scalar recursion on a
line through each row (``surrogate._line_steps``, one coefficient per row,
for the logistic loss; ``surrogate.quadratic_line_ascent``, one coefficient
shared by every row, for the quadratic). A report is the worker's mean
surrogate gradient and nothing else; it comes from those coefficients
without an (n, d) perturbed matrix: for the logistic loss, the k gradient sums are one stacked product r_j^T X_j over
the block (one matrix-vector product per worker) plus, when the ascent
takes steps, segment sums of r * c times theta, with
r = sigmoid(theta . x + c * ||theta||^2) - y; for the quadratic,
c * (1 + k) times segment sums of theta - x. A report that is not finite is
refused in the round, and so is a logistic inner penalty
lam * c^2 * ||theta||^2 / 2 that overflows the inner objective, in the
round where it breaks. A run's byzantine side is ruled by its
``WorkerRoster``: an attack for any byzantine worker, and for the
counterexample attack the TARGET_RANK + 1 = 2 honest workers it ranks, both
refused when the roster is built. The batch's attack is set up once, before
round 0 (``AttackPlan``: the runs grouped by kind and each intelligent run's
directions built, one generator per byzantine worker drawn a block of
rounds at a time), and the byzantine rows of a round come from one
``craft`` call that only does the round's arithmetic; round t's direction
is each generator's t-th vector, so a run of T rounds is the first T
rounds of a longer one.
With zero ascent steps (t_z = 0) the reports are the plain logistic
gradient r_j^T X_j with r = sigmoid(theta . x) - y, and with
screen_count = 0 the screen keeps every report without ranking them; both
are bit-equal to the general path.
Everything is deterministic for a fixed seed: worker order, reduction order,
and attack randomness are all pinned, so two runs with the same config
produce bit-identical traces.

The loop runs R runs at once over a leading run axis (``train_runs``): an
(R, k, n, d) block, (R, d) iterates, and per round one ascent over the
block, one stacked ``craft`` call for the (R, a, d) byzantine rows of every
run and one screen of the (R, m, d) reports. The runs of a batch share the
roster shape, the row count, the inner settings and the number of rounds;
each keeps its own data, step size, initial iterate and attack, with its own
directions. Every product over the run axis is the stacked form of the
run's own, so each run's trace is bit-equal to the run trained alone.
``run_training`` is the batch of one.

The logistic ascent over a worker block has one implementation, the
plan's: ``_ascend`` runs it into the plan's buffers, and ``_objective_sums``
turns its output into each worker's sum of inner objectives. The round
loop runs only the algorithm: it forms no inner objective, and checks the
penalty against the objective's overflow from max |c| and ||theta||^2,
which it already holds (only a penalty above the plan's cap has its
objectives formed, from the round's own coefficients, to decide). The
record's objective estimate, the mean honest-worker logistic inner
objective at the last iterate theta_{T-1}, is taken after the run by
``honest_objective``, through a plan over the same honest block, with the
same ascent and reductions as a round would use. The trace records every
iterate, so the diagnostics the bound checkers need (the true surrogate
gradient and objective over all samples and the worst-case inner-solve
error) are computed after the run by ``with_diagnostics``, in one loop over
blocks of iterates for both families; they never feed back into the update. They, and
``gradient_dispersion`` at a single iterate, are taken at the exact inner
maximizer (``surrogate.exact_rows``): in closed form for the quadratic family,
by a bracketed scalar root solve per row for the logistic loss.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .aggregation import ScreenConfig, norm_screen
from .attacks import COUNTEREXAMPLE, TARGET_RANK, AttackPlan, AttackSpec, craft
from .errors import ConfigError, NumericError, RegimeError, require_count, require_positive
from .losses import LogisticLoss, QuadraticLoss, sigmoid
from .surrogate import (DROConfig, _check_rows, _line_rows, _line_steps, _margins, exact_rows,
                        line_ascent, quadratic_line_ascent)

# cap, in floats, on each (B, n, d) temporary of the blocked diagnostics (256 kB):
# 27 iterates of verify's 200 x 6 quadratic rows, one of the experiments' logistic data
DIAGNOSTIC_BLOCK_ELEMENTS = 2 ** 15


@dataclass
class WorkerRoster:
    """m workers, the first alpha_m of them byzantine, and their attack behavior.

    Worker j holds the j-th of m equal contiguous blocks of the training
    rows: rows [j * n, (j + 1) * n) of N = m * n. Workers 0 .. alpha_m - 1
    are byzantine and the other m - alpha_m honest. A caller that wants
    another partition or byzantine set orders the rows first. The roster
    holds every rule of the run's byzantine side, checked when it is built:
    at least one honest worker, an attack for any byzantine worker, and for
    the counterexample attack the TARGET_RANK + 1 honest workers it ranks.
    """

    m: int
    alpha_m: int = 0
    attack: AttackSpec | None = None

    def __post_init__(self):
        self.m = require_count("m", self.m, 1)
        self.alpha_m = require_count("alpha_m", self.alpha_m, 0)
        if self.alpha_m >= self.m:
            raise ConfigError(f"alpha_m must be < m={self.m} so that a worker is honest, "
                              f"got {self.alpha_m}")
        if self.alpha_m and self.attack is None:
            raise ConfigError(f"alpha_m={self.alpha_m} byzantine workers need an attack, got none")
        honest = self.m - self.alpha_m
        if self.alpha_m and self.attack.kind == COUNTEREXAMPLE and honest <= TARGET_RANK:
            raise ConfigError(f"the counterexample attack needs at least {TARGET_RANK + 1} "
                              f"honest workers, got {honest}")

    @property
    def byzantine(self):
        return range(self.alpha_m)


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


class ReportPlan:
    """The honest side of a batch's rounds, set up once before round 0.

    ``X`` is a (k, n, d) block holding worker j's n rows at ``X[j]`` and
    ``Y`` the (k, n) labels; or, for R runs at once, an (R, k, n, d) block
    and (R, k, n) labels. The plan keeps the block C-ordered (copied only if
    it is not) with its (..., k * n, d) row view and labels, the segment
    starts of the k workers, n and the inner settings ``dro``. For the
    logistic loss it also holds eta_z * y, rho = 1 - eta_z * lam and the
    round's scratch buffers: the margins, c, the step buffer and the
    sigmoid's output, so that ``worker_reports`` allocates only what it
    returns and a segment sum.
    """

    def __init__(self, model, X, Y, dro: DROConfig):
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        if X.ndim not in (3, 4) or 0 in X.shape or Y.shape != X.shape[:-1]:
            raise ConfigError(f"expected a (k, n, d) row block with (k, n) labels, or each "
                              f"with a leading run axis, got shapes {X.shape} and {Y.shape}")
        *runs, k, n, d = X.shape
        self.block = np.ascontiguousarray(X)
        self.rows = self.block.reshape(*runs, k * n, d)
        self.labels = np.ascontiguousarray(Y).reshape(*runs, k * n)
        self.theta_shape, self.n, self.starts = (*runs, d), n, np.arange(0, k * n, n)
        # r as one (1, n) row per worker, and the reports it gives
        self.residual_shape, self.report_shape = (*runs, k, 1, n), (*runs, k, d)
        self.model, self.dro, self.logistic = model, dro, isinstance(model, LogisticLoss)
        if self.logistic:
            self.eta_y, self.rho = dro.eta_z * self.labels, 1.0 - dro.eta_z * dro.lam
            # no objective sum of n rows with penalties below this overflows
            self.penalty_cap = np.finfo(float).max / (4 * n)
            self.margins = np.empty((*runs, k * n, 1))
            self.c, self.v, self.neg_margins = (np.empty(self.labels.shape) for _ in range(3))


def worker_reports(plan: ReportPlan, theta):
    """Honest workers' reports at ``theta``: their mean surrogate gradients.

    ``theta`` is the (d,) iterate, or (R, d) for a plan of R runs, each run's
    reports bit-equal to a plan of its own. One ascent runs over all the rows
    (``surrogate._line_steps`` for the logistic loss,
    ``surrogate.quadratic_line_ascent`` for the quadratic); each worker's gradient is the loss gradient at the ascent
    output averaged over its rows, evaluated from the line coefficients
    without forming the ascent output. A logistic worker's gradient sum is
    X_j^T r_j + (sum of r * c) * theta over its rows, with
    r = sigmoid(theta . x + c * ||theta||^2) - y, the first terms one stacked
    product over the block; at t_z = 0, z = x, so r is the plain
    sigmoid(theta . x) - y and the sum is X_j^T r_j alone (bit-equal to the
    general formula: theta . x + 0 * ||theta||^2 differs from theta . x only
    at -0.0, where sigmoid is 0.5 either way). A quadratic worker's is
    c * (1 + k) times the segment sum of theta - x. Returns a new (k, d)
    gradient matrix, (R, k, d) for R runs.

    Refused with ``NumericError``: a non-finite theta, ||theta||^2, margin
    or row of theta - x; a diverging ascent, named by its first diverging
    step; a logistic inner penalty lam * c^2 * ||theta||^2 / 2 that makes a
    row's inner objective or a worker's sum of them overflow, named as
    ``honest_objective`` names it (checked exactly only when max |c| puts a
    penalty above the plan's cap); and a report that is not finite, with the
    worker's first row. A ``NumericError`` row indexes the block's rows in
    order: row i lies in run i // (k * n) and in worker i % (k * n) // n of
    that run.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != plan.theta_shape:
        raise ConfigError(f"expected an iterate of shape {plan.theta_shape}, got {theta.shape}")
    dro = plan.dro
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused
        if plan.logistic:
            margins, c, sq_norm, steps = _ascend(plan, theta)
            r = plan.v
            if dro.t_z:
                # nan or inf if a coefficient is, and the largest penalty otherwise
                top = float(np.abs(c, out=plan.v).max())
                if not dro.lam * (0.5 * (top * top) * float(sq_norm.max())) <= plan.penalty_cap:
                    _objective_sums(plan, margins, c, sq_norm, steps)
                # theta . z with z = x + c * theta
                np.add(margins, np.multiply(c, sq_norm, out=r), out=r)
                sigmoid(r, out=r)
            else:
                sigmoid(margins, out=r)
            r -= plan.labels
            grad_sums = np.matmul(r.reshape(plan.residual_shape),
                                  plan.block).reshape(plan.report_shape)
            if dro.t_z:
                c_sums = np.add.reduceat(np.multiply(r, c, out=plan.neg_margins), plan.starts,
                                         axis=-1)
                grad_sums += c_sums[..., None] * theta[..., None, :]
        else:
            line_k, D = quadratic_line_ascent(plan.model, theta, plan.rows, dro)  # z = x - k * D
            grad_sums = (plan.model.curvature * (1.0 + line_k)
                         * np.add.reduceat(D, plan.starts, axis=-2))
        grad_sums /= plan.n
    if not np.isfinite(grad_sums).all():  # name each such worker's first row
        refused = np.flatnonzero(~np.isfinite(grad_sums).all(axis=-1))
        raise NumericError("non-finite gradient report", rows=plan.n * refused)
    return grad_sums


def _ascend(plan, theta):
    """The logistic ascent of a round over the plan's rows, into its buffers.

    ``theta`` has the plan's iterate shape. Returns (margins, c, ||theta||^2,
    steps): the margins theta . x, the line coefficients after dro.t_z steps
    of ``surrogate._line_steps`` (the scalar 0.0 at t_z = 0, with no step),
    the squared norms and the ``_line_steps`` arguments that took them (None
    at t_z = 0). The margins and c are views of the plan's buffers, valid
    until its next ascent. A non-finite theta, ||theta||^2 or margin raises
    ``NumericError``; c is not checked. The caller ignores numpy's overflow
    and invalid warnings.
    """
    margins, sq_norm = _margins(theta, plan.rows, out=plan.margins)
    if not plan.dro.t_z:  # no step: z = x
        return margins, 0.0, sq_norm, None
    steps = (plan.c, plan.v, np.negative(margins, out=plan.neg_margins), sq_norm, plan.eta_y,
             plan.dro.eta_z, plan.rho, plan.dro.t_z)
    _line_steps(*steps)
    return margins, plan.c, sq_norm, steps


def _objective_sums(plan, margins, c, sq_norm, steps):
    """Each worker's sum of its n rows' logistic inner objectives at an ``_ascend`` output.

    A row's objective is the cross-entropy at theta . z minus
    lam * c^2 * ||theta||^2 / 2 (``surrogate._line_rows``), whose c terms are
    exactly zero at t_z = 0, so the plain cross-entropy's bits. Returns the
    (..., k) sums. Refused with ``NumericError``: a non-finite coefficient,
    named by its first diverging step (the ascent reruns from c = 0,
    checking every step); a row whose objective overflows, as a divergence
    at step t_z; and a worker's sum that overflows, naming the worker's
    first row. The caller ignores numpy's overflow and invalid warnings.
    """
    if steps is not None and not np.isfinite(c).all():
        _line_steps(*steps, check=True)  # raises at the first diverging step
    _, objectives = _line_rows(margins, c, sq_norm, plan.labels, plan.dro.lam)
    _check_rows(objectives, f"inner ascent diverged at step {plan.dro.t_z}")
    sums = np.add.reduceat(objectives, plan.starts, axis=-1)
    if not np.isfinite(sums).all():
        raise NumericError("inner objective sum overflows",
                           rows=plan.n * np.flatnonzero(~np.isfinite(sums)))
    return sums


def honest_objective(X, Y, roster, dro: DROConfig, trace):
    """The mean honest-worker logistic inner objective at the run's last iterate theta_{T-1}.

    ``X``, ``Y``, ``roster`` and ``dro`` are those of a logistic run and
    ``trace`` its ``RunTrace``. A ``ReportPlan`` over the honest block, gathered
    as ``train_runs`` gathers it, runs a round's ascent (``_ascend``), and
    the per-row objectives (``_objective_sums``) are reduced as a round
    would: a sum per worker over its rows divided by n, then a sum over the
    k workers divided by k. A ``NumericError`` (a sum that overflows
    included) names the iteration T - 1 and the worker. The inputs are
    taken as the run's training validated them.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    plan = ReportPlan(LogisticLoss(), *_honest_block(X[None], Y[None], roster), dro)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused
            sums = _objective_sums(plan, *_ascend(plan, trace.iterates[-1:]))  # (1, k)
    except NumericError as exc:
        row = 0 if exc.rows is None else exc.rows[0]
        raise NumericError(f"iteration {trace.iterations - 1}, "
                           f"worker {roster.alpha_m + row // plan.n}: {exc}") from exc
    return float(np.add.reduce(sums / plan.n, axis=1)[0] / sums.shape[1])


def _honest_block(X, Y, roster):
    """((R, k, n, d) rows, (R, k, n) labels) of the k honest workers of R runs.

    ``X`` is (R, N, d) and ``Y`` (R, N); worker j's rows are the j-th of the
    roster's m contiguous blocks, so the honest workers' rows are the blocks
    after the first alpha_m: a view, C-ordered for one run.
    """
    m, a = roster.m, roster.alpha_m
    R, N, d = X.shape
    return X.reshape(R, m, N // m, d)[:, a:], Y.reshape(R, m, N // m)[:, a:]


# what the runs of one batch share: (field, its value for a run's roster and config)
_SHARED = (
    ("m", lambda roster, cfg: roster.m),
    ("alpha_m", lambda roster, cfg: roster.alpha_m),
    ("screen_count", lambda roster, cfg: cfg.screen.screen_count),
    ("dro", lambda roster, cfg: cfg.dro),
    ("iterations", lambda roster, cfg: cfg.iterations),
)


def train_runs(model, X, Y, rosters, cfgs):
    """Train R runs as one batch: one round loop over a leading run axis.

    ``X`` is (R, N, d) and ``Y`` (R, N); run r trains on ``X[r]``, ``Y[r]``
    with ``rosters[r]`` and ``cfgs[r]``, and its trace is bit-equal to
    ``run_training(model, X[r], Y[r], rosters[r], cfgs[r])``. Worker j of
    every run holds the j-th of m contiguous blocks of its N rows, which m
    must divide (``ConfigError`` naming both), and workers 0 .. alpha_m - 1
    are byzantine. The runs share N through the shape of ``X`` and must
    share m, alpha_m, screen_count, dro and iterations (``ConfigError``
    naming the field and the run); each keeps its own data, eta, seed or
    theta0 and attack, which its roster has checked. With byzantine workers
    the batch builds one ``AttackPlan`` before round 0, and each round makes
    one ``craft`` call, over the stack of every run's honest reports, and one
    ``norm_screen`` call, however many runs there are. In a
    batch of more than one run, an error a run raises names it ("run r, "),
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
    m, a, T, screen_count = roster.m, roster.alpha_m, cfg.iterations, cfg.screen.screen_count
    if N < m or N % m:
        raise ConfigError(f"N={N} rows do not split into m={m} equal non-empty worker blocks")

    # run-major, so that each run's fields are contiguous; the loop writes
    # round t of every run through round-major views
    run_major = dict(aggregated=np.empty((R, T, d)), worker_norms=np.empty((R, T, m)),
                     iterates=np.empty((R, T, d)))
    aggregated, worker_norms, iterates = (v.swapaxes(0, 1) for v in run_major.values())
    report_plan = ReportPlan(model, *_honest_block(X, Y, roster), cfg.dro)
    k, n = m - a, N // m
    grads = np.empty((R, m, d))  # every report of the round; nothing keeps it past the round
    attack_plan = (AttackPlan([run.attack for run in rosters], roster.byzantine, T, d)
                   if a else None)

    # The round warns of nothing past the float range: the honest reports
    # run under these settings already, a byzantine report there gets norm
    # inf and is screened, and a non-finite aggregate or iterate is refused
    # in its round. One errstate holds for every round.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            iterates[t] = theta
            try:
                honest_grads = worker_reports(report_plan, theta)
            except NumericError as exc:
                # a failure without rows (a non-finite theta of one run) hits every worker
                run, row = divmod(0 if exc.rows is None else exc.rows[0], k * n)
                raise NumericError(f"{label[run]}iteration {t}, worker {a + row // n}: "
                                   f"{exc}") from exc
            grads[:, a:] = honest_grads
            if attack_plan is not None:
                # np.mean's sum and division, without its overhead
                references = np.add.reduce(honest_grads, axis=1) / k
                grads[:, :a] = craft(attack_plan, honest_grads, references, t)
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
    A quadratic block's gradients are row-major ((n, B, d) in memory), so
    their mean over the n rows adds B * d contiguous floats at a time.
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


def gradient_dispersion(model, X, Y, theta, lam):
    """Largest distance from a single-sample surrogate gradient to their mean.

    The gradients are taken at the exact inner maximizers (``exact_rows``);
    for the quadratic family the dispersion is
    c * lam / (lam - c) * max ||x_i - mean x|| whatever theta is.
    """
    per_sample, _, _ = exact_rows(model, theta, X, Y, lam)
    mean = per_sample.mean(axis=0)
    return float(np.linalg.norm(per_sample - mean, axis=1).max())
