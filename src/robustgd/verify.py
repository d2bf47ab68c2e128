"""Numerical verification suites: fuzzers and trace checks on synthetic families.

These back the ``verify`` CLI subcommand and the acceptance tests. Every
suite runs on problems with exact constants (the quadratic family) or on
randomized screening instances, and returns structured results instead of
printing, so callers decide how to report.

The screening fuzz draws its instances in one fixed sequence of generator
calls, so a seed names the same instances however they are checked. Each
instance's rows go straight into one zero-padded block of
``SCREENING_BLOCK_INSTANCES`` instances, which is checked and then refilled,
so memory stays at one block whatever the count. The block check computes
per instance only the reductions whose rounding depends on the width d (row
norms, honest gaps to S, ||S|| and ||mean - S||) and does the norm ranks,
the kept sum, c_alpha and the slack once per block. ``check_screening_bound``
stays the one-instance reference: tier-1 holds the block check to it bit for
bit.

The two trace suites check prefixes of shared runs. A round depends only on
the rounds before it, so the first T rounds of a longer run with the same
seed and attack are bit-equal to a T-round run (``RunTrace.prefix``). Each
suite declares the (seed, attack, rounds) uses it will make; ``run_all``
hands both suites one ``_SharedRuns`` built from both lists, which trains each
(seed, attack) pair once, at the longest horizon declared for it, and drops
it after its last use. At the defaults that is 30 runs and 5,200 rounds
instead of 60 runs and 7,400 rounds. A suite called alone builds the same
map from its own uses.
"""

import numbers
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import GradientSet, ScreenConfig, screening_coefficient
from .attacks import AttackSpec
from .bounds import (
    TheoryInputs,
    check_aggregate_deviation,
    check_avg_sq_gradient,
    check_distance,
    check_suboptimality,
    solve_reference_optimum,
    surrogate_smoothness,
)
from .data import even_shards, quadratic_cloud
from .errors import ConfigError, RegimeError
from .losses import QuadraticLoss
from .simulation import (
    DROConfig,
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    run_training,
    with_diagnostics,
)
from .surrogate import surrogate_state, theoretical_ascent_step


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _require_count(name, value):
    """``value`` as an int count of at least 1, or ``ConfigError`` naming ``name``.

    An integral real (5 or 5.0) is taken; a bool, a non-integral number or a
    string is refused.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer count, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return int(value)


SCREENING_BLOCK_INSTANCES = 32   # fuzz instances drawn and checked together: 0.8 MB of rows
FUZZ_MAX_WORKERS, FUZZ_MAX_DIM = 50, 64   # the largest m and d the fuzz draws


class _ScreeningBlock:
    """Fuzz instances zero-padded into one reused block of ``SCREENING_BLOCK_INSTANCES`` slots.

    Slot i holds an instance of ``m[i]`` rows of width ``d[i]`` in
    ``rows[i, :m[i], :d[i]]``, its reference vector in ``S[i, :d[i]]``, its
    honest rows as the True entries of ``honest[i]`` and its screen count in
    ``screened[i]``; the first ``size`` slots are filled.
    """

    def __init__(self):
        capacity, max_m, max_d = SCREENING_BLOCK_INSTANCES, FUZZ_MAX_WORKERS, FUZZ_MAX_DIM
        self.rows = np.zeros((capacity, max_m, max_d))
        self.S = np.zeros((capacity, max_d))
        self.honest = np.zeros((capacity, max_m), dtype=bool)
        self.m = np.zeros(capacity, dtype=np.int64)
        self.d = np.zeros(capacity, dtype=np.int64)
        self.screened = np.zeros(capacity, dtype=np.int64)
        self.size = 0
        self.scratch = np.empty(max_m * max_d)  # the draw's rows of one instance, unshuffled

    def clear(self):
        self.rows.fill(0.0)
        self.S.fill(0.0)
        self.honest.fill(False)
        self.size = 0

    def instance(self, i):
        """Slot i as ``check_screening_bound``'s arguments: views, valid until a refill."""
        m, d = int(self.m[i]), int(self.d[i])
        return (GradientSet(self.rows[i, :m, :d]), np.flatnonzero(self.honest[i, :m]),
                ScreenConfig(int(self.screened[i])), self.S[i, :d])


def _draw_screening_block(rng, block, count):
    """Replace the block's contents with the fuzz's next ``count`` instances.

    Each instance has m in [3, 50] workers of width d in [1, 64], b <= m/2 of
    them screened and a <= b byzantine. Its honest rows scatter around a
    random S; its byzantine rows follow one of four attacks (a multiple of
    -S, negated honest rows, huge noise, or -S/||S|| at the largest honest
    norm); then the rows are shuffled. The generator calls and their order
    are fixed: a seed names the same instances for as long as they are kept.
    """
    block.clear()
    for i in range(count):
        d = int(rng.integers(1, FUZZ_MAX_DIM + 1))
        m = int(rng.integers(3, FUZZ_MAX_WORKERS + 1))
        b = int(rng.integers(0, m // 2 + 1))       # screened fraction <= 1/2
        a = int(rng.integers(0, b + 1))            # corrupted fraction <= screened
        k = m - a
        scale = float(np.exp(rng.normal(0.0, 1.0)))
        S = rng.standard_normal(out=block.S[i, :d])
        S *= scale
        stacked = block.scratch[: m * d].reshape(m, d)
        honest, byz = stacked[:k], stacked[k:]
        rng.standard_normal(out=honest)
        honest *= scale
        honest += S
        mode = int(rng.integers(0, 4))
        if mode == 0:
            byz[:] = -rng.uniform(0.0, 3.0) * S
        elif mode == 1:
            np.negative(honest[rng.integers(0, k, size=a)], out=byz)
        elif mode == 2:
            rng.standard_normal(out=byz)
            byz *= 1e3 * scale
        else:
            radius = np.linalg.norm(honest, axis=1).max()
            s_norm = np.linalg.norm(S)
            byz[:] = -radius * (S / s_norm if s_norm > 0 else np.eye(d)[0])
        order = rng.permutation(m)
        block.rows[i, :m, :d] = stacked[order]
        block.honest[i, :m] = order < k
        block.m[i], block.d[i], block.screened[i] = m, d, b
    block.size = count


def _check_screening_block(block, first):
    """(c_alpha, delta, rhs, lhs) of each instance in the block, bit for bit as
    ``check_screening_bound`` computes them; lhs is ||screened mean - S||.

    Reductions whose rounding depends on the width d (the row norms, the
    honest gaps to S, ||S|| and ||mean - S||) and c_alpha run per instance
    with the formulas the oracle uses; the rest runs once for the block. An
    instance whose bound does not apply raises ``screening_coefficient``'s
    error naming the instance by its fuzz index (``first`` is slot 0's).
    """
    n = block.size
    m, d, b = block.m[:n], block.d[:n], block.screened[:n]
    honest = block.honest[:n]
    byz = (m - np.count_nonzero(honest, axis=1)).tolist()
    depth, width = int(m.max()), int(d.max())
    rows = block.rows[:n, :depth, :width]
    sizes = list(zip(m.tolist(), d.tolist()))

    norms = np.full((n, depth), np.nan)  # a padded row ranks after every row, NaN ones too
    gaps = np.zeros((n, depth))
    s_norm = np.empty(n)
    c_alpha = np.empty(n)
    with np.errstate(over="ignore"):  # a row past the float range has norm +inf, as in GradientSet
        for i, (mi, di) in enumerate(sizes):
            try:
                c_alpha[i] = screening_coefficient(byz[i], int(b[i]), mi)
            except (ConfigError, RegimeError) as err:
                raise type(err)(f"screening instance {first + i}: {err}") from None
            x, S = rows[i, :mi, :di], block.S[i, :di]
            np.add.reduce(x * x, axis=1, out=norms[i, :mi])
            g = x - S
            np.add.reduce(g * g, axis=1, out=gaps[i, :mi])
            s_norm[i] = S.dot(S)
    np.sqrt(norms, out=norms)
    np.sqrt(gaps, out=gaps)
    np.sqrt(s_norm, out=s_norm)

    # norm_screen's rule: keep the m - b smallest norms, ties to the lower index
    kept = m - b
    ranked = np.argsort(norms, axis=1, kind="stable")
    keep = np.empty((n, depth), dtype=bool)
    np.put_along_axis(keep, ranked, np.arange(depth) < kept[:, None], axis=1)
    # row by row in index order, as norm_screen adds; a dropped row adds nothing, and
    # starting from +0.0 gives the +0.0 norm_screen adds where every kept row is -0.0
    total = np.zeros((n, width))
    for j in range(depth):
        np.add(total, rows[:, j], out=total, where=keep[:, j, None])
    off = total / kept[:, None] - block.S[:n, :width]
    lhs = np.array([off[i, :di].dot(off[i, :di]) for i, (_, di) in enumerate(sizes)])
    np.sqrt(lhs, out=lhs)

    delta = np.max(gaps, axis=1, where=honest[:, :depth], initial=-np.inf)
    return c_alpha, delta, c_alpha * s_norm + delta, lhs


def _screening_fuzz_blocks(n_instances, seed):
    """Yield (block, fuzz index of its slot 0) for the fuzz's first ``n_instances``.

    One block is refilled for each yield, so only a block of instances is
    ever held.
    """
    rng = np.random.default_rng([seed, 0xF1])
    block = _ScreeningBlock()
    for first in range(0, n_instances, SCREENING_BLOCK_INSTANCES):
        _draw_screening_block(rng, block, min(SCREENING_BLOCK_INSTANCES, n_instances - first))
        yield block, first


def fuzz_screening_bound(n_instances=10_000, seed=0):
    """Randomized instances of the screened-mean deviation inequality.

    The instances are drawn in order and checked a block at a time; the
    detail line adds the tightest instance's ||G - S|| / rhs.
    """
    n_instances = _require_count("n_instances", n_instances)
    worst, tightest, failures = np.inf, 0.0, 0
    for block, first in _screening_fuzz_blocks(n_instances, seed):
        _, _, rhs, lhs = _check_screening_block(block, first)
        slack = rhs - lhs
        worst = min(worst, float(slack.min()))
        tightest = max(tightest, float((lhs / rhs).max()))
        failures += int(np.count_nonzero(~(slack >= 0.0)))
    return SuiteResult(
        name=f"screening deviation fuzz ({n_instances} instances)",
        passed=failures == 0,
        detail=(f"failures={failures}, worst slack={worst:.3e}, "
                f"max ||G-S||/rhs={tightest:.4f}"),
    )


def _quadratic_run(seed, iterations, attack_kind="aggressive"):
    """One byzantine run on the quadratic family, with diagnostics; returns run pieces.

    20 workers of 10 six-dimensional points, 3 of them byzantine and 3
    screened; unit curvature, lam = 2 and 6 inner ascent steps.
    """
    m, byz_count, screen_count, lam = 20, 3, 3, 2.0
    model = QuadraticLoss(1.0)
    X, Y = quadratic_cloud(m * 10, 6, spread=1.0, seed=seed)
    shards, _ = even_shards(X.shape[0], m)
    roster = WorkerRoster(shards=shards, byzantine=tuple(range(byz_count)),
                          attack=AttackSpec(kind=attack_kind, rng_seed=seed))
    l_f = surrogate_smoothness(model.constants(), lam)
    dro = DROConfig(lam, theoretical_ascent_step(lam), 6)
    cfg = TrainConfig(
        eta=1.0 / l_f,
        iterations=iterations,
        dro=dro,
        screen=ScreenConfig(screen_count),
        seed=seed,
    )
    trace = with_diagnostics(model, X, Y, run_training(model, X, Y, roster, cfg), dro)
    sigma = gradient_dispersion(model, X, Y, trace.iterates[0], lam)
    inputs = TheoryInputs(
        constants=model.constants(), lam=lam,
        c_alpha=screening_coefficient(byz_count, screen_count, m), sigma=sigma,
    )
    return model, X, Y, trace, inputs


class _SharedRuns:
    """Quadratic runs shared by trace suites, each (seed, attack) pair trained once.

    Built from every (seed, attack, rounds) use the suites will make. A pair
    is trained on its first request, at the longest horizon declared for it,
    and dropped after its last declared use; each request gets the first
    ``rounds`` rounds of that run. The trace checks read no worker norms,
    aggregated norms or objective estimates, so a run is held without them.
    """

    def __init__(self, uses):
        self._horizon, self._left, self._held = {}, Counter(), {}
        for seed, attack, rounds in uses:
            key = (seed, attack)
            self._horizon[key] = max(rounds, self._horizon.get(key, 0))
            self._left[key] += 1

    def take(self, seed, attack, rounds):
        """(model, X, Y, trace of the first ``rounds`` rounds, theory inputs)."""
        key = (seed, attack)
        if self._left[key] < 1:
            raise ConfigError(f"run {key} has no declared use left")
        run = self._held.pop(key, None)
        if run is None:
            model, X, Y, trace, inputs = _quadratic_run(seed, self._horizon[key], attack)
            trace = replace(trace, worker_norms=None, aggregated_norms=None,
                            objective_estimates=None)
            run = model, X, Y, trace, inputs
        self._left[key] -= 1
        if self._left[key]:
            self._held[key] = run
        model, X, Y, trace, inputs = run
        return model, X, Y, trace.prefix(rounds), inputs


DEVIATION_ROUNDS = 120
RATE_HORIZONS = (50, 200)


def _deviation_uses(n_seeds, iterations):
    return [(seed, "aggressive", iterations) for seed in range(n_seeds)]


def _rate_attack(seed):
    return "aggressive" if seed % 2 == 0 else "counterexample"


def _rate_uses(n_seeds, horizons):
    return [(seed, _rate_attack(seed), T) for seed in range(n_seeds) for T in horizons]


def deviation_trace_suite(n_seeds=20, iterations=DEVIATION_ROUNDS, runs=None):
    """Aggregated-gradient deviation bound at every iteration, across seeds.

    The detail line ends with the tightest iteration's ||G - grad F|| / bound.
    ``runs`` is a ``_SharedRuns`` that declares this suite's uses; by default
    the suite builds one of its own.
    """
    n_seeds = _require_count("n_seeds", n_seeds)
    uses = _deviation_uses(n_seeds, iterations)
    runs = _SharedRuns(uses) if runs is None else runs
    worst, tightest = np.inf, 0.0
    bad = 0
    for seed, attack, rounds in uses:
        _, _, _, trace, inputs = runs.take(seed, attack, rounds)
        for report in check_aggregate_deviation(trace, inputs):
            worst = min(worst, report.margin)
            tightest = max(tightest, report.measured_value / report.bound_value)
            bad += 0 if report.satisfied else 1
    return SuiteResult(
        name=f"aggregate deviation trace check ({n_seeds} seeds x {iterations} iters)",
        passed=bad == 0,
        detail=(f"violations={bad}, worst margin={worst:.3e}, "
                f"max ||G-grad F||/bound={tightest:.4f}"),
    )


def rate_bound_suite(n_seeds=20, horizons=RATE_HORIZONS, runs=None):
    """Average-gradient, objective-gap, and iterate-distance bounds on tracked runs.

    Even seeds run the aggressive attack, odd seeds the counterexample; the
    reference optimum is solved once per seed, for all horizons. ``runs`` is
    a ``_SharedRuns`` that declares this suite's uses; by default the suite
    builds one of its own.
    """
    n_seeds = _require_count("n_seeds", n_seeds)
    if not horizons:
        raise ConfigError("horizons must not be empty")
    runs = _SharedRuns(_rate_uses(n_seeds, horizons)) if runs is None else runs
    worst = np.inf
    bad = 0
    checks = 0
    for seed in range(n_seeds):
        optimum = None
        for T in horizons:
            model, X, Y, trace, inputs = runs.take(seed, _rate_attack(seed), T)
            if optimum is None:
                optimum = solve_reference_optimum(model, X, Y, inputs.lam)
            theta_star, f_star = optimum
            loaded = replace(
                inputs, eps=float(trace.inner_eps.max()),
                lambda_f=surrogate_smoothness(model.constants(), inputs.lam),
            )
            f_final, _ = surrogate_state(model, trace.theta_final, X, Y, inputs.lam)
            reports = (
                check_avg_sq_gradient(trace, loaded, f_star),
                check_suboptimality(trace, loaded, theta_star, f_star, f_final),
                check_distance(trace, loaded, theta_star),
            )
            for report in reports:
                checks += 1
                worst = min(worst, report.margin)
                bad += 0 if report.satisfied else 1
    return SuiteResult(
        name=f"rate bound trace checks ({checks} checks)",
        passed=bad == 0,
        detail=f"violations={bad}, worst margin={worst:.3e}",
    )


def breakpoint_demo(iterations=150, m=10, dim=4, seed=0):
    """Counterexample attack at and below the screening breakpoint.

    At a 0.4 corrupted fraction (with matching screening) the crafted
    forgeries dominate the kept set and the iterate diverges; at 0.2 the run
    converges. Returns per-iteration distances to theta* for both regimes.
    """
    model = QuadraticLoss(1.0)
    X, Y = quadratic_cloud(m * 12, dim, spread=1e-3, center=np.ones(dim), seed=seed)
    shards, _ = even_shards(X.shape[0], m)
    lam = 2.0
    l_f = surrogate_smoothness(model.constants(), lam)
    theta_star = X.mean(axis=0)
    out = {}
    for frac in (0.4, 0.2):
        byz_count = int(round(frac * m))
        roster = WorkerRoster(
            shards=shards,
            byzantine=tuple(range(byz_count)),
            attack=AttackSpec(kind="counterexample", target_rank=1, rng_seed=seed),
        )
        cfg = TrainConfig(
            eta=1.0 / l_f,
            iterations=iterations,
            dro=DROConfig(lam, theoretical_ascent_step(lam), 40),
            screen=ScreenConfig(byz_count),
            seed=seed,
        )
        trace = run_training(model, X, Y, roster, cfg)
        dists = np.linalg.norm(trace.iterates - theta_star, axis=1)
        out[frac] = np.append(dists, np.linalg.norm(trace.theta_final - theta_star))
    return out


def breakpoint_suite(iterations=150):
    dists = breakpoint_demo(iterations=iterations)
    d0 = float(dists[0.4][0])
    diverged = float(dists[0.4][-50:].min())
    converged = float(dists[0.2][-1])
    passed = diverged > d0 and converged < 1e-2 * float(dists[0.2][0])
    return SuiteResult(
        name="screening breakpoint demo (corrupted fraction 0.4 vs 0.2)",
        passed=passed,
        detail=(
            f"dist stays >= {diverged:.3e} at 0.4 (start {d0:.3e}); "
            f"final dist {converged:.3e} at 0.2"
        ),
    )


def run_all(fuzz_instances=10_000, n_seeds=20):
    """Every suite; both counts are checked before any suite runs.

    The two trace suites share one ``_SharedRuns``, so each (seed, attack)
    pair is trained once for both.
    """
    fuzz_instances = _require_count("fuzz_instances", fuzz_instances)
    n_seeds = _require_count("n_seeds", n_seeds)
    runs = _SharedRuns(_deviation_uses(n_seeds, DEVIATION_ROUNDS)
                       + _rate_uses(n_seeds, RATE_HORIZONS))
    return [
        fuzz_screening_bound(n_instances=fuzz_instances),
        deviation_trace_suite(n_seeds=n_seeds, runs=runs),
        rate_bound_suite(n_seeds=n_seeds, runs=runs),
        breakpoint_suite(),
    ]
