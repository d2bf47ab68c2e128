"""Numerical verification suites: fuzzers and trace checks on synthetic families.

These back the ``verify`` CLI subcommand and the acceptance tests. Every
suite runs on problems with exact constants (the quadratic family) or on
randomized screening instances, and returns structured results instead of
printing, so callers decide how to report.

The screening fuzz draws its instances one at a time in one fixed sequence
of generator calls, so a seed names the same instances; it fills each
instance's rows in place. It screens each with ``norm_screen``, the screen
the server runs, bounds it with ``screening_deviation_bound``, and holds one
instance at a time whatever the count. The seed, like the count, must be an
integer count.

The two trace suites check prefixes of shared runs. A round depends only on
the rounds before it, so the first T rounds of a longer run with the same
seed and attack are bit-equal to a T-round run (``RunTrace.prefix``). Each
suite declares the (seed, attack, rounds) uses it will make, and
``_shared_runs`` trains every (seed, attack) pair once, at the longest
horizon declared for it: one ``train_runs`` batch for all pairs (one round
loop over a leading run axis, each run with its own attack and bit-equal to
its training alone, with one stacked ``craft`` and one ``norm_screen`` call
per round for all runs). Each run is cut to its own horizon before its
diagnostics, and a use of T rounds reads its ``prefix(T)``. ``run_all``
builds the map once from both suites' uses: at the defaults one batch of 30
runs, 20 aggressive and 10 counterexample seeds, for 200 rounds. A suite
called alone builds it from its own uses. The deviation suite checks every
iterate of a run in one array pass (``check_aggregate_deviation``).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import (
    ScreenConfig,
    norm_screen,
    row_norms,
    screening_coefficient,
    screening_deviation_bound,
)
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
from .errors import ConfigError, require_count
from .losses import QuadraticLoss
from .simulation import (
    DROConfig,
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    run_training,
    train_runs,
    with_diagnostics,
)
from .surrogate import surrogate_state, theoretical_ascent_step


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _screening_instances(n_instances, seed):
    """Yield the fuzz's first ``n_instances`` instances as (rows, honest mask, b, S).

    Each instance has m in [3, 50] workers of width d in [1, 64], b <= m/2 of
    them screened and a <= b byzantine. Its honest rows scatter around a
    random S; its byzantine rows follow one of four attacks (a multiple of
    -S, negated honest rows, huge noise, or -S/||S|| at the largest honest
    norm); then the rows are shuffled. The generator calls and their order
    are fixed: a seed names the same instances for as long as they are kept.
    """
    rng = np.random.default_rng([seed, 0xF1])
    for _ in range(n_instances):
        d = int(rng.integers(1, 65))
        m = int(rng.integers(3, 51))
        b = int(rng.integers(0, m // 2 + 1))       # screened fraction <= 1/2
        a = int(rng.integers(0, b + 1))            # corrupted fraction <= screened
        k = m - a
        scale = float(np.exp(rng.normal(0.0, 1.0)))
        S = rng.standard_normal(d)
        S *= scale
        rows = np.empty((m, d))
        honest, byz = rows[:k], rows[k:]
        rng.standard_normal(out=honest)
        honest *= scale
        honest += S
        mode = int(rng.integers(0, 4))
        if mode == 0:
            np.multiply(-rng.uniform(0.0, 3.0), S, out=byz)
        elif mode == 1:
            np.negative(honest[rng.integers(0, k, size=a)], out=byz)
        elif mode == 2:
            rng.standard_normal(out=byz)
            byz *= 1e3 * scale
        else:
            radius = row_norms(honest).max()
            s_norm = math.sqrt(S.dot(S))
            byz[:] = -radius * (S / s_norm if s_norm > 0 else np.eye(d)[0])
        order = rng.permutation(m)
        yield rows[order], order < k, b, S


def fuzz_screening_bound(n_instances=10_000, seed=0):
    """Randomized instances of the screened-mean deviation inequality.

    Each instance is screened by ``norm_screen``, the screen the server
    runs, and bounded by ``screening_deviation_bound``; the detail line adds
    the tightest instance's ||G - S|| / rhs.
    """
    n_instances = require_count("n_instances", n_instances, 1)
    seed = require_count("seed", seed, 0)
    worst, tightest, failures = np.inf, 0.0, 0
    for rows, honest, b, S in _screening_instances(n_instances, seed):
        G, _ = norm_screen(rows, b)
        G -= S
        lhs = math.sqrt(G.dot(G))  # np.linalg.norm's own formula, without its overhead
        rhs = screening_deviation_bound(rows, honest, b, S).rhs
        slack = rhs - lhs
        worst = min(worst, slack)
        tightest = max(tightest, lhs / rhs)
        failures += 0 if slack >= 0.0 else 1
    return SuiteResult(
        name=f"screening deviation fuzz ({n_instances} instances)",
        passed=failures == 0,
        detail=(f"failures={failures}, worst slack={worst:.3e}, "
                f"max ||G-S||/rhs={tightest:.4f}"),
    )


def _quadratic_runs(horizons):
    """Byzantine runs on the quadratic family, all trained as one batch.

    20 workers of 10 six-dimensional points, 3 of them byzantine and 3
    screened; unit curvature, lam = 2 and 6 inner ascent steps. ``horizons``
    maps each (seed, attack kind) pair to its rounds: the seed draws the
    run's data, initial iterate and attack, of that kind. The batch trains
    for the longest horizon, each run bit-equal to its training alone, and
    each run is cut to its own horizon before its diagnostics. Returns a dict
    from each pair to its (model, X, Y, trace, theory inputs).
    """
    m, byz_count, screen_count, lam = 20, 3, 3, 2.0
    model = QuadraticLoss(1.0)
    pairs = list(horizons)
    data = [quadratic_cloud(m * 10, 6, spread=1.0, seed=seed) for seed, _ in pairs]
    shards, _ = even_shards(m * 10, m)
    rosters = [WorkerRoster(shards=shards, byzantine=tuple(range(byz_count)),
                            attack=AttackSpec(kind=kind, rng_seed=seed)) for seed, kind in pairs]
    l_f = surrogate_smoothness(model.constants(), lam)
    dro = DROConfig(lam, theoretical_ascent_step(lam), 6)
    cfgs = [TrainConfig(eta=1.0 / l_f, iterations=max(horizons.values()), dro=dro,
                        screen=ScreenConfig(screen_count), seed=seed) for seed, _ in pairs]
    traces = train_runs(model, np.stack([X for X, _ in data]), np.stack([Y for _, Y in data]),
                        rosters, cfgs)
    c_alpha = screening_coefficient(byz_count, screen_count, m)
    runs = {}
    for pair, (X, Y), trace in zip(pairs, data, traces):
        trace = with_diagnostics(model, X, Y, trace.prefix(horizons[pair]), dro)
        sigma = gradient_dispersion(model, X, Y, trace.iterates[0], lam)
        inputs = TheoryInputs(constants=model.constants(), lam=lam, c_alpha=c_alpha, sigma=sigma)
        runs[pair] = model, X, Y, trace, inputs
    return runs


def _shared_runs(uses):
    """The runs for (seed, attack, rounds) uses: each pair at its longest declared horizon.

    A use of T rounds reads ``runs[seed, attack]`` and takes its trace's
    ``prefix(T)``.
    """
    horizons = {}
    for seed, attack, rounds in uses:
        horizons[seed, attack] = max(rounds, horizons.get((seed, attack), 0))
    return _quadratic_runs(horizons)


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
    ``runs`` is a ``_shared_runs`` map that holds this suite's uses; by
    default the suite builds its own.
    """
    n_seeds = require_count("n_seeds", n_seeds, 1)
    uses = _deviation_uses(n_seeds, iterations)
    runs = _shared_runs(uses) if runs is None else runs
    worst, tightest = np.inf, 0.0
    bad = 0
    for seed, attack, rounds in uses:
        _, _, _, trace, inputs = runs[seed, attack]
        for report in check_aggregate_deviation(trace.prefix(rounds), inputs):
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
    a ``_shared_runs`` map that holds this suite's uses; by default the suite
    builds its own.
    """
    n_seeds = require_count("n_seeds", n_seeds, 1)
    if not horizons:
        raise ConfigError("horizons must not be empty")
    runs = _shared_runs(_rate_uses(n_seeds, horizons)) if runs is None else runs
    worst = np.inf
    bad = 0
    checks = 0
    for seed in range(n_seeds):
        model, X, Y, run, inputs = runs[seed, _rate_attack(seed)]
        theta_star, f_star = solve_reference_optimum(model, X, Y, inputs.lam)
        for T in horizons:
            trace = run.prefix(T)
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

    The two trace suites share one ``_shared_runs`` map, so each (seed,
    attack) pair is trained once for both, all pairs in one batch.
    """
    fuzz_instances = require_count("fuzz_instances", fuzz_instances, 1)
    n_seeds = require_count("n_seeds", n_seeds, 1)
    runs = _shared_runs(_deviation_uses(n_seeds, DEVIATION_ROUNDS)
                        + _rate_uses(n_seeds, RATE_HORIZONS))
    return [
        fuzz_screening_bound(n_instances=fuzz_instances),
        deviation_trace_suite(n_seeds=n_seeds, runs=runs),
        rate_bound_suite(n_seeds=n_seeds, runs=runs),
        breakpoint_suite(),
    ]
