"""Numerical verification suites: fuzzers and trace checks on synthetic families.

These back the ``verify`` CLI subcommand and the acceptance tests. Every
suite runs on problems with exact constants (the quadratic family) or on
randomized screening instances, and returns structured results instead of
printing, so callers decide how to report.

The screening fuzz draws its instances one at a time in one fixed sequence
of generator calls, so a seed names the same instances. An instance's
normals (its scale's, S and the honest rows) come from one
``standard_normal`` call into one buffer, and one in-place product scales S
and the rows: a generator's draws do not depend on how they are split into
calls, so these are the instances the per-array calls drew. It screens each
with ``aggregation._screen``, the body of ``norm_screen`` (the screen the
server runs), and bounds it with ``screening_deviation_bound``, all under
one ``np.errstate(over="ignore")`` around the whole loop, so no instance
enters a context of its own. That is what ``norm_screen`` silences and all
the bound needs. It covers the draw and the figures too, where an overflow
reads inf (an infinite ||G - S|| fails its instance); an invalid value
anywhere still warns. It holds one instance at a time whatever the count.
The seed, like the count, must be an integer count.

The two trace suites check prefixes of shared runs. A round depends only on
the rounds before it, so the first T rounds of a longer run with the same
seed and attack are bit-equal to a T-round run (``RunTrace.prefix``), and a
diagnostic is bit-equal per iterate. ``_quadratic_runs(pairs, rounds)``
trains every (seed, attack) pair once, as one ``train_runs`` batch (one
round loop over a leading run axis, each run with its own attack and
bit-equal to its training alone, with one stacked ``craft`` and one
``norm_screen`` call per round for all runs), and diagnoses every iterate.
``run_all`` trains one batch for both suites, for 200 rounds: at the
defaults 30 runs, every seed under the aggressive attack and the odd seeds
under the counterexample. The deviation suite reads
``prefix(DEVIATION_ROUNDS)`` of the aggressive runs, and the rate suite
``prefix(T)`` for each T of RATE_HORIZONS. A suite called alone trains its
own pairs for its longest horizon. The deviation suite checks every iterate
of a run in one array pass (``check_aggregate_deviation``).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import (
    ScreenConfig,
    _row_norms,
    _screen,
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
from .data import quadratic_cloud
from .errors import require_count
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
        # one call draws the scale's normal (normal(0, 1) is 0 + 1 * z), S and
        # the honest rows, in that order; one product scales S and the rows
        drawn = np.empty(1 + d + m * d)
        z = drawn[:1 + d + k * d]
        rng.standard_normal(out=z)
        scale = float(np.exp(z[0]))
        z[1:] *= scale
        S, rows = drawn[1:1 + d], drawn[1 + d:].reshape(m, d)
        honest, byz = rows[:k], rows[k:]
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
            radius = _row_norms(honest).max()  # under the fuzz's errstate
            s_norm = math.sqrt(S.dot(S))
            byz[:] = -radius * (S / s_norm if s_norm > 0 else np.eye(d)[0])
        order = rng.permutation(m)
        yield rows.take(order, axis=0), order < k, b, S


def fuzz_screening_bound(n_instances=10_000, seed=0):
    """Randomized instances of the screened-mean deviation inequality.

    Each instance is screened by ``_screen``, the body of ``norm_screen``,
    the screen the server runs, and bounded by ``screening_deviation_bound``,
    under one errstate for the whole loop; the detail line adds the tightest
    instance's ||G - S|| / rhs.
    """
    n_instances = require_count("n_instances", n_instances, 1)
    seed = require_count("seed", seed, 0)
    worst, tightest, failures = np.inf, 0.0, 0
    with np.errstate(over="ignore"):  # see the module docstring
        for rows, honest, b, S in _screening_instances(n_instances, seed):
            G, _ = _screen(rows, b)
            G -= S
            lhs = math.sqrt(G.dot(G))  # np.linalg.norm's own formula, without its overhead
            rhs = screening_deviation_bound(rows, honest, b, S)[2]
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


def _quadratic_runs(pairs, rounds):
    """Byzantine runs on the quadratic family, all trained as one batch of ``rounds`` rounds.

    20 workers of 10 six-dimensional points, 3 of them byzantine and 3
    screened; unit curvature, lam = 2 and 6 inner ascent steps. Each
    (seed, attack kind) of ``pairs`` is one run: the seed draws its data,
    initial iterate and attack, of that kind. Each run is bit-equal to its
    training alone and is diagnosed at every iterate. Returns a dict from
    each pair to its (model, X, Y, trace, theory inputs).
    """
    m, byz_count, screen_count, lam = 20, 3, 3, 2.0
    model = QuadraticLoss(1.0)
    data = [quadratic_cloud(m * 10, 6, spread=1.0, seed=seed) for seed, _ in pairs]
    rosters = [WorkerRoster(m, byz_count, AttackSpec(kind=kind, rng_seed=seed))
               for seed, kind in pairs]
    l_f = surrogate_smoothness(model.constants(), lam)
    dro = DROConfig(lam, theoretical_ascent_step(lam), 6)
    cfgs = [TrainConfig(eta=1.0 / l_f, iterations=rounds, dro=dro,
                        screen=ScreenConfig(screen_count), seed=seed) for seed, _ in pairs]
    traces = train_runs(model, np.stack([X for X, _ in data]), np.stack([Y for _, Y in data]),
                        rosters, cfgs)
    c_alpha = screening_coefficient(byz_count, screen_count, m)
    runs = {}
    for pair, (X, Y), trace in zip(pairs, data, traces):
        trace = with_diagnostics(model, X, Y, trace, dro)
        sigma = gradient_dispersion(model, X, Y, trace.iterates[0], lam)
        inputs = TheoryInputs(constants=model.constants(), lam=lam, c_alpha=c_alpha, sigma=sigma)
        runs[pair] = model, X, Y, trace, inputs
    return runs


DEVIATION_ROUNDS = 120
RATE_HORIZONS = (50, 200)


def _rate_attack(seed):
    return "aggressive" if seed % 2 == 0 else "counterexample"


def deviation_trace_suite(n_seeds=20, runs=None):
    """Aggregated-gradient deviation bound at each of DEVIATION_ROUNDS iterations, across seeds.

    The detail line ends with the tightest iteration's ||G - grad F|| / bound.
    ``runs`` is a ``_quadratic_runs`` map that holds this suite's pairs for
    at least DEVIATION_ROUNDS rounds; by default the suite trains its own.
    """
    n_seeds = require_count("n_seeds", n_seeds, 1)
    if runs is None:
        runs = _quadratic_runs([(seed, "aggressive") for seed in range(n_seeds)],
                               DEVIATION_ROUNDS)
    worst, tightest = np.inf, 0.0
    bad = 0
    for seed in range(n_seeds):
        _, _, _, trace, inputs = runs[seed, "aggressive"]
        for report in check_aggregate_deviation(trace.prefix(DEVIATION_ROUNDS), inputs):
            worst = min(worst, report.margin)
            tightest = max(tightest, report.measured_value / report.bound_value)
            bad += 0 if report.satisfied else 1
    return SuiteResult(
        name=f"aggregate deviation trace check ({n_seeds} seeds x {DEVIATION_ROUNDS} iters)",
        passed=bad == 0,
        detail=(f"violations={bad}, worst margin={worst:.3e}, "
                f"max ||G-grad F||/bound={tightest:.4f}"),
    )


def rate_bound_suite(n_seeds=20, runs=None):
    """Average-gradient, objective-gap, and iterate-distance bounds on tracked runs.

    Even seeds run the aggressive attack, odd seeds the counterexample; each
    is checked at every horizon of RATE_HORIZONS, and the reference optimum is
    solved once per seed, for all of them. ``runs`` is a ``_quadratic_runs``
    map that holds this suite's pairs for at least the longest horizon; by
    default the suite trains its own.
    """
    n_seeds = require_count("n_seeds", n_seeds, 1)
    if runs is None:
        runs = _quadratic_runs([(seed, _rate_attack(seed)) for seed in range(n_seeds)],
                               max(RATE_HORIZONS))
    worst = np.inf
    bad = 0
    checks = 0
    for seed in range(n_seeds):
        model, X, Y, run, inputs = runs[seed, _rate_attack(seed)]
        theta_star, f_star = solve_reference_optimum(model, X, Y, inputs.lam)
        for T in RATE_HORIZONS:
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
    lam = 2.0
    l_f = surrogate_smoothness(model.constants(), lam)
    theta_star = X.mean(axis=0)
    out = {}
    for frac in (0.4, 0.2):
        byz_count = int(round(frac * m))
        roster = WorkerRoster(m, byz_count, AttackSpec(kind="counterexample", rng_seed=seed))
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

    The two trace suites share one ``_quadratic_runs`` map: every seed under
    the aggressive attack and the odd seeds under the counterexample, each
    pair trained once for both suites, all in one batch of the longest
    horizon.
    """
    fuzz_instances = require_count("fuzz_instances", fuzz_instances, 1)
    n_seeds = require_count("n_seeds", n_seeds, 1)
    pairs = [(seed, "aggressive") for seed in range(n_seeds)]
    pairs += [(seed, "counterexample") for seed in range(1, n_seeds, 2)]
    runs = _quadratic_runs(pairs, max(RATE_HORIZONS))
    return [
        fuzz_screening_bound(n_instances=fuzz_instances),
        deviation_trace_suite(n_seeds=n_seeds, runs=runs),
        rate_bound_suite(n_seeds=n_seeds, runs=runs),
        breakpoint_suite(),
    ]
