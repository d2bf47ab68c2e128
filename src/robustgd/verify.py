"""Numerical verification suites: fuzzers and trace checks on synthetic families.

These back the ``verify`` CLI subcommand and the acceptance tests. Every
suite runs on problems with exact constants (the quadratic family) or on
randomized screening instances, and returns structured results instead of
printing, so callers decide how to report.

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

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import GradientSet, ScreenConfig, check_screening_bound
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
from .errors import ConfigError
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
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def _random_screening_instance(rng):
    d = int(rng.integers(1, 65))
    m = int(rng.integers(3, 51))
    b = int(rng.integers(0, m // 2 + 1))       # screened fraction <= 1/2
    a = int(rng.integers(0, b + 1))            # corrupted fraction <= screened
    scale = float(np.exp(rng.normal(0.0, 1.0)))
    S = scale * rng.standard_normal(d)
    honest = S + scale * rng.standard_normal((m - a, d))
    mode = int(rng.integers(0, 4))
    if mode == 0:
        byz = -rng.uniform(0.0, 3.0) * np.tile(S, (a, 1))
    elif mode == 1:
        victims = rng.integers(0, m - a, size=a)
        byz = -honest[victims]
    elif mode == 2:
        byz = 1e3 * scale * rng.standard_normal((a, d))
    else:
        radius = np.linalg.norm(honest, axis=1).max()
        direction = S / np.linalg.norm(S) if np.linalg.norm(S) > 0 else np.eye(d)[0]
        byz = np.tile(-radius * direction, (a, 1))
    order = rng.permutation(m)
    vectors = np.vstack([honest, byz.reshape(a, d)])[order]
    honest_idx = np.flatnonzero(order < m - a)
    return GradientSet(vectors), honest_idx, ScreenConfig(b), S


def fuzz_screening_bound(n_instances=10_000, seed=0):
    """Randomized instances of the screened-mean deviation inequality."""
    _require_count("n_instances", n_instances)
    rng = np.random.default_rng([seed, 0xF1])
    worst = np.inf
    failures = 0
    for _ in range(n_instances):
        grads, honest_idx, cfg, S = _random_screening_instance(rng)
        result = check_screening_bound(grads, honest_idx, cfg, S)
        worst = min(worst, result.slack)
        failures += 0 if result.holds else 1
    return SuiteResult(
        name=f"screening deviation fuzz ({n_instances} instances)",
        passed=failures == 0,
        detail=f"failures={failures}, worst slack={worst:.3e}",
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
        alpha=byz_count / m, beta=screen_count / m, sigma=sigma,
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

    ``runs`` is a ``_SharedRuns`` that declares this suite's uses; by default
    the suite builds one of its own.
    """
    _require_count("n_seeds", n_seeds)
    uses = _deviation_uses(n_seeds, iterations)
    runs = _SharedRuns(uses) if runs is None else runs
    worst = np.inf
    bad = 0
    for seed, attack, rounds in uses:
        _, _, _, trace, inputs = runs.take(seed, attack, rounds)
        for report in check_aggregate_deviation(trace, inputs):
            worst = min(worst, report.margin)
            bad += 0 if report.satisfied else 1
    return SuiteResult(
        name=f"aggregate deviation trace check ({n_seeds} seeds x {iterations} iters)",
        passed=bad == 0,
        detail=f"violations={bad}, worst margin={worst:.3e}",
    )


def rate_bound_suite(n_seeds=20, horizons=RATE_HORIZONS, runs=None):
    """Average-gradient, objective-gap, and iterate-distance bounds on tracked runs.

    Even seeds run the aggressive attack, odd seeds the counterexample; the
    reference optimum is solved once per seed, for all horizons. ``runs`` is
    a ``_SharedRuns`` that declares this suite's uses; by default the suite
    builds one of its own.
    """
    _require_count("n_seeds", n_seeds)
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
    _require_count("fuzz_instances", fuzz_instances)
    _require_count("n_seeds", n_seeds)
    runs = _SharedRuns(_deviation_uses(n_seeds, DEVIATION_ROUNDS)
                       + _rate_uses(n_seeds, RATE_HORIZONS))
    return [
        fuzz_screening_bound(n_instances=fuzz_instances),
        deviation_trace_suite(n_seeds=n_seeds, runs=runs),
        rate_bound_suite(n_seeds=n_seeds, runs=runs),
        breakpoint_suite(),
    ]
