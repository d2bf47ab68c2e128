"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line with the measured quantities once its
assertions hold, so a verbose run doubles as the acceptance report. The
experiment-scale criteria run on the synthetic stand-in corpus unless a real
spambase CSV is supplied via ROBUSTGD_SPAMBASE.
"""

import hashlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from robustgd.aggregation import norm_screen, screening_deviation_bound
from robustgd.bounds import TheoryInputs, distance_contraction
from robustgd.errors import RegimeError
from robustgd.cli import main
from robustgd.experiments import (
    ExperimentConfig,
    read_records,
    record_line,
    run_experiment,
    sweep,
    write_records,
)
from robustgd.losses import LogisticLoss, QuadraticLoss, SmoothnessConstants
from robustgd.simulation import ReportPlan, worker_reports
from robustgd.surrogate import (
    DROConfig,
    contraction_factor,
    exact_rows,
    quadratic_line_ascent,
    required_iterations,
    theoretical_ascent_step,
)
from robustgd.verify import (
    DEVIATION_ROUNDS,
    RATE_HORIZONS,
    breakpoint_demo,
    deviation_trace_suite,
    fuzz_screening_bound,
    rate_bound_suite,
)
from conftest import central_difference, exact_inner_maximizer

DATASET = os.environ.get("ROBUSTGD_SPAMBASE", "synthetic")
VARIANTS = ("alg2", "dro_only", "nbs_only", "erm")


def announce(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


def preset_config(preset):
    return ExperimentConfig(preset=preset, dataset=DATASET)


def miscls(record):
    return record["results"]["shift_misclassification"]


PRESETS = ("E0", "E1", "E2", "E3", "E4")


@pytest.fixture(scope="module")
def environment_records():
    """The records of all variants in E0..E4 by preset, from one call (production path),
    and the call's seconds."""
    start = time.time()
    grid = run_experiment([preset_config(preset) for preset in PRESETS], variants=VARIANTS)
    elapsed = time.time() - start
    records = {preset: [r for r in grid if r["config"]["environment"] == preset]
               for preset in PRESETS}
    return records, elapsed


@pytest.fixture(scope="module")
def environment_rates(environment_records):
    """Shifted misclassification for all variants in E0..E4."""
    records, elapsed = environment_records
    rates = {preset: {r["config"]["variant"]: miscls(r) for r in preset_records}
             for preset, preset_records in records.items()}
    return rates, elapsed


def test_criterion_1_screening_bound_fuzz_and_toy_instance():
    start = time.time()
    result = fuzz_screening_bound(n_instances=10_000, seed=0)
    assert result.passed, result.detail

    grads, S = np.array([[4.0], [6.0], [-5.9]]), np.array([5.0])
    lhs = np.linalg.norm(norm_screen(grads, 1)[0] - S)
    rhs = screening_deviation_bound(grads, np.array([True, True, False]), 1, S)[2]
    assert lhs == pytest.approx(5.95, abs=1e-12)
    assert rhs == pytest.approx(6.0, abs=1e-12)
    assert lhs <= rhs
    took = time.time() - start
    assert took < 30.0
    announce(1, f"10^4 instances hold ({result.detail}); toy lhs=5.95 <= rhs=6; {took:.1f}s")


def test_criterion_2_counterexample_and_breakpoint():
    start = time.time()
    vectors = np.array([-2.0] * 4 + [6.0, 5.0, 4.0, 3.0, 2.0, 1.0])[:, None]
    out, _ = norm_screen(vectors, 4)
    assert out[0] == pytest.approx(-5.0 / 6.0, abs=1e-15)

    dists = breakpoint_demo(iterations=150)
    d0_bad = dists[0.4][0]
    floor = dists[0.4][-50:].min()
    assert floor > d0_bad  # never returns toward the optimum
    assert dists[0.2][-1] < 1e-2 * dists[0.2][0]
    took = time.time() - start
    assert took < 60.0
    announce(2, f"screened mean=-5/6; dist floor {floor:.2e} at 0.4 vs "
                f"final {dists[0.2][-1]:.2e} at 0.2; {took:.1f}s")


def test_criterion_3_envelope_gradient_agreement():
    # closed form on the quadratic family with an effectively exact inner solve
    model = QuadraticLoss(1.0)
    rng = np.random.default_rng(33)
    for _ in range(50):
        lam = float(rng.uniform(1.5, 4.0))
        d = int(rng.integers(1, 7))
        theta, x = rng.standard_normal((2, d))
        cfg = DROConfig(lam, theoretical_ascent_step(lam), t_z=200)
        # one worker holding the one row x: its report is the row's surrogate gradient
        [report] = worker_reports(ReportPlan(model, x.reshape(1, 1, -1), np.zeros((1, 1)), cfg),
                                  theta)
        np.testing.assert_allclose(
            report, lam * (theta - x) / (lam - 1.0), rtol=1e-10, atol=1e-10
        )

    # logistic: the gradient at the exact maximizer against central
    # differences of the surrogate value there
    logistic = LogisticLoss()
    lam = 3.0
    worst = 0.0
    for _ in range(100):
        d = 4
        theta = 0.8 * rng.standard_normal(d)
        X, Y = rng.standard_normal((1, d)), np.array([float(rng.integers(0, 2))])

        def surrogate_value(t):
            return float(exact_rows(logistic, t, X, Y, lam)[1][0])

        grad = exact_rows(logistic, theta, X, Y, lam)[0][0]
        fd = central_difference(surrogate_value, theta, h=1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)
        scale = max(np.abs(fd).max(), 1e-12)
        worst = max(worst, float(np.abs(grad - fd).max() / scale))
    announce(3, f"quadratic closed form to 1e-10; logistic FD worst rel err {worst:.2e} <= 1e-4")


def quadratic_ascent_distance(model, theta, x, lam, steps, z_star):
    """Distance to z* after ``steps`` shipped ascent steps, z = x - k * (theta - x)."""
    cfg = DROConfig(lam, theoretical_ascent_step(lam), steps)
    k, D = quadratic_line_ascent(model, theta, x.reshape(1, -1), cfg)
    return np.linalg.norm(x - k * D[0] - z_star)


def test_criterion_4_inner_maximizer_rate():
    model = QuadraticLoss(1.0)
    rng = np.random.default_rng(44)
    # per-step contraction matches the predicted factor to 1e-6
    for lam in (2.0, 3.0, 5.0):
        p = contraction_factor(1.0, lam)
        theta, x = rng.standard_normal((2, 6))
        z_star = exact_inner_maximizer(model, theta, x.reshape(1, -1), lam)[0]
        dists = [quadratic_ascent_distance(model, theta, x, lam, t, z_star) for t in range(12)]
        for t in range(11):
            if dists[t] < 1e-12:
                break
            assert dists[t + 1] / dists[t] == pytest.approx(p, abs=1e-6)

    # iteration-count formula vs measured steps-to-accuracy, three settings
    theta = np.array([1.0, -2.0, 0.5])
    x = np.array([0.5, 0.5, -0.25])
    measured_counts = []
    for lam, inv_eps in ((2.0, 1000.0), (3.0, 100.0), (5.0, 10_000.0)):
        z_star = exact_inner_maximizer(model, theta, x.reshape(1, -1), lam)[0]
        d_z = np.linalg.norm(x - z_star)
        eps = d_z / inv_eps
        steps = 0
        while quadratic_ascent_distance(model, theta, x, lam, steps, z_star) > eps:
            steps += 1
        predicted, _ = required_iterations(model.constants(), lam, eps, d_z)
        assert steps == predicted
        measured_counts.append(steps)
    announce(4, f"per-step factor matches p to 1e-6; measured==predicted counts {measured_counts}")


def test_criterion_5_aggregate_deviation_along_traces():
    assert DEVIATION_ROUNDS == 120
    result = deviation_trace_suite(n_seeds=20)
    assert result.passed, result.detail
    announce(5, result.detail)


def test_criterion_6_rate_bounds_and_contraction_threshold():
    start = time.time()
    # for the quadratic family the two prescribed step sizes coincide
    model = QuadraticLoss(1.0)
    lam = 2.0
    l_f = lam / (lam - 1.0) * 1.0
    assert 1.0 / l_f == pytest.approx(2.0 / (l_f + l_f))

    assert RATE_HORIZONS == (50, 200)
    result = rate_bound_suite(n_seeds=20)
    assert result.passed, result.detail

    # the contraction needs c_alpha < lambda_F / L_F (alpha = beta below 1/(1 + 2 L_F/lambda_F))
    l_f, lam_f = 2.0, 1.0
    threshold = lam_f / l_f
    fixed = SmoothnessConstants(l_f, 0.0, 0.0, 0.0)
    with pytest.raises(RegimeError):
        distance_contraction(TheoryInputs(constants=fixed, lam=1.0, c_alpha=threshold,
                                          lambda_f=lam_f))
    below = TheoryInputs(constants=fixed, lam=1.0, c_alpha=threshold - 1e-15, lambda_f=lam_f)
    assert distance_contraction(below) < 1.0
    took = time.time() - start
    assert took < 300.0
    announce(6, f"{result.detail}; contraction error fires exactly at c_alpha={threshold}; "
                f"{took:.0f}s")


def test_criterion_7_environment_comparison(environment_rates):
    rates, elapsed = environment_rates
    assert elapsed < 900.0  # well under 15 min for the grid

    e0 = rates["E0"]
    assert all(0.07 <= e0[v] <= 0.14 for v in VARIANTS), e0

    for env in ("E1", "E2"):
        for v in ("erm", "dro_only"):
            assert rates[env][v] > 0.40, (env, v, rates[env][v])
        for v in ("alg2", "nbs_only"):
            assert rates[env][v] < 0.35, (env, v, rates[env][v])

    for env in ("E1", "E2", "E3", "E4"):
        assert rates[env]["alg2"] <= rates[env]["nbs_only"], (env, rates[env])

    for env in ("E3", "E4"):
        assert rates[env]["dro_only"] <= rates[env]["erm"], (env, rates[env])

    table = {env: {v: round(r, 4) for v, r in row.items()} for env, row in rates.items()}
    announce(7, f"env x variant shifted misclassification {table}; grid {elapsed:.0f}s")


SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def seed_rates(environment_rates):
    """Shifted misclassification on E1 and E3 per seed; seed 0 is the criterion-7 run."""
    rates, _ = environment_rates
    per_seed = {0: {env: rates[env] for env in ("E1", "E3")}}
    for seed in SEEDS[1:]:
        configs = [replace(preset_config(env), seed=seed, data_seed=seed, variant=variant)
                   for env, variants in (("E1", ("alg2", "nbs_only")), ("E3", VARIANTS))
                   for variant in variants]
        per_seed[seed] = {"E1": {}, "E3": {}}
        for r in run_experiment(configs):  # one data preparation per seed
            per_seed[seed][r["config"]["environment"]][r["config"]["variant"]] = miscls(r)
    return per_seed


def test_criterion_7_orderings_hold_on_the_mean_over_seeds(seed_rates):
    # the seed-0 gate above stays; this checks that the orderings are not a
    # property of one seed (training seed and data seed both vary)
    def mean(env, variant):
        return float(np.mean([seed_rates[seed][env][variant] for seed in SEEDS]))

    for env in ("E1", "E3"):
        assert mean(env, "alg2") <= mean(env, "nbs_only"), (env, seed_rates)
    assert mean("E3", "dro_only") <= mean("E3", "erm"), seed_rates
    announce(7, f"means over seeds {SEEDS}: E1 alg2 {mean('E1', 'alg2'):.4f} <= "
                f"nbs_only {mean('E1', 'nbs_only'):.4f}; E3 alg2 {mean('E3', 'alg2'):.4f} <= "
                f"nbs_only {mean('E3', 'nbs_only'):.4f}, dro_only {mean('E3', 'dro_only'):.4f}"
                f" <= erm {mean('E3', 'erm'):.4f}")


@pytest.fixture(scope="module")
def shift_budget_records():
    cfg = preset_config("E1")
    return {variant: sweep(cfg, "shift_q", [0.0, 0.1, 0.2, 0.3, 0.4], variants=[variant])
            for variant in ("alg2", "nbs_only")}


@pytest.fixture(scope="module")
def shift_budget_curves(shift_budget_records):
    return {variant: [miscls(r) for r in records]
            for variant, records in shift_budget_records.items()}


@pytest.fixture(scope="module")
def byzantine_count_records():
    return {kind: sweep(replace(preset_config("E1"), attack=kind), "alpha_m",
                        [0, 1, 2, 3, 4, 5], variants=["alg2"])
            for kind in ("aggressive", "intelligent")}


@pytest.fixture(scope="module")
def byzantine_count_curve(byzantine_count_records):
    worst = {}
    for records in byzantine_count_records.values():
        for record in records:
            value = record["sweep"]["value"]
            worst[value] = max(worst.get(value, 0.0), miscls(record))
    return worst


def test_criterion_8_sweep_shapes(shift_budget_curves, byzantine_count_curve):
    curves = shift_budget_curves
    increase = {v: c[-1] - c[0] for v, c in curves.items()}
    for v, c in curves.items():
        assert all(b >= a - 1e-12 for a, b in zip(c, c[1:])), (v, c)
    assert increase["alg2"] < increase["nbs_only"], increase

    worst = byzantine_count_curve
    protected = {a: worst[a] for a in (0, 1, 2, 3)}
    assert all(r < 0.35 for r in protected.values()), protected
    # past the screening budget the protection guarantee breaks down sharply
    assert worst[5] >= 0.35, worst
    assert worst[5] > max(protected.values()) + 0.2, worst
    announce(8, f"budget-curve increase {increase['alg2']:.4f} < {increase['nbs_only']:.4f}; "
                f"byzantine-count curve {({k: round(v, 4) for k, v in sorted(worst.items())})}")


def test_criterion_9_determinism_and_round_trip(tmp_path):
    cfg = replace(preset_config("E1"), iterations=40)
    first = run_experiment(cfg, variants=["alg2", "erm"])
    second = run_experiment(cfg, variants=["alg2", "erm"])
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(first, path_a)
    write_records(second, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    parsed = read_records(path_a)
    assert parsed == first
    announce(9, f"{len(first)} records byte-identical across reruns and reparse losslessly")


@pytest.fixture(scope="module")
def check_bounds_records():
    """All four variants at 100 iterations with the bound check on, through with_diagnostics.

    E1 gives two full-precision min_margin values and two c_alpha refusals;
    E0 at lam = 0.5 gives four regime refusals, each naming its iterate and
    ||theta||^2 / 4.
    """
    points = {"E1 check_bounds": ("E1", {}), "E0 lam=0.5 check_bounds": ("E0", {"lam": 0.5})}
    return {name: run_experiment(replace(preset_config(preset), check_bounds=True,
                                         iterations=100, **fields), variants=VARIANTS)
            for name, (preset, fields) in points.items()}


# sha256 of the records of the E0-E4 grid, criterion 8's sweeps and the two
# check-bounds sets (the JSONL lines write_records writes) and of `robustgd
# verify --fuzz-instances 200 --seeds 4` stdout. A change that moves one
# updates it here and says why.
PINNED_ON = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"
PINNED_DIGESTS = {
    "E0": "419c3f4950ec21644acc00e1fe7d8fc717c9c4df8e8c4c71de7282c81cf687fb",
    "E1": "10b935a7980a0f0463d782ce4ecf676bae4c6725b36be7995e3b82536f176c19",
    "E2": "abfc9efa2e74c804777c609dbd08c5f9a43ad16118dbf886fac8d31113a8567f",
    "E3": "3380fc4659b0a198efc27f55f0eae2d9377a9bffb56074d89a4cfedafb3a545b",
    "E4": "c7c0bcd2bbebc1a4bdd5c0e3da2108df472755a104ec3222e182c2c99d17eb2d",
    "E1 shift_q sweep": "f22c4202591c21005ed9c08e21193eca118feda8e6b6664adf05e79a66824f76",
    "E1 alpha_m sweep": "019b9953b14a75a3e9839cdd8e12d563d699534337ac0edca510c06116f083a0",
    "E1 check_bounds": "efb5a82ea34b79737b4a300fdb3b7a6c177b0caf2d118ef36d7db35c05b7f435",
    "E0 lam=0.5 check_bounds": "ed70729956c79349f13b8f04628b97f4036fcecb7cafc0a3a53c248d2115a7f9",
    "verify stdout": "7a4ae5700d59d2c90fcf02414572bd7048a98034bfcb218a786e2f95d9dafaac",
}


def numpy_and_blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return f"numpy {np.__version__}, BLAS unknown"
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


@pytest.mark.skipif(DATASET != "synthetic", reason="the digests are of the synthetic corpus")
def test_records_and_verify_output_keep_their_digests(environment_records,
                                                      shift_budget_records,
                                                      byzantine_count_records,
                                                      check_bounds_records, capsys):
    def digest(records):
        return hashlib.sha256("".join(map(record_line, records)).encode()).hexdigest()

    groups = dict(environment_records[0])
    groups["E1 shift_q sweep"] = sum(shift_budget_records.values(), [])
    groups["E1 alpha_m sweep"] = sum(byzantine_count_records.values(), [])
    groups.update(check_bounds_records)
    digests = {name: digest(records) for name, records in groups.items()}
    capsys.readouterr()
    assert main(["verify", "--fuzz-instances", "200", "--seeds", "4"]) == 0
    digests["verify stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    moved = {name: digest for name, digest in digests.items() if digest != PINNED_DIGESTS[name]}
    assert not moved, f"moved to {moved}; pinned on {PINNED_ON}, ran on {numpy_and_blas()}"
