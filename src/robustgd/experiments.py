"""Experiment orchestration: environment presets, sweeps, and metric records.

An experiment trains one or more algorithm variants on a sharded dataset
under a configured byzantine attack, then scores clean and shift-perturbed
misclassification on the held-out split. Each (variant, environment,
sweep-point) produces one JSON record; records are emitted line-delimited,
contain no timestamps, and are byte-identical across reruns of the same
config, so diffing output files is a meaningful regression check.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .aggregation import ScreenConfig
from .attacks import AttackSpec
from .bounds import TheoryInputs, check_aggregate_deviation
from .data import load_spambase, split_and_shard, synthetic_spambase_like
from .errors import ConfigError, NumericError
from .losses import LogisticLoss
from .shift import ShiftSpec, misclassification_rate, perturb_test_set, sweep_budgets
from .simulation import (
    VARIANTS,
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    run_variant,
    variant_config,
    with_diagnostics,
)
from .surrogate import DROConfig

# Experiment environments: byzantine behavior plus the test-time shift.
PRESETS = {
    "E0": dict(attack="none", alpha_m=0, shift_q=0.0, shift_norm="l1"),
    "E1": dict(attack="aggressive", alpha_m=3, shift_q=0.3, shift_norm="l1"),
    "E2": dict(attack="aggressive", alpha_m=3, shift_q=0.3, shift_norm="l2"),
    "E3": dict(attack="intelligent", alpha_m=3, shift_q=0.3, shift_norm="l1"),
    "E4": dict(attack="intelligent", alpha_m=3, shift_q=0.3, shift_norm="l2"),
}

SWEEP_AXES = ("shift_q", "alpha_m", "lam", "t_z")
INTEGER_AXES = ("alpha_m", "t_z")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, JSON-serializable description of one experiment."""

    dataset: str = "synthetic"      # CSV path, or "synthetic" for the stand-in corpus
    preset: str | None = None       # environment preset; applied and cleared at construction
    environment: str | None = None  # label of the expanded preset
    variant: str = "alg2"
    m: int = 20
    train_frac: float = 2.0 / 3.0
    eta: float = 1.0
    iterations: int = 300
    lam: float = 3.0
    eta_z: float = 0.05
    t_z: int = 10
    screen_count: int = 3
    attack: str | None = None       # None: taken from the preset (E0 without one)
    alpha_m: int | None = None
    attack_scale: float = 10.0
    attack_ratio: float = 0.8
    attack_shared_direction: bool = False
    shift_norm: str | None = None
    shift_q: float | None = None
    shift_steps: int = 20
    seed: int = 0
    data_seed: int = 0
    allow_excess_byzantine: bool = False
    check_bounds: bool = False      # diagnostic deviation-bound report per run

    def __post_init__(self):
        """Apply the preset: dataclass defaults < preset < fields passed explicitly.

        Each preset-controlled field left at None takes the preset's value;
        without a preset that is E0, whose values are the plain defaults. The
        preset is cleared once applied and its name survives as
        ``environment``, so ``replace`` and a round trip through the record's
        config dict rebuild the same config. A preset given next to an
        environment label is refused: the fields the label names are already
        explicit, so the preset would only relabel them.
        """
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}, expected one of {sorted(PRESETS)}")
        if self.preset is not None and self.environment is not None:
            raise ConfigError(
                f"preset {self.preset!r} given for a config already expanded from "
                f"{self.environment!r}; build a new config from the preset instead"
            )
        for name, value in PRESETS[self.preset or "E0"].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.preset is not None:
            object.__setattr__(self, "environment", self.preset)
            object.__setattr__(self, "preset", None)
        self._check_ranges()

    def _check_ranges(self):
        """Refuse, at construction, the values the simulation would reject deep in a run.

        The specs a run builds (training, inner ascent, screening, test shift
        and, unless the attack is 'none', the attack) are built here once, so
        their own checks are the only copy of each rule.
        """
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        for name in ("alpha_m", "screen_count"):
            if not 0 <= getattr(self, name) < self.m:
                raise ConfigError(f"{name} must be in [0, m={self.m}), got {getattr(self, name)}")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if self.alpha_m > 0 and self.attack == "none":
            raise ConfigError(
                f"alpha_m={self.alpha_m} byzantine workers need an attack, got attack='none'"
            )
        _train_config(self)
        _shift_spec(self)
        if self.attack != "none":
            _attack_spec(self)

    def resolved(self):
        """The config itself: presets are applied at construction.

        Kept for callers of the former expansion step (perfbench/workload.py).
        """
        return self


def prepare_data(cfg: ExperimentConfig):
    if cfg.dataset == "synthetic":
        ds = synthetic_spambase_like(seed=cfg.data_seed)
    else:
        ds = load_spambase(cfg.dataset)
    return split_and_shard(ds, train_frac=cfg.train_frac, m=cfg.m, seed=cfg.seed)


def _attack_spec(cfg: ExperimentConfig):
    return AttackSpec(
        kind=cfg.attack,
        scale=cfg.attack_scale,
        ratio=cfg.attack_ratio,
        shared_direction=cfg.attack_shared_direction,
        rng_seed=cfg.seed,
    )


def _shift_spec(cfg: ExperimentConfig):
    return ShiftSpec(norm=cfg.shift_norm, budget=cfg.shift_q, ascent_steps=cfg.shift_steps)


def _roster(cfg: ExperimentConfig, sharded):
    return WorkerRoster(
        shards=sharded.shards,
        byzantine=tuple(range(cfg.alpha_m)),
        attack=None if cfg.alpha_m == 0 else _attack_spec(cfg),
        allow_excess_byzantine=cfg.allow_excess_byzantine,
    )


def _train_config(cfg: ExperimentConfig):
    return TrainConfig(
        eta=cfg.eta,
        iterations=cfg.iterations,
        dro=DROConfig(cfg.lam, cfg.eta_z, cfg.t_z),
        screen=ScreenConfig(cfg.screen_count),
        seed=cfg.seed,
    )


def train(cfg: ExperimentConfig, sharded, variant=None):
    """Train one variant and return its trace."""
    variant = cfg.variant if variant is None else variant
    return run_variant(
        variant, LogisticLoss(), sharded.train_features, sharded.train_labels,
        _roster(cfg, sharded), _train_config(cfg),
    )


def evaluate(theta, sharded, cfg: ExperimentConfig):
    clean = misclassification_rate(theta, sharded.test_features, sharded.test_labels)
    if cfg.shift_q == 0.0:
        shifted = clean
    else:
        Z = perturb_test_set(theta, sharded.test_features, sharded.test_labels, _shift_spec(cfg))
        shifted = misclassification_rate(theta, Z, sharded.test_labels)
    return {"clean_misclassification": float(clean), "shift_misclassification": float(shifted)}


def _diagnostic_bounds(cfg: ExperimentConfig, sharded, trace):
    """Deviation-bound report with estimated constants; diagnostic, never certified.

    Lipschitz constants come from measured norm bounds, sigma from
    high-precision dispersion measurements, and the true gradients and
    per-iteration inner-solve accuracy from the recorded iterates; a violated
    bound here means the estimates were optimistic, not that the run is wrong.
    """
    effective, roster = variant_config(cfg.variant, _train_config(cfg), _roster(cfg, sharded))
    alpha = len(roster.byzantine) / roster.m
    beta = effective.screen.screen_count / roster.m
    if beta < alpha:
        return {"certified": False, "applicable": False,
                "reason": "corrupted fraction exceeds screened fraction"}
    model = LogisticLoss()
    X, Y = sharded.train_features, sharded.train_labels
    data_bound = float(np.linalg.norm(X, axis=1).max())
    theta_bound = float(max(
        np.linalg.norm(trace.iterates, axis=1).max(),
        np.linalg.norm(trace.theta_final),
    ))
    sigma = max(
        gradient_dispersion(model, X, Y, trace.iterates[0], cfg.lam, precision_t_z=150),
        gradient_dispersion(model, X, Y, trace.theta_final, cfg.lam, precision_t_z=150),
    )
    inputs = TheoryInputs(
        constants=model.constants(data_bound, theta_bound),
        lam=cfg.lam, alpha=alpha, beta=beta, sigma=sigma,
    )
    trace = with_diagnostics(model, X, Y, trace, effective.dro, true_solver_t_z=150)
    reports = check_aggregate_deviation(trace, inputs)
    return {
        "certified": False,
        "applicable": True,
        "aggregate_deviation": {
            "iterations": len(reports),
            "satisfied": int(sum(r.satisfied for r in reports)),
            "min_margin": float(min(r.margin for r in reports)),
        },
    }


def _record(cfg, results, trace, sweep=None):
    record = {
        "kind": "experiment",
        "config": asdict(cfg),
        "results": results,
        "trace": {
            "iterations": int(trace.iterations),
            "final_aggregated_norm": float(trace.aggregated_norms[-1]),
            "final_objective_estimate": float(trace.objective_estimates[-1]),
        },
    }
    if sweep is not None:
        record["sweep"] = sweep
    return record


def run_experiment(cfg: ExperimentConfig, variants=None, on_record=None):
    """Train and score each requested variant; one record per variant.

    ``on_record`` is called with each finished record as it is produced, so
    callers can flush partial results; a failure mid-way surfaces with the
    variant and full config in the error context.
    """
    variants = [cfg.variant] if variants is None else list(variants)
    sharded = prepare_data(cfg)
    records = []
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        vcfg = replace(cfg, variant=variant)
        try:
            trace = train(vcfg, sharded)
            record = _record(vcfg, evaluate(trace.theta_final, sharded, vcfg), trace)
            if cfg.check_bounds:
                record["bounds"] = _diagnostic_bounds(vcfg, sharded, trace)
        except Exception as exc:
            raise RuntimeError(
                f"experiment failed for variant={variant!r}, config={asdict(vcfg)}"
            ) from exc
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


def sweep_points(cfg: ExperimentConfig, axis, values):
    """One config per grid value, each checked at construction.

    Refuses an unknown axis, a non-integral value on an integer axis, and a
    point the config itself rejects. Points on the alpha_m axis beyond the
    screening count carry the excess-byzantine override, since probing that
    regime is the point.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}, expected one of {SWEEP_AXES}")
    if axis in INTEGER_AXES:
        fractional = [v for v in values if not float(v).is_integer()]
        if fractional:
            raise ConfigError(f"sweep axis {axis} takes integers, got {fractional}")
    points = []
    for value in values:
        point = replace(cfg, **{axis: type(getattr(cfg, axis))(value)})
        if axis == "alpha_m" and value > cfg.screen_count:
            point = replace(point, allow_excess_byzantine=True)
        points.append(point)
    return points


def sweep(cfg: ExperimentConfig, axis, values, variants=None, on_record=None):
    """Grid over one config axis; one record per (variant, value).

    A shift-budget sweep reuses one trained model per variant and
    warm-starts each budget from the previous one; other axes retrain one
    ``sweep_points`` config per value. Records are handed to ``on_record`` as
    each point finishes, in declaration order.
    """
    points = sweep_points(cfg, axis, values)
    variants = [cfg.variant] if variants is None else list(variants)
    records = []

    def emit(record):
        records.append(record)
        if on_record is not None:
            on_record(record)

    if axis == "shift_q":
        sharded = prepare_data(cfg)
        for variant in variants:
            vcfg = replace(cfg, variant=variant)
            trace = train(vcfg, sharded)
            clean = misclassification_rate(
                trace.theta_final, sharded.test_features, sharded.test_labels
            )
            rates = sweep_budgets(
                trace.theta_final, sharded.test_features, sharded.test_labels,
                cfg.shift_norm, values, ascent_steps=cfg.shift_steps,
            )
            for q, rate in rates:
                pcfg = replace(vcfg, shift_q=q)
                results = {
                    "clean_misclassification": float(clean),
                    "shift_misclassification": float(rate),
                }
                emit(_record(pcfg, results, trace, sweep={"axis": axis, "value": q}))
        return records

    for pcfg in points:
        for record in run_experiment(pcfg, variants=variants):
            record["sweep"] = {"axis": axis, "value": record["config"][axis]}
            emit(record)
    return records


def record_line(record):
    """One record as a JSON line with sorted keys; byte-stable for a fixed config.

    A non-finite number is refused with the fields that hold it rather than
    written as non-standard JSON.
    """
    try:
        return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(
            f"non-finite record fields {list(_non_finite_fields(record))} "
            f"for config={record.get('config')}"
        ) from exc


def _non_finite_fields(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite_fields(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite_fields(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path


def write_records(records, path):
    """Line-delimited JSON (``record_line``); byte-stable for a fixed config."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(record_line(record))


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def export_csv(records, path):
    """Flat plot-ready table with one row per record."""
    fields = [
        "environment", "variant", "attack", "alpha_m", "shift_norm", "shift_q",
        "lam", "t_z", "seed", "clean_misclassification", "shift_misclassification",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for record in records:
            row = {k: record["config"].get(k) for k in fields if k in record["config"]}
            row.update({k: record["results"][k] for k in
                        ("clean_misclassification", "shift_misclassification")})
            writer.writerow(row)


def report_table(records):
    """Environment-by-variant comparison of shifted misclassification."""
    cells = {}
    rows = []
    for record in records:
        cfg = record["config"]
        label = cfg.get("environment") or f"{cfg['attack']},q={cfg['shift_q']}"
        if record.get("sweep"):
            label = f"{record['sweep']['axis']}={record['sweep']['value']}"
        if label not in rows:
            rows.append(label)
        cells[(label, cfg["variant"])] = record["results"]["shift_misclassification"]
    variants = [v for v in VARIANTS if any((r, v) in cells for r in rows)]
    out = io.StringIO()
    header = ["environment"] + list(variants)
    widths = [max(12, len(h)) for h in header]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
    for row in rows:
        line = [row.ljust(widths[0])]
        for v, w in zip(variants, widths[1:]):
            val = cells.get((row, v))
            line.append(("-" if val is None else f"{val:.4f}").ljust(w))
        out.write("  ".join(line).rstrip() + "\n")
    return out.getvalue()
