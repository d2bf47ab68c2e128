"""Experiment orchestration: environment presets, one train-and-score loop, and records.

An experiment trains one or more algorithm variants on a sharded dataset
under a configured byzantine attack, then scores clean and shift-perturbed
misclassification on the held-out split. ``run_experiment`` and ``sweep`` are
thin callers of one loop that trains each variant once per training config
and scores every config. Each (variant, config) produces one JSON record;
records are emitted line-delimited, contain no timestamps, and are
byte-identical across reruns of the same config, so diffing output files is
a meaningful regression check.
"""

import csv
import io
import json
import logging
import math
import numbers
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .aggregation import ScreenConfig, dot_sq_norms, screening_coefficient
from .attacks import AGGRESSIVE, AttackSpec
from .bounds import TheoryInputs, check_aggregate_deviation
from .data import load_spambase, split_and_shard, synthetic_spambase_like
from .errors import ConfigError, DataFormatError, NumericError, RegimeError, require_count
from .losses import LogisticLoss
from .shift import ShiftSpec, misclassification_rate, perturb_test_set
from .simulation import (
    VARIANTS,
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    honest_objective,
    run_training,
    variant_config,
    with_diagnostics,
)
from .surrogate import DROConfig

log = logging.getLogger(__name__)

# Experiment environments: byzantine behavior plus the test-time shift.
PRESETS = {
    "E0": dict(attack="none", alpha_m=0, shift_q=0.0, shift_norm="l1"),
    "E1": dict(attack="aggressive", alpha_m=3, shift_q=0.3, shift_norm="l1"),
    "E2": dict(attack="aggressive", alpha_m=3, shift_q=0.3, shift_norm="l2"),
    "E3": dict(attack="intelligent", alpha_m=3, shift_q=0.3, shift_norm="l1"),
    "E4": dict(attack="intelligent", alpha_m=3, shift_q=0.3, shift_norm="l2"),
}

SWEEP_AXES = ("shift_q", "alpha_m", "lam", "t_z")


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
    shift_norm: str | None = None
    shift_q: float | None = None
    seed: int = 0
    data_seed: int = 0
    allow_excess_byzantine: bool = False
    check_bounds: bool = False      # diagnostic deviation-bound report per run

    def __post_init__(self):
        """Store each field as its declared type (``_as_declared``), then apply the
        preset: dataclass defaults < preset < fields passed explicitly.

        Each preset-controlled field left at None takes the preset's value;
        without a preset that is E0, whose values are the plain defaults. The
        preset is cleared once applied and its name survives as
        ``environment``, so ``replace`` and a round trip through the record's
        config dict rebuild the same config. A preset given next to an
        environment label is refused: the fields the label names are already
        explicit, so the preset would only relabel them.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or not typing.get_args(f.type):  # None only for X | None
                object.__setattr__(self, f.name, _as_declared(f.name, value))
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
        and the attack) are built here once, so their own checks are the only
        copy of each rule. Every record carries the attack fields, so they are
        checked whatever the attack: under 'none' as an aggressive attack's,
        whose rules for them are every kind's.
        """
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        for name in ("alpha_m", "screen_count"):
            if not 0 <= getattr(self, name) < self.m:
                raise ConfigError(f"{name} must be in [0, m={self.m}), got {getattr(self, name)}")
        require_count("data_seed", self.data_seed, 0)
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if self.alpha_m > 0 and self.attack == "none":
            raise ConfigError(
                f"alpha_m={self.alpha_m} byzantine workers need an attack, got attack='none'"
            )
        _train_config(self)
        _shift_spec(self)
        _attack_spec(self, AGGRESSIVE if self.attack == "none" else self.attack)

    def resolved(self):
        """The config itself: presets are applied at construction.

        Kept for callers of the former expansion step (perfbench/workload.py).
        """
        return self


def _as_declared(name, value):
    """``value`` as the declared type of config field ``name``, or ``ConfigError``.

    A float field takes any real number but a bool; an int field takes an
    integral one; str and bool fields take only their own type.
    """
    declared = ExperimentConfig.__dataclass_fields__[name].type
    kind = (typing.get_args(declared) or (declared,))[0]  # X | None -> X
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind is float and number:
        return float(value)
    if kind is int and number and (isinstance(value, numbers.Integral)
                                   or float(value).is_integer()):
        return int(value)
    if kind in (str, bool) and isinstance(value, kind):
        return value
    expected = {float: "numbers", int: "integers", str: "strings", bool: "true or false"}[kind]
    raise ConfigError(f"{name} takes {expected}, got {value!r}")


def prepare_data(cfg: ExperimentConfig):
    if cfg.dataset == "synthetic":
        ds = synthetic_spambase_like(seed=cfg.data_seed)
    else:
        ds = load_spambase(cfg.dataset)
    return split_and_shard(ds, train_frac=cfg.train_frac, m=cfg.m, seed=cfg.seed)


def _attack_spec(cfg: ExperimentConfig, kind=None):
    return AttackSpec(
        kind=cfg.attack if kind is None else kind,
        scale=cfg.attack_scale,
        ratio=cfg.attack_ratio,
        rng_seed=cfg.seed,
    )


def _shift_spec(cfg: ExperimentConfig):
    return ShiftSpec(norm=cfg.shift_norm, budget=cfg.shift_q)


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


def train(cfg: ExperimentConfig, sharded):
    """Train cfg.variant; returns (trace, effective TrainConfig, effective roster).

    A variant that runs the inner ascent (t_z > 0) warns when an iterate
    leaves the strongly concave inner regime, lam > ||theta||^2 / 4, where
    the worker ascent no longer contracts; the records do not change.
    """
    tcfg, roster = variant_config(cfg.variant, _train_config(cfg), _roster(cfg, sharded))
    trace = run_training(
        LogisticLoss(), sharded.train_features, sharded.train_labels, roster, tcfg
    )
    if tcfg.dro.t_z > 0:
        _warn_outside_regime(trace.iterates, tcfg.dro.lam, cfg.variant)
    return trace, tcfg, roster


def _warn_outside_regime(iterates, lam, variant):
    """Log the first iterate with ||theta||^2 / 4 >= lam, and the largest such value.

    ||theta||^2 is the stacked (1, d) @ (d, 1) product ``exact_rows`` tests
    the regime with (``dot_sq_norms``), taken over views of the iterates
    without a (T, d) temporary.
    """
    quarter_sq_norms = 0.25 * dot_sq_norms(iterates)
    worst = quarter_sq_norms.max()
    if worst >= lam:
        first = int(np.argmax(quarter_sq_norms >= lam))
        log.warning(
            "variant %s leaves the strongly concave inner regime at iterate %d: "
            "||theta||^2/4 = %.4g >= lam = %.4g (largest %.4g)",
            variant, first, quarter_sq_norms[first], lam, worst,
        )


def evaluate(theta, sharded, cfg: ExperimentConfig):
    """Clean misclassification and misclassification under the shift of budget shift_q.

    A rate with NaN logits raises ``NumericError`` naming the result.
    """
    X, Y = sharded.test_features, sharded.test_labels
    results = {"clean_misclassification": X,
               "shift_misclassification": perturb_test_set(theta, X, Y, _shift_spec(cfg))}
    for name, features in results.items():
        try:
            results[name] = misclassification_rate(theta, features, Y)
        except NumericError as exc:
            raise NumericError(f"{name}: {exc}", rows=exc.rows) from exc
    return results


def _diagnostic_bounds(sharded, trace, effective: TrainConfig, roster: WorkerRoster):
    """Deviation-bound report with estimated constants; diagnostic, never certified.

    Lipschitz constants come from measured norm bounds, sigma from the
    dispersion at the exact inner maximizers, and the true gradients and
    per-iteration inner-solve accuracy from the recorded iterates; a violated
    bound here means the estimates were optimistic, not that the run is wrong.
    The report is inapplicable when screening cannot cover the corrupted
    workers or they are a majority (``screening_coefficient`` refuses), or
    when an iterate leaves the strongly concave inner regime
    (lam <= ||theta||^2 / 4), where no exact maximizer is defined.
    ``effective`` and ``roster`` are the run's own, as ``train`` returns them.
    """
    lam, model = effective.dro.lam, LogisticLoss()
    X, Y = sharded.train_features, sharded.train_labels
    try:
        c_alpha = screening_coefficient(
            len(roster.byzantine), effective.screen.screen_count, roster.m)
        diagnosed = with_diagnostics(model, X, Y, trace, effective.dro)  # names a failing iterate
    except RegimeError as exc:
        return _inapplicable(str(exc))
    try:  # a theta_final whose ||theta||^2 overflows (NumericError) is far outside too
        sigma_final = gradient_dispersion(model, X, Y, trace.theta_final, lam)
    except (RegimeError, NumericError) as exc:
        return _inapplicable(f"iterate {trace.iterations}: {exc}")
    sigma = max(gradient_dispersion(model, X, Y, trace.iterates[0], lam), sigma_final)
    data_bound = float(np.linalg.norm(X, axis=1).max())
    theta_bound = float(max(
        np.linalg.norm(trace.iterates, axis=1).max(),
        np.linalg.norm(trace.theta_final),
    ))
    inputs = TheoryInputs(
        constants=model.constants(data_bound, theta_bound),
        lam=lam, c_alpha=c_alpha, sigma=sigma,
    )
    reports = check_aggregate_deviation(diagnosed, inputs)
    return {
        "certified": False,
        "applicable": True,
        "aggregate_deviation": {
            "iterations": len(reports),
            "satisfied": int(sum(r.satisfied for r in reports)),
            "min_margin": float(min(r.margin for r in reports)),
        },
    }


def _inapplicable(reason):
    return {"certified": False, "applicable": False, "reason": reason}


def _record(cfg, sharded, trace, objective, bounds, axis):
    # np.linalg.norm of the last aggregate; a finite G past 1e154 has norm
    # inf, which record_line refuses by name
    with np.errstate(over="ignore"):
        final_norm = float(np.sqrt(dot_sq_norms(trace.aggregated[-1:]))[0])
    record = {
        "kind": "experiment",
        "config": asdict(cfg),
        "results": evaluate(trace.theta_final, sharded, cfg),
        "trace": {
            "iterations": int(trace.iterations),
            "final_aggregated_norm": final_norm,
            "final_objective_estimate": objective,
        },
    }
    if bounds:
        record["bounds"] = bounds
    if axis is not None:
        record["sweep"] = {"axis": axis, "value": getattr(cfg, axis)}
    return record


def _train_and_score(points, variants, on_record, axis=None):
    """The one loop behind ``run_experiment`` and ``sweep``: a record per (variant, point).

    Every (variant, point) config is built, and so checked, before anything
    trains, and the data are prepared once: no sweep axis touches them.
    Variant by variant, a point that differs from the last trained one only
    in shift_q is scored on that run; any other point trains, takes its
    final objective estimate (``honest_objective``, once per trained run)
    and, with check_bounds, builds its bounds report. ``evaluate`` scores
    every record, each goes to ``on_record`` as it is made, and a failure (a
    non-finite record field included) is raised as a ``RuntimeError`` naming
    the variant and the config.
    """
    variants = [points[0].variant] if variants is None else variants
    runs = [[replace(point, variant=v) for point in points] for v in variants]
    sharded = prepare_data(points[0])
    records = []
    for configs in runs:
        trained = None  # config of the last trained run
        for cfg in configs:
            try:
                if trained is None or replace(trained, shift_q=cfg.shift_q) != cfg:
                    trained, (trace, effective, roster) = cfg, train(cfg, sharded)
                    objective = honest_objective(LogisticLoss(), sharded.train_features,
                                                 sharded.train_labels, roster, effective.dro,
                                                 trace)
                    bounds = cfg.check_bounds and _diagnostic_bounds(
                        sharded, trace, effective, roster)
                record = _record(cfg, sharded, trace, objective, bounds, axis)
                record_line(record)  # refuses a non-finite field by name
            except Exception as exc:
                raise RuntimeError(
                    f"experiment failed for variant={cfg.variant!r}, config={asdict(cfg)}"
                ) from exc
            records.append(record)
            if on_record is not None:
                on_record(record)
    return records


def run_experiment(cfg: ExperimentConfig, variants=None, on_record=None):
    """Train and score each requested variant (default: cfg.variant); one record per variant.

    ``on_record`` is called with each finished record as it is produced, so
    callers can flush partial results; a failure mid-way surfaces with the
    variant and full config in the error context.
    """
    return _train_and_score([cfg], variants, on_record)


def sweep_points(cfg: ExperimentConfig, axis, values):
    """One config per grid value, each checked at construction.

    Each value is first cast to the axis's declared type, so a non-integral
    value on an integer axis is refused before any point is built. Points on
    the alpha_m axis beyond the screening count carry the excess-byzantine
    override, since probing that regime is the point.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}, expected one of {SWEEP_AXES}")
    values = [_as_declared(axis, value) for value in values]
    if not values:
        raise ConfigError(f"sweep axis {axis} needs at least one value")
    points = []
    for value in values:
        point = replace(cfg, **{axis: value})
        if axis == "alpha_m" and point.alpha_m > cfg.screen_count:
            point = replace(point, allow_excess_byzantine=True)
        points.append(point)
    return points


def sweep(cfg: ExperimentConfig, axis, values, variants=None, on_record=None):
    """Grid over one config axis; one record per (variant, value), variant by variant.

    The loop of ``run_experiment`` over the ``sweep_points`` configs: each
    variant trains once per training config, so a shift_q grid scores every
    budget on one run, each as ``run_experiment`` would, bounds included.
    """
    return _train_and_score(sweep_points(cfg, axis, values), variants, on_record, axis)


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


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_string(value):
    return isinstance(value, str)


def _report_fault(record):
    """The first field ``report_table`` reads that a record lacks or holds wrongly, or None.

    The table reads the variant, the row label (the environment, else the
    attack and shift_q; a sweep record's axis and value) and the shifted
    misclassification.
    """
    cfg = record["config"]
    wanted = [("config", "variant", VARIANTS.__contains__, f"one of {list(VARIANTS)}")]
    if cfg.get("environment") is not None:
        wanted.append(("config", "environment", _is_string, "a string"))
    if not cfg.get("environment"):
        wanted += [("config", "attack", _is_string, "a string"),
                   ("config", "shift_q", _is_number, "a number")]
    if "sweep" in record:
        if not isinstance(record["sweep"], dict):
            return f"sweep must be an object with axis and value, got {record['sweep']!r}"
        wanted += [("sweep", "axis", _is_string, "a string"),
                   ("sweep", "value", _is_number, "a number")]
    wanted.append(("results", "shift_misclassification", _is_number, "a number"))
    for section, key, valid, expected in wanted:
        if key not in record[section]:
            return f"{section}.{key} is missing"
        if not valid(record[section][key]):
            return f"{section}.{key} must be {expected}, got {record[section][key]!r}"
    return None


def read_records(path):
    """The records of a JSONL file, each with the fields ``report_table`` reads.

    ``DataFormatError`` names a bad file line and, for a record, the field.
    """
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: not a JSON line") from None
            if not (isinstance(record, dict)
                    and all(isinstance(record.get(k), dict) for k in ("config", "results"))):
                raise DataFormatError(f"{path}:{lineno}: not a record with config and results")
            fault = _report_fault(record)
            if fault:
                raise DataFormatError(f"{path}:{lineno}: {fault}")
            records.append(record)
    return records


def export_csv(records, path):
    """Flat plot-ready table with one row per record."""
    columns = [
        "environment", "variant", "attack", "alpha_m", "shift_norm", "shift_q",
        "lam", "t_z", "seed", "clean_misclassification", "shift_misclassification",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for record in records:
            row = {k: record["config"].get(k) for k in columns if k in record["config"]}
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
