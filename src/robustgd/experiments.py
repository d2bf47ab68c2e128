"""Experiment orchestration: environment presets, one train-and-score loop, and records.

An experiment trains one or more algorithm variants (``VARIANTS``: which of
screening and the inner ascent stay on, applied where ``_train_config``
builds a run's ``TrainConfig``) on m workers, the first alpha_m of them
byzantine under a configured attack, then scores clean and shift-perturbed
misclassification on the held-out split. Every rule on a config's fields is
checked when the ``ExperimentConfig`` is built, the excess-byzantine rule of
the screening variants included, so a refused config prepares no data.
``run_experiment`` (one config or several, such as the E0-E4 grid) and
``sweep`` are thin callers of one loop. Within a call it prepares each
distinct data set once and trains each distinct run once: configs that
differ only in what evaluation reads (shift_q, shift_norm, environment)
share the run, as E1 and E2 do. Each record is then scored with only its
own work, the shift of its budget on the run's ``ShiftScorer``, and a
sweep builds each (variant, value) config once.
Each (variant, config) produces one JSON record; records are emitted
line-delimited, contain no timestamps, and are byte-identical across
reruns of the same config, and across calls that group configs
differently, so diffing output files is a meaningful regression check.
One rule reads, checks and labels a record's report row (``_report_row``),
for ``read_records`` and ``report_table`` alike.
"""

import csv
import io
import json
import logging
import math
import numbers
import typing
from dataclasses import dataclass, fields, replace
from operator import attrgetter

import numpy as np

from .aggregation import ScreenConfig, dot_sq_norms, screening_coefficient
from .attacks import AGGRESSIVE, AttackSpec
from .bounds import TheoryInputs, check_aggregate_deviation
from .data import load_spambase, split_and_shard, synthetic_spambase_like
from .errors import ConfigError, DataFormatError, NumericError, RegimeError, require_count
from .losses import LogisticLoss
from .shift import ShiftBuffer, ShiftScorer, ShiftSpec
from .simulation import (
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    honest_objective,
    run_training,
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

# Algorithm variants: which of the two robustness measures stay on. alg2
# keeps both; dro_only drops screening (plain averaging); nbs_only drops the
# data perturbation (zero ascent steps); erm drops both.
VARIANTS = ("alg2", "dro_only", "nbs_only", "erm")
SCREENING = ("alg2", "nbs_only")


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
        and the roster with its attack) are built here once, so their own
        checks are the only copy of each rule: the roster's for m, alpha_m
        and the byzantine side among them. Every record carries the attack
        fields, so under attack 'none', which builds no attack, they are
        checked as an aggressive attack's, whose rules for them are every
        kind's. A variant that screens (``SCREENING``) is refused more
        byzantine workers than screen_count unless allow_excess_byzantine is
        set; dro_only and erm screen none.
        """
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        _roster(self)
        if not 0 <= self.screen_count < self.m:
            raise ConfigError(f"screen_count must be in [0, m={self.m}), got {self.screen_count}")
        require_count("data_seed", self.data_seed, 0)
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"train_frac must be in (0, 1), got {self.train_frac}")
        _train_config(self)
        _shift_spec(self)
        if self.attack == "none":
            _attack_spec(self, AGGRESSIVE)
        if (self.variant in SCREENING and self.alpha_m > self.screen_count
                and not self.allow_excess_byzantine):
            raise ConfigError(
                f"alpha_m={self.alpha_m} byzantine workers exceed screen_count="
                f"{self.screen_count} under variant {self.variant!r}; set "
                f"allow_excess_byzantine to demo this regime"
            )

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


def _roster(cfg: ExperimentConfig):
    return WorkerRoster(cfg.m, cfg.alpha_m, None if cfg.attack == "none" else _attack_spec(cfg))


def _train_config(cfg: ExperimentConfig):
    """The run's ``TrainConfig`` under cfg.variant (``VARIANTS``).

    dro_only and erm screen none; nbs_only and erm take no ascent steps,
    their inner settings built from the config's own t_z first, so every
    variant checks it.
    """
    dro = DROConfig(cfg.lam, cfg.eta_z, cfg.t_z)
    return TrainConfig(
        eta=cfg.eta,
        iterations=cfg.iterations,
        dro=dro if cfg.variant in ("alg2", "dro_only") else replace(dro, t_z=0),
        screen=ScreenConfig(cfg.screen_count if cfg.variant in SCREENING else 0),
        seed=cfg.seed,
    )


def train(cfg: ExperimentConfig, sharded):
    """Train cfg.variant; returns (trace, effective TrainConfig, effective roster).

    A variant that runs the inner ascent (t_z > 0) warns when an iterate
    leaves the strongly concave inner regime, lam > ||theta||^2 / 4, where
    the worker ascent no longer contracts; the records do not change.
    """
    tcfg, roster = _train_config(cfg), _roster(cfg)
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


def evaluate(scorer: ShiftScorer, cfg: ExperimentConfig):
    """Clean misclassification and misclassification under the shift of budget shift_q.

    ``scorer`` is the ``ShiftScorer`` of the run's theta on its test set. The
    shift is taken first, so its refusals come before a rate's, and a rate
    with NaN logits raises ``NumericError`` naming the result.
    """
    features = scorer.shifted(_shift_spec(cfg))
    name = "clean_misclassification"
    try:
        clean = scorer.clean_rate()
        name = "shift_misclassification"
        shifted = scorer.rate(features)
    except NumericError as exc:
        raise NumericError(f"{name}: {exc}", rows=exc.rows) from exc
    return {"clean_misclassification": clean, "shift_misclassification": shifted}


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
            roster.alpha_m, effective.screen.screen_count, roster.m)
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


# a record's config fields; the evaluation-only ones do not change training,
# and a data preparation reads only its own
_FIELDS = tuple(f.name for f in fields(ExperimentConfig))
_EVALUATION_ONLY = ("shift_q", "shift_norm", "environment")
_training_key = attrgetter(*(name for name in _FIELDS if name not in _EVALUATION_ONLY))
_data_key = attrgetter("dataset", "data_seed", "train_frac", "m", "seed")
_field_values = attrgetter(*_FIELDS)


def _config_dict(cfg):
    """``asdict(cfg)``, built from the fields directly: every field is a scalar."""
    return dict(zip(_FIELDS, _field_values(cfg)))


@dataclass(frozen=True)
class _Run:
    """What the records of one trained run read of it; the trace is not kept."""

    iterations: int
    final_norm: float
    objective: float
    bounds: dict | bool
    scorer: ShiftScorer


def _trained_run(cfg, sharded, buffer):
    """Train cfg, then take its objective estimate, bounds report and ``ShiftScorer``.

    The final objective estimate is ``honest_objective``'s, and with
    check_bounds the bounds report is ``_diagnostic_bounds``'. The scorer
    checks theta_T on the test set and shifts into ``buffer``.
    """
    trace, effective, roster = train(cfg, sharded)
    objective = honest_objective(sharded.train_features, sharded.train_labels,
                                 roster, effective.dro, trace)
    bounds = cfg.check_bounds and _diagnostic_bounds(sharded, trace, effective, roster)
    # np.linalg.norm of the last aggregate; a finite G past 1e154 has norm
    # inf, which record_line refuses by name
    with np.errstate(over="ignore"):
        final_norm = float(np.sqrt(dot_sq_norms(trace.aggregated[-1:]))[0])
    scorer = ShiftScorer(trace.theta_final, buffer, sharded.test_labels)
    return _Run(int(trace.iterations), final_norm, objective, bounds, scorer)


def _record(cfg, run: _Run, axis):
    record = {
        "kind": "experiment",
        "config": _config_dict(cfg),
        "results": evaluate(run.scorer, cfg),
        "trace": {
            "iterations": run.iterations,
            "final_aggregated_norm": run.final_norm,
            "final_objective_estimate": run.objective,
        },
    }
    if run.bounds:
        record["bounds"] = run.bounds
    if axis is not None:
        record["sweep"] = {"axis": axis, "value": getattr(cfg, axis)}
    return record


def _train_and_score(configs, on_record, axis=None):
    """The one loop behind ``run_experiment`` and ``sweep``: a record per config, in order.

    Every config is built, and so checked, before this loop, and the data
    are prepared first, once per distinct (dataset, data_seed, train_frac,
    m, seed). Each distinct run, the config without its evaluation-only
    fields (shift_q, shift_norm, environment), trains once in the call
    (``_trained_run``); its records read that run's summary, and
    ``evaluate`` scores each of them on the run's ``ShiftScorer``, whose
    shifts share one buffer per data preparation. Nothing is kept across
    calls. Each record goes to ``on_record`` as it is made, and a failure (a
    non-finite record field included) is raised as a ``RuntimeError``
    naming the variant and the config.
    """
    data = {}
    for cfg in configs:
        if _data_key(cfg) not in data:
            sharded = prepare_data(cfg)
            data[_data_key(cfg)] = sharded, ShiftBuffer(sharded.test_features)
    runs, records = {}, []
    for cfg in configs:
        sharded, buffer = data[_data_key(cfg)]
        try:
            run = runs.get(_training_key(cfg))
            if run is None:
                run = runs[_training_key(cfg)] = _trained_run(cfg, sharded, buffer)
            record = _record(cfg, run, axis)
            record_line(record)  # refuses a non-finite field by name
        except Exception as exc:
            raise RuntimeError(
                f"experiment failed for variant={cfg.variant!r}, config={_config_dict(cfg)}"
            ) from exc
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


def run_experiment(configs, variants=None, on_record=None):
    """Train and score each requested variant of one config or of a sequence of configs.

    ``configs`` is one ``ExperimentConfig`` or several; ``variants`` defaults
    to each config's own. One record per (variant, config), variant by
    variant, config by config, and each run that configs share (the E1 and
    E2 presets differ only in the test shift) trains once. ``on_record`` is
    called with each finished record as it is produced, so callers can
    flush partial results; a failure mid-way surfaces with the variant and
    full config in the error context.
    """
    configs = [configs] if isinstance(configs, ExperimentConfig) else list(configs)
    if variants is not None:
        configs = [cfg if cfg.variant == v else replace(cfg, variant=v)
                   for v in variants for cfg in configs]
    return _train_and_score(configs, on_record)


def sweep_points(cfg: ExperimentConfig, axis, values):
    """One config per grid value, each checked at construction (``_grid``)."""
    return _grid(cfg, axis, values, [cfg.variant])


def _grid(cfg, axis, values, variants):
    """One config per (variant, grid value), variant by variant, each built once.

    Each value is first cast to the axis's declared type, so a non-integral
    value on an integer axis is refused before any point is built. Points on
    the alpha_m axis beyond the screening count carry the excess-byzantine
    override, since probing that regime is the point; it is set in the same
    ``replace`` as the variant and the value, which would refuse the value
    without it.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}, expected one of {SWEEP_AXES}")
    values = [_as_declared(axis, value) for value in values]
    if not values:
        raise ConfigError(f"sweep axis {axis} needs at least one value")
    return [replace(cfg, variant=variant, **{axis: value},
                    allow_excess_byzantine=cfg.allow_excess_byzantine
                    or (axis == "alpha_m" and value > cfg.screen_count))
            for variant in variants for value in values]


def sweep(cfg: ExperimentConfig, axis, values, variants=None, on_record=None):
    """Grid over one config axis; one record per (variant, value), variant by variant.

    The loop of ``run_experiment`` over the ``_grid`` configs: each variant
    trains once per training config, so a shift_q grid scores every budget
    on one run, each as ``run_experiment`` would, bounds included.
    """
    grid = _grid(cfg, axis, values, [cfg.variant] if variants is None else variants)
    return _train_and_score(grid, on_record, axis)


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


def _is_finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_string(value):
    return isinstance(value, str)


def _report_row(record):
    """The row ``report_table`` gives a record: (label, variant, shifted misclassification).

    The row reads the variant, the label's fields (every field a preset
    sets, typed as E0 holds it: all of them without an environment, the ones
    the record holds with one; for a sweep record, then its axis and value)
    and the shifted misclassification. The first of them that the record
    lacks or holds wrongly raises ``DataFormatError`` naming it;
    ``record_line`` writes no non-finite number, so a number field that
    holds one is refused too.
    """
    cfg, sweep = record["config"], record.get("sweep")
    if "sweep" in record and not isinstance(sweep, dict):
        raise DataFormatError(f"sweep must be an object with axis and value, got {sweep!r}")
    environment = cfg.get("environment")
    keys = [key for key in PRESETS["E0"] if not environment or key in cfg]
    wanted = [("config", "variant", VARIANTS.__contains__, f"one of {list(VARIANTS)}")]
    if environment is not None:
        wanted.append(("config", "environment", _is_string, "a string"))
    wanted += [("config", key, _is_string, "a string") if isinstance(PRESETS["E0"][key], str)
               else ("config", key, _is_number, "a number") for key in keys]
    if sweep is not None:
        wanted += [("sweep", "axis", _is_string, "a string"),
                   ("sweep", "value", _is_number, "a number")]
    wanted.append(("results", "shift_misclassification", _is_number, "a number"))
    for section, key, valid, expected in wanted:
        if key not in record[section]:
            raise DataFormatError(f"{section}.{key} is missing")
        value = record[section][key]
        if not valid(value):
            raise DataFormatError(f"{section}.{key} must be {expected}, got {value!r}")
        if valid is _is_number and not _is_finite(value):
            raise DataFormatError(f"{section}.{key} must be finite, got {value!r}")
    axis = sweep and sweep["axis"]
    base = PRESETS.get(environment, PRESETS["E0"])
    parts = [f"{key}={cfg[key]}" for key in keys
             if key != axis and not (environment and cfg[key] == base[key])]
    label = ",".join([environment, *parts] if environment else parts)
    if sweep:
        label += f",{axis}={sweep['value']}"
    return label, cfg["variant"], record["results"]["shift_misclassification"]


def read_records(path):
    """The records of a JSONL file, each with the fields ``report_table`` reads.

    ``DataFormatError`` names a bad file line and, for a record, the field;
    a file that is not UTF-8 names the line of its first undecodable byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[: exc.start + 1].splitlines())
        raise DataFormatError(
            f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8") from None
    records = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
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
            try:
                _report_row(record)
            except DataFormatError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
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
    """Environment-by-variant comparison of shifted misclassification.

    A row is the environment followed by every field of its preset that the
    record sets otherwise (``E1,alpha_m=2``; an environment that names no
    preset is compared with E0, the base of a config without one), else
    every field a preset sets as ``field=value`` (so runs that differ only
    in shift_norm, as E1 and E2 do, stay apart). A sweep record's own axis
    is left out of these and follows them with its value. Two records that
    put different values in one cell (two seeds of one config, say) raise
    ``DataFormatError`` naming the row and the variant; equal values, as
    from a rerun, share the cell.
    """
    cells = {}
    rows = []
    for record in records:
        label, variant, value = _report_row(record)
        if label not in rows:
            rows.append(label)
        if cells.setdefault((label, variant), value) != value:
            raise DataFormatError(f"row {label!r}, variant {variant!r}: records give "
                                  f"{cells[label, variant]!r} and {value!r}")
    variants = [v for v in VARIANTS if any((r, v) in cells for r in rows)]
    out = io.StringIO()
    header = ["environment"] + list(variants)
    widths = [max(12, len(h)) for h in header]
    widths[0] = max([widths[0], *map(len, rows)])  # a sweep row's label outgrows the header
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
    for row in rows:
        line = [row.ljust(widths[0])]
        for v, w in zip(variants, widths[1:]):
            val = cells.get((row, v))
            line.append(("-" if val is None else f"{val:.4f}").ljust(w))
        out.write("  ".join(line).rstrip() + "\n")
    return out.getvalue()
