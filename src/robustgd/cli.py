"""Command-line shell: run experiments, sweep a config axis, verify bounds, report.

Config precedence: dataclass defaults < preset < JSON config file (--config)
< explicit flags, for every field including the variant. The preset may come
from the file or from --preset; the layering and the type and range checks
are ExperimentConfig's, so the API and the CLI agree. ``run`` takes the
preset 'all', as it takes the variant 'all', and layers each preset in turn. The
output directory comes from --out or the ROBUSTGD_OUT environment variable.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import attacks, shift
from . import verify as verify_mod
from .errors import ConfigError, DataFormatError
from .experiments import (
    PRESETS,
    SWEEP_AXES,
    VARIANTS,
    ExperimentConfig,
    export_csv,
    read_records,
    record_line,
    report_table,
    run_experiment,
    sweep,
    sweep_points,
)

_CONFIG_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON file of experiment config fields")
    parser.add_argument("--dataset", help="spambase CSV path, or 'synthetic'")
    parser.add_argument("--preset", choices=[*sorted(PRESETS), "all"],
                        help="environment preset, or 'all' (run only)")
    parser.add_argument("--variant", help=f"one of {VARIANTS} or 'all'")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--lam", type=float)
    parser.add_argument("--eta-z", dest="eta_z", type=float)
    parser.add_argument("--t-z", dest="t_z", type=int)
    parser.add_argument("--screen-count", dest="screen_count", type=int)
    parser.add_argument("--attack", choices=("none", *attacks.KINDS))
    parser.add_argument("--alpha-m", dest="alpha_m", type=int)
    parser.add_argument("--shift-norm", dest="shift_norm", choices=(shift.L1, shift.L2))
    parser.add_argument("--shift-q", dest="shift_q", type=float)
    parser.add_argument("--allow-excess-byzantine", dest="allow_excess_byzantine",
                        action="store_true", default=None)
    parser.add_argument("--check-bounds", dest="check_bounds", action="store_true",
                        default=None, help="attach a diagnostic deviation-bound report")
    parser.add_argument("--out", help="output directory (or set ROBUSTGD_OUT)")


def _build_config(args):
    """(configs, variants): config-file fields < explicit flags, handed to ExperimentConfig
    to layer on the preset.

    The variant and the preset follow the same rule. The preset 'all' gives
    one config per preset, each layered as that preset alone would be, and
    the variant 'all' every variant; variants is None for each config's own.
    Every refusal is a usage error, raised before any file is written.
    """
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise SystemExit(f"--config {args.config}: expected a JSON object of config fields")
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise SystemExit(f"unknown config fields: {sorted(unknown)}")
        values.update(loaded)
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    every = values.get("variant") == "all"
    if every:
        del values["variant"]
    presets = sorted(PRESETS) if values.get("preset") == "all" else [values.get("preset")]
    try:
        configs = [ExperimentConfig(**{**values, "preset": preset}) for preset in presets]
    except ConfigError as exc:
        raise SystemExit(str(exc)) from exc
    return configs, list(VARIANTS) if every else None


def _streamed(args, stem, runner):
    """Run with each record appended to disk as it finishes; partial files survive errors.

    An output path that exists and is not a directory, or lies below a file,
    is a usage error before anything trains. The output directory and files
    are made at the first record, so a run that fails before it writes
    nothing, and an ``OSError`` while they are written is a usage error
    naming the output directory (the dataset loader turns its own into
    ``DataFormatError``). A dataset that cannot be read or parsed (naming
    the path and line) and a split the config cannot make from it (too many
    workers, an empty test split) are usage errors.
    """
    out = Path(args.out or os.environ.get("ROBUSTGD_OUT", "results"))
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise SystemExit(f"output directory {out}: {existing} is not a directory")
    jsonl, records = out / f"{stem}.jsonl", []

    def sink(record):
        out.mkdir(parents=True, exist_ok=True)
        with open(jsonl, "a" if records else "w") as fh:
            fh.write(record_line(record))
        records.append(record)

    try:
        runner(sink)
        export_csv(records, out / f"{stem}.csv")
    except DataFormatError as exc:
        raise SystemExit(f"dataset {exc}") from exc
    except ConfigError as exc:
        raise SystemExit(f"data: {exc}") from exc
    except OSError as exc:
        raise SystemExit(f"output directory {out}: {exc}") from exc
    print(f"wrote {len(records)} records to {jsonl}")
    print(report_table(records), end="")


def cmd_run(args):
    configs, variants = _build_config(args)
    _streamed(args, "records",
              lambda sink: run_experiment(configs, variants=variants, on_record=sink))
    return 0


def _grid_values(args, cfg):
    """The --values grid as floats, checked against the axis and the config before any
    file is written."""
    values = []
    for token in args.values.split(","):
        try:
            values.append(float(token))
        except ValueError:
            raise SystemExit(f"--values: {token!r} is not a number") from None
    try:
        sweep_points(cfg, args.axis, values)
    except ConfigError as exc:
        raise SystemExit(f"--values: {exc}") from exc
    return values


def cmd_sweep(args):
    configs, variants = _build_config(args)
    if len(configs) > 1:
        raise SystemExit("sweep takes one preset, not 'all'")
    [cfg] = configs
    values = _grid_values(args, cfg)
    _streamed(args, f"sweep_{args.axis}",
              lambda sink: sweep(cfg, args.axis, values, variants=variants, on_record=sink))
    return 0


def cmd_verify(args):
    try:
        results = verify_mod.run_all(fuzz_instances=args.fuzz_instances, n_seeds=args.seeds)
    except ConfigError as exc:
        raise SystemExit(f"verify: {exc}") from exc
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    return 1 if failures else 0


def cmd_report(args):
    try:
        records = [record for path in args.records for record in read_records(path)]
        table = report_table(records)
    except (OSError, DataFormatError) as exc:
        raise SystemExit(f"report: {exc}") from exc
    print(table, end="")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="robustgd",
        description="byzantine- and shift-robust distributed training simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train variant(s) in one environment")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over one config axis")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated grid values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run bound/property suites on synthetic families")
    p_verify.add_argument("--fuzz-instances", type=int, default=10_000)
    p_verify.add_argument("--seeds", type=int, default=20)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="aggregate record files into a comparison table")
    p_report.add_argument("records", nargs="+", help="record .jsonl paths")
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
