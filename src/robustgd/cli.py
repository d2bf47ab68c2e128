"""Command-line shell: run experiments, sweep a config axis, verify bounds, report.

Config precedence: dataclass defaults < preset < JSON config file (--config)
< explicit flags. The preset may come from the file or from --preset; the
layering itself is ExperimentConfig's, so the API and the CLI agree. The
output directory comes from --out or the ROBUSTGD_OUT environment variable.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import verify as verify_mod
from .errors import ConfigError
from .experiments import (
    PRESETS,
    SWEEP_AXES,
    ExperimentConfig,
    export_csv,
    read_records,
    record_line,
    report_table,
    run_experiment,
    sweep,
    sweep_points,
)
from .simulation import VARIANTS

_CONFIG_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON file of experiment config fields")
    parser.add_argument("--dataset", help="spambase CSV path, or 'synthetic'")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="environment preset")
    parser.add_argument("--variant", help=f"one of {VARIANTS} or 'all'")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--m", type=int)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--lam", type=float)
    parser.add_argument("--eta-z", dest="eta_z", type=float)
    parser.add_argument("--t-z", dest="t_z", type=int)
    parser.add_argument("--screen-count", dest="screen_count", type=int)
    parser.add_argument("--attack", choices=["none", "aggressive", "intelligent", "counterexample"])
    parser.add_argument("--alpha-m", dest="alpha_m", type=int)
    parser.add_argument("--shift-norm", dest="shift_norm", choices=["l1", "l2"])
    parser.add_argument("--shift-q", dest="shift_q", type=float)
    parser.add_argument("--allow-excess-byzantine", dest="allow_excess_byzantine",
                        action="store_true", default=None)
    parser.add_argument("--check-bounds", dest="check_bounds", action="store_true",
                        default=None, help="attach a diagnostic deviation-bound report")
    parser.add_argument("--out", help="output directory (or set ROBUSTGD_OUT)")


def _build_config(args):
    """Config-file fields < explicit flags, handed to ExperimentConfig to layer on the preset."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise SystemExit(f"unknown config fields: {sorted(unknown)}")
        values.update(loaded)
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    values.pop("variant", None)
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise SystemExit(str(exc)) from exc


def _variants(args):
    requested = getattr(args, "variant", None) or "alg2"
    return list(VARIANTS) if requested == "all" else [requested]


def _out_dir(args):
    out = args.out or os.environ.get("ROBUSTGD_OUT", "results")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _streamed(out_dir, stem, runner):
    """Run with records flushed to disk as they finish; partial files survive errors."""
    jsonl = out_dir / f"{stem}.jsonl"
    records = []
    with open(jsonl, "w") as fh:
        def sink(record):
            fh.write(record_line(record))
            fh.flush()
            records.append(record)

        runner(sink)
    export_csv(records, out_dir / f"{stem}.csv")
    print(f"wrote {len(records)} records to {jsonl}")
    print(report_table(records), end="")


def cmd_run(args):
    cfg = _build_config(args)
    _streamed(_out_dir(args), "records",
              lambda sink: run_experiment(cfg, variants=_variants(args), on_record=sink))
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
    cfg = _build_config(args)
    values = _grid_values(args, cfg)
    _streamed(_out_dir(args), f"sweep_{args.axis}",
              lambda sink: sweep(cfg, args.axis, values,
                                 variants=_variants(args), on_record=sink))
    return 0


def cmd_verify(args):
    results = verify_mod.run_all(fuzz_instances=args.fuzz_instances, n_seeds=args.seeds)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    return 1 if failures else 0


def cmd_report(args):
    records = []
    for path in args.records:
        records.extend(read_records(path))
    print(report_table(records), end="")
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
