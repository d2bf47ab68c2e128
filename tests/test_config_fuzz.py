"""Seeded hostile-config fuzz: every config ends in records or in a named refusal.

FUZZ_CONFIGS configs are drawn from one seed: presets E0-E4, a random
variant, 1-5 iterations, t_z from 0 to 3, check_bounds on or off, and eta,
lam, eta_z, shift_q, attack_scale and attack_ratio each drawn from VALUES.
Each config must end in one of three ways: it writes strict records through
``write_records``; it raises ``ConfigError`` at construction; or its run
raises a ``RuntimeError`` whose cause is a robustgd error naming the
iteration or the field. The suite turns RuntimeWarning into an error, so a
bare numpy warning fails the config that raised it. The draw is budgeted at
under 3 s; it takes about 0.9 s on a 2-core Intel Xeon VM.

Config files with wrongly typed fields go through ``main`` and must end in
a usage error naming the field before any file is written.

MALFORMED_FILES spambase files are drawn from one seed, each with a few good
rows around one malformed line (a wrong column count, a non-numeric token,
nan or inf, label 2, a NUL byte, a UTF-8 byte-order mark, or a 0xff byte).
Each goes through ``main`` as ``--dataset`` of a run or a sweep and must end
in a usage error naming the path and the malformed line, with no file
written. The draw is budgeted at about 1 s; it takes about 0.2 s on a
2-core Intel Xeon VM.
"""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from robustgd.cli import main
from robustgd.data import SPAMBASE_FEATURES
from robustgd.errors import ConfigError, DataFormatError, NumericError, RegimeError, ShapeError
from robustgd.experiments import VARIANTS, ExperimentConfig, run_experiment, write_records

FUZZ_SEED = 0
FUZZ_CONFIGS = 64
VALUES = (1e-300, 1e-8, 0.5, 1.0, 3.0, 1e3, 1e150, 1e308)
DRAWN = ("eta", "lam", "eta_z", "shift_q", "attack_scale", "attack_ratio")
ROBUSTGD_ERRORS = (ConfigError, DataFormatError, NumericError, RegimeError, ShapeError)
RECORD_FIELDS = ("clean_misclassification", "shift_misclassification",
                 "final_aggregated_norm", "final_objective_estimate")
# an iteration, or a config or record field, as a whole word
NAMED = re.compile(r"\biteration \d+\b|\b(?:{})\b".format(
    "|".join([f.name for f in fields(ExperimentConfig)] + list(RECORD_FIELDS))))


def hostile_configs():
    rng = np.random.default_rng(FUZZ_SEED)
    for _ in range(FUZZ_CONFIGS):
        yield _draw(rng)


def _draw(rng):
    return dict(
        preset=f"E{rng.integers(5)}",
        variant=str(rng.choice(VARIANTS)),
        iterations=int(rng.integers(1, 6)),
        t_z=int(rng.integers(0, 4)),
        check_bounds=bool(rng.integers(2)),
        **{name: float(rng.choice(VALUES)) for name in DRAWN},
    )


def test_hostile_configs_end_in_records_or_named_refusals(tmp_path):
    outcomes = {"records": 0, "refused": 0, "failed": 0}
    wrong = []
    for drawn in hostile_configs():
        try:
            cfg = ExperimentConfig(**drawn)
        except ConfigError:
            outcomes["refused"] += 1
            continue
        try:
            records = run_experiment(cfg)
        except RuntimeError as exc:
            cause = exc.__cause__
            if not (isinstance(cause, ROBUSTGD_ERRORS) and NAMED.search(str(cause))):
                wrong.append((drawn, repr(cause)))
            outcomes["failed"] += 1
            continue
        write_records(records, tmp_path / "records.jsonl")
        outcomes["records"] += 1
    assert wrong == []
    assert sum(outcomes.values()) == FUZZ_CONFIGS
    assert outcomes["records"] > 0 and outcomes["failed"] > 0, outcomes


@pytest.mark.parametrize("fields, message", [
    ({"m": "20"}, "m takes integers"),
    ({"lam": "3"}, "lam takes numbers"),
    ({"iterations": 2.5}, "iterations takes integers"),
    ({"alpha_m": 1.5, "attack": "aggressive"}, "alpha_m takes integers"),
    ({"eta": None}, "eta takes numbers"),
    ({"seed": True}, "seed takes integers"),
    ({"seed": -1}, "^seed must be >= 0, got -1$"),            # a numpy traceback before
    ({"data_seed": -1}, "^data_seed must be >= 0, got -1$"),  # a numpy traceback before
    ({"check_bounds": "yes"}, "check_bounds takes true or false"),
    ({"variant": 3}, "variant takes strings"),
    ({"variant": "bogus"}, "unknown variant 'bogus'"),
    ({"preset": 5}, "preset takes strings"),
    ({"shift_norm": ["l1"]}, "shift_norm takes strings"),
    # every record carries the attack fields, so they are checked without an attack too
    ({"attack_ratio": float("nan")}, "^ratio must be finite and positive, got nan$"),
    ({"preset": "E1", "attack": "none", "alpha_m": 0, "attack_scale": float("inf")},
     "^scale must be finite and positive, got inf$"),
    ({"attack": "none", "attack_ratio": 0}, "^ratio must be finite and positive, got 0.0$"),
    ({"preset": "E1", "shift_q": float("nan")}, "^budget must be finite and >= 0, got nan$"),
])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "lam", "--values", "1,2"]])
def test_wrongly_typed_config_file_fields_are_usage_errors(tmp_path, command, fields, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(fields))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=message):
        main([*command, "--config", str(config_path), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "expected a JSON object"),
    ('"E1"', "expected a JSON object"),
    ("{", "Expecting property name"),
])
def test_a_config_file_that_is_not_an_object_is_a_usage_error(tmp_path, content, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(content)
    with pytest.raises(SystemExit, match=message):
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


# Configs the same draw reaches at seeds 1-15, one per site it found there.
# The round forms no inner objective, but it checks the inner penalty
# lam * c^2 * ||theta||^2 / 2 against the objective's overflow, so a run whose
# objective overflows is refused in that round, before its reports, the
# server's step or a later round break.
@pytest.mark.parametrize("drawn, message", [
    (dict(preset="E3", variant="dro_only", iterations=4, t_z=1, eta=3.0, lam=1e308,
          eta_z=0.5, shift_q=1000.0, attack_scale=1e-300, attack_ratio=1e-8),
     r"iteration 1, worker 3: inner objective sum overflows"),
    (dict(preset="E3", variant="nbs_only", iterations=1, eta=1e308, lam=1e-8, shift_q=1e308,
          attack_ratio=1000.0),
     r"shift_misclassification: logits theta \. x are NaN in 15 rows"),
    (dict(preset="E3", variant="dro_only", iterations=5, t_z=2, eta=1e308, lam=1000.0,
          eta_z=0.5, shift_q=0.5, attack_scale=0.5, attack_ratio=1e-8),  # inf - inf margins
     r"iteration 1, worker 3: \|\|theta\|\|\^2 overflows"),
    (dict(preset="E0", variant="alg2", iterations=3, t_z=2, eta=0.5, lam=1e150, eta_z=3.0,
          shift_q=1000.0, attack_scale=1000.0, attack_ratio=1e150),
     r"iteration 0, worker 0: inner ascent diverged at step 2"),
    (dict(preset="E0", variant="alg2", iterations=1, t_z=1, eta=3.0, lam=1.0, eta_z=1e308,
          shift_q=1000.0, attack_scale=1e-8, attack_ratio=0.5),
     r"iteration 0, worker 0: inner ascent diverged at step 1"),
    (dict(preset="E0", variant="alg2", iterations=5, t_z=3, eta=1e-8, lam=1e150, eta_z=1e-8,
          shift_q=1e-8, attack_scale=0.5, attack_ratio=0.5),
     r"iteration 0, worker 0: inner ascent diverged at step 3"),
    (dict(preset="E4", variant="alg2", iterations=3, t_z=3, eta=3.0, lam=1e150, eta_z=3.0,
          shift_q=1e-300, attack_scale=1e150, attack_ratio=1e-300),
     r"iteration 0, worker 3: inner ascent diverged at step 3"),
])
def test_overflowing_runs_fail_with_the_iteration_or_field(drawn, message):
    with pytest.raises(RuntimeError, match=f"variant='{drawn['variant']}'") as exc:
        run_experiment(ExperimentConfig(**drawn))
    assert isinstance(exc.value.__cause__, NumericError)
    assert re.fullmatch(message, str(exc.value.__cause__))


# The 14 configs of the draw at seeds 0-15 whose inner penalty overflows while their
# reports stay finite, each refused in the round where the penalty breaks: iteration
# 0 or 1, not the last one (seed, draw index).
PENALTY_CONFIGS = {
    (0, 28): (dict(preset="E2", variant="dro_only", iterations=5, t_z=2, check_bounds=True,
                   eta=1e308, lam=1e150, eta_z=1e-8, shift_q=1e-300, attack_scale=1e150,
                   attack_ratio=1.0),
              "iteration 0, worker 3: inner ascent diverged at step 2"),
    (1, 26): (dict(preset="E1", variant="alg2", iterations=5, t_z=2, check_bounds=False, eta=1e150,
                   lam=1e308, eta_z=0.5, shift_q=1e308, attack_scale=1e150, attack_ratio=1e150),
              "iteration 0, worker 3: inner ascent diverged at step 2"),
    (1, 28): (dict(preset="E4", variant="alg2", iterations=5, t_z=2, check_bounds=True, eta=1e-8,
                   lam=1e308, eta_z=1.0, shift_q=1e308, attack_scale=1e-8, attack_ratio=1e-300),
              "iteration 0, worker 3: inner ascent diverged at step 2"),
    (2, 2): (dict(preset="E1", variant="alg2", iterations=4, t_z=1, check_bounds=True, eta=1000.0,
                  lam=1e308, eta_z=1.0, shift_q=1e-8, attack_scale=1000.0, attack_ratio=1e308),
             "iteration 1, worker 3: inner ascent diverged at step 1"),
    (2, 43): (dict(preset="E2", variant="alg2", iterations=2, t_z=2, check_bounds=True, eta=1e308,
                   lam=1.0, eta_z=1e150, shift_q=1000.0, attack_scale=1e150, attack_ratio=1e308),
              "iteration 0, worker 3: inner ascent diverged at step 2"),
    (2, 59): (dict(preset="E0", variant="alg2", iterations=3, t_z=2, check_bounds=True, eta=0.5,
                   lam=1e150, eta_z=3.0, shift_q=1000.0, attack_scale=1000.0, attack_ratio=1e150),
              "iteration 0, worker 0: inner ascent diverged at step 2"),
    (4, 19): (dict(preset="E3", variant="alg2", iterations=3, t_z=2, check_bounds=False,
                   eta=1e-300, lam=1000.0, eta_z=1e150, shift_q=1e-8, attack_scale=1e150,
                   attack_ratio=0.5),
              "iteration 0, worker 3: inner ascent diverged at step 2"),
    (6, 45): (dict(preset="E2", variant="dro_only", iterations=2, t_z=2, check_bounds=True,
                   eta=1e308, lam=1e150, eta_z=1.0, shift_q=1e-300, attack_scale=1e-300,
                   attack_ratio=1e150),
              "iteration 0, worker 3: inner ascent diverged at step 2"),
    (7, 39): (dict(preset="E3", variant="dro_only", iterations=2, t_z=2, check_bounds=True,
                   eta=1.0, lam=1e150, eta_z=0.5, shift_q=1e-8, attack_scale=1e150,
                   attack_ratio=1e150),
              "iteration 0, worker 3: inner ascent diverged at step 2"),
    (8, 17): (dict(preset="E3", variant="alg2", iterations=5, t_z=2, check_bounds=True, eta=1e308,
                   lam=1.0, eta_z=1e150, shift_q=1000.0, attack_scale=1.0, attack_ratio=0.5),
              "iteration 0, worker 3: inner ascent diverged at step 2"),
    (12, 15): (dict(preset="E1", variant="dro_only", iterations=4, t_z=2, check_bounds=False,
                    eta=1000.0, lam=1e150, eta_z=1e-8, shift_q=1000.0, attack_scale=0.5,
                    attack_ratio=1e150),
               "iteration 0, worker 3: inner ascent diverged at step 2"),
    (12, 21): (dict(preset="E2", variant="alg2", iterations=4, t_z=2, check_bounds=False,
                    eta=1e150, lam=1e150, eta_z=3.0, shift_q=1e-8, attack_scale=0.5,
                    attack_ratio=1e-300),
               "iteration 0, worker 3: inner ascent diverged at step 2"),
    (13, 21): (dict(preset="E1", variant="dro_only", iterations=2, t_z=2, check_bounds=False,
                    eta=1e308, lam=1.0, eta_z=1e150, shift_q=1e308, attack_scale=3.0,
                    attack_ratio=1.0),
               "iteration 0, worker 3: inner ascent diverged at step 2"),
    (13, 55): (dict(preset="E1", variant="alg2", iterations=4, t_z=2, check_bounds=False,
                    eta=1e150, lam=1000.0, eta_z=1.0, shift_q=3.0, attack_scale=1000.0,
                    attack_ratio=1.0),
               "iteration 1, worker 3: inner ascent diverged at step 2"),
}


@pytest.mark.parametrize("key", sorted(PENALTY_CONFIGS), ids=lambda key: f"seed{key[0]}-{key[1]}")
def test_a_penalty_that_overflows_is_refused_in_the_round_where_it_breaks(key):
    drawn, message = PENALTY_CONFIGS[key]
    seed, index = key
    rng = np.random.default_rng(seed)
    for _ in range(index):  # the draw of hostile_configs at this seed
        _draw(rng)
    assert _draw(rng) == drawn
    with pytest.raises(RuntimeError, match=f"variant='{drawn['variant']}'") as exc:
        run_experiment(ExperimentConfig(**drawn))
    assert isinstance(exc.value.__cause__, NumericError)
    assert str(exc.value.__cause__) == message
    assert int(message.split()[1].rstrip(",")) < drawn["iterations"] - 1


def test_a_final_iterate_whose_norm_overflows_makes_the_bounds_report_inapplicable():
    cfg = ExperimentConfig(preset="E0", iterations=1, t_z=1, check_bounds=True, eta=1e308,
                           lam=1e150, eta_z=0.5)
    [record] = run_experiment(cfg)
    assert record["bounds"] == {"certified": False, "applicable": False,
                                "reason": "iterate 1: ||theta||^2 overflows"}


MALFORMED_SEED = 0
MALFORMED_FILES = 70
MALFORMATIONS = ("columns", "token", "non-finite", "label", "nul", "bom", "byte-0xff")


def malformed_spambase_files():
    """(file bytes, the malformed line, the malformation) drawn from MALFORMED_SEED.

    A byte-order mark is only one at the start of a file, so that line is
    drawn first.
    """
    rng = np.random.default_rng(MALFORMED_SEED)
    for _ in range(MALFORMED_FILES):
        kind = str(rng.choice(MALFORMATIONS))
        before = 0 if kind == "bom" else int(rng.integers(0, 4))
        after = int(rng.integers(0, 3))
        lines = [[f"{v:.3f}" for v in rng.uniform(0.0, 5.0, SPAMBASE_FEATURES)]
                 + [str(rng.integers(2))] for _ in range(before + 1 + after)]
        bad = lines[before]
        col = int(rng.integers(SPAMBASE_FEATURES))
        if kind == "columns":
            if rng.integers(2):
                del bad[col]
            else:
                bad.insert(col, "0.5")
        elif kind == "token":
            bad[col] = str(rng.choice(["spam", "1..5", "", "0x1f", "1e"]))
        elif kind == "non-finite":
            bad[col] = str(rng.choice(["nan", "inf", "-inf", "NaN", "1e999"]))
        elif kind == "label":
            bad[-1] = "2"
        elif kind == "nul":
            bad[col] += "\0"
        encoded = [",".join(line).encode() + b"\n" for line in lines]
        if kind == "bom":
            encoded[0] = b"\xef\xbb\xbf" + encoded[0]
        elif kind == "byte-0xff":
            encoded[before] = encoded[before].replace(b",", b"\xff,", 1)
        yield b"".join(encoded), before + 1, kind


def test_malformed_spambase_files_are_usage_errors_naming_the_line(tmp_path):
    seen, wrong = set(), []
    for i, (content, lineno, kind) in enumerate(malformed_spambase_files()):
        path = tmp_path / f"spambase-{i}.data"
        path.write_bytes(content)
        command = ["run"] if i % 2 else ["sweep", "--axis", "lam", "--values", "1,2"]
        out = tmp_path / f"out-{i}"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--dataset", str(path), "--variant", "erm", "--m", "4",
                  "--iterations", "2", "--screen-count", "1", "--out", str(out)])
        message = str(exc.value.code)
        if not message.startswith(f"dataset {path}, line {lineno}: ") or out.exists():
            wrong.append((kind, lineno, message))
        seen.add(kind)
    assert wrong == []
    assert seen == set(MALFORMATIONS)
