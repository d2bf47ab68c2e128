import argparse
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from robustgd import attacks, cli, experiments, shift, surrogate
from robustgd import verify as verify_mod
from robustgd.cli import main
from robustgd.errors import ConfigError, NumericError
from robustgd.experiments import (
    PRESETS,
    VARIANTS,
    ExperimentConfig,
    _diagnostic_bounds,
    evaluate,
    export_csv,
    prepare_data,
    read_records,
    record_line,
    report_table,
    run_experiment,
    sweep,
    sweep_points,
    train,
    write_records,
)

# small but non-trivial settings so the orchestration tests stay fast
FAST = dict(m=4, iterations=4, t_z=3, screen_count=1)
# a record line with every field the report table reads, and nothing else
REPORTABLE = ('{"config": {"alpha_m": 0, "attack": "none", "shift_norm": "l1", "shift_q": 0.0, '
              '"variant": "erm"}, "results": {"shift_misclassification": 0.25}}\n')


def scorer_of(theta, sharded):
    """theta's ``ShiftScorer`` on the sharded test set, over a buffer of its own."""
    return shift.ShiftScorer(theta, shift.ShiftBuffer(sharded.test_features),
                             sharded.test_labels)


def fast_config(**overrides):
    return ExperimentConfig(**{**FAST, **overrides})


def count_calls(monkeypatch, name):
    """Wrap experiments.<name> so that every call is counted; returns the counter."""
    calls = []
    real = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


def fail_alg2_training(monkeypatch):
    """Make experiments.train raise a NumericError for variant alg2, as a diverging run does."""
    real = experiments.train

    def train(cfg, sharded):
        if cfg.variant == "alg2":
            raise NumericError("iteration 0: non-finite aggregated gradient")
        return real(cfg, sharded)

    monkeypatch.setattr(experiments, "train", train)


class TestPresets:
    def test_environments_expand_to_the_protocol_constants(self):
        cfg = ExperimentConfig(preset="E1")
        assert cfg.attack == "aggressive" and cfg.alpha_m == 3
        assert cfg.shift_norm == "l1" and cfg.shift_q == 0.3
        assert (cfg.m, cfg.eta, cfg.iterations) == (20, 1.0, 300)
        assert (cfg.lam, cfg.eta_z, cfg.t_z, cfg.screen_count) == (3.0, 0.05, 10, 3)
        assert cfg.environment == "E1" and cfg.preset is None

    def test_all_five_presets_are_defined(self):
        assert sorted(PRESETS) == ["E0", "E1", "E2", "E3", "E4"]
        clean = ExperimentConfig(preset="E0")
        assert clean.attack == "none" and clean.shift_q == 0.0
        for name in ("E2", "E4"):
            assert ExperimentConfig(preset=name).shift_norm == "l2"

    def test_resolution_is_one_shot_so_overrides_stick(self):
        cfg = replace(ExperimentConfig(preset="E1"), alpha_m=2)
        assert cfg.alpha_m == 2 and cfg.environment == "E1"

    def test_explicit_fields_win_over_the_preset(self):
        cfg = ExperimentConfig(preset="E1", shift_q=0.1, attack="intelligent")
        assert (cfg.shift_q, cfg.attack, cfg.alpha_m) == (0.1, "intelligent", 3)
        assert cfg.environment == "E1" and cfg.preset is None
        assert ExperimentConfig(preset="E1", shift_q=0.0).shift_q == 0.0

    def test_without_a_preset_the_defaults_are_e0(self):
        cfg = ExperimentConfig()
        assert (cfg.attack, cfg.alpha_m, cfg.shift_q, cfg.shift_norm) == ("none", 0, 0.0, "l1")
        assert cfg.environment is None and cfg.preset is None

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(preset="E9")

    @pytest.mark.parametrize("fields, message", [
        (dict(alpha_m=2, m=4, screen_count=2), "attack"),
        (dict(m=0, screen_count=0), "m must be"),
        (dict(iterations=0), "iterations"),
        (dict(t_z=-1), "t_z"),
        (dict(attack="aggressive", alpha_m=-1), "alpha_m"),
        (dict(attack="aggressive", alpha_m=4, m=4, screen_count=1), "alpha_m"),
        (dict(screen_count=4, m=4), "screen_count"),
        (dict(screen_count=-1), "screen_count"),
        (dict(shift_norm="l3", shift_q=0.3), "norm"),
        (dict(shift_q=-0.5), "budget"),
        (dict(preset="E1", shift_q=float("nan")), "^budget must be finite and >= 0, got nan$"),
        (dict(preset="E2", shift_q=float("inf")), "^budget must be finite and >= 0, got inf$"),
        (dict(lam=-1.0), "lam"),
        (dict(eta_z=0.0), "eta_z"),
        (dict(eta=0.0), "eta"),
        (dict(attack="bogus"), "attack kind"),
        (dict(attack="aggressive", attack_scale=-1.0), "scale"),
        # these trained the whole run and failed only when the record was written
        (dict(preset="E3", attack_ratio=float("nan")), "^ratio must be finite and positive"),
        (dict(preset="E3", attack_ratio=float("inf")), "^ratio must be finite and positive"),
        (dict(preset="E1", attack_scale=float("inf")), "^scale must be finite and positive"),
        (dict(seed=-1), "^seed must be >= 0"),
        (dict(data_seed=-1), "^data_seed must be >= 0"),
        (dict(train_frac=1.5), "train_frac"),
        (dict(train_frac=1.0), "train_frac"),
        (dict(train_frac=0.0), "train_frac"),
    ])
    def test_out_of_range_fields_are_refused_at_construction(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**fields)

    def test_a_counterexample_config_with_one_honest_worker_is_refused_at_construction(self):
        # it used to pass here and fail inside train, when the run built its attack plan
        with pytest.raises(ConfigError, match="^the counterexample attack needs at least 2 "
                                              "honest workers, got 1$"):
            ExperimentConfig(preset="E1", attack="counterexample", alpha_m=19,
                             allow_excess_byzantine=True)
        assert ExperimentConfig(preset="E1", attack="counterexample", alpha_m=18,
                                allow_excess_byzantine=True).alpha_m == 18
        # without byzantine workers nothing is crafted, so one worker stays legal
        assert ExperimentConfig(attack="counterexample", m=1, screen_count=0).m == 1

    def test_byzantine_workers_without_an_attack_are_refused_by_name(self):
        with pytest.raises(ConfigError, match="^alpha_m=3 byzantine workers need an attack, "
                                              "got none$"):
            ExperimentConfig(alpha_m=3, attack="none")
        with pytest.raises(ConfigError, match="^alpha_m=3 byzantine workers need an attack"):
            ExperimentConfig(preset="E1", attack="none")
        assert ExperimentConfig(preset="E1", attack="none", alpha_m=0).alpha_m == 0

    @pytest.mark.parametrize("variant", ["alg2", "nbs_only"])
    def test_a_screening_variant_is_refused_more_byzantine_workers_than_it_screens(self,
                                                                               variant):
        # refused when built, before any data are prepared
        message = (f"^alpha_m=5 byzantine workers exceed screen_count=3 under variant "
                   f"'{variant}'; set allow_excess_byzantine")
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(preset="E1", variant=variant, alpha_m=5)
        with pytest.raises(ConfigError, match=message):
            replace(ExperimentConfig(preset="E1", variant=variant), alpha_m=5)
        cfg = ExperimentConfig(preset="E1", variant=variant, alpha_m=5,
                               allow_excess_byzantine=True)
        assert (cfg.alpha_m, cfg.screen_count) == (5, 3)

    @pytest.mark.parametrize("variant", ["dro_only", "erm"])
    def test_a_variant_that_screens_none_takes_any_byzantine_count(self, variant):
        cfg = ExperimentConfig(preset="E1", variant=variant, alpha_m=5)
        assert not cfg.allow_excess_byzantine
        assert experiments._train_config(cfg).screen.screen_count == 0

    def test_preset_on_an_expanded_config_is_refused(self):
        # E1's attack and shift are explicit by now: E3 would only relabel them
        with pytest.raises(ConfigError, match="E3"):
            replace(ExperimentConfig(preset="E1"), preset="E3")

    def test_fields_are_stored_as_their_declared_type(self):
        cfg = ExperimentConfig(preset="E1", lam=3, eta=1, shift_q=0, iterations=5.0,
                               alpha_m=np.int64(2))
        assert (cfg.lam, cfg.eta, cfg.shift_q, cfg.iterations, cfg.alpha_m) == (3, 1, 0, 5, 2)
        assert [type(v) for v in (cfg.lam, cfg.eta, cfg.shift_q)] == [float] * 3
        assert [type(v) for v in (cfg.iterations, cfg.alpha_m)] == [int] * 2
        assert record_line({"config": asdict(cfg)}) == record_line(
            {"config": asdict(ExperimentConfig(preset="E1", lam=3.0, eta=1.0, shift_q=0.0,
                                               iterations=5, alpha_m=2))})

    @pytest.mark.parametrize("fields, message", [
        (dict(m="20"), r"m takes integers, got '20'"),
        (dict(lam="3"), r"lam takes numbers, got '3'"),
        (dict(iterations=2.5), r"iterations takes integers, got 2\.5"),
        (dict(iterations=True), r"iterations takes integers, got True"),
        (dict(lam=True), r"lam takes numbers, got True"),
        (dict(t_z=float("nan")), r"t_z takes integers, got nan"),
        (dict(check_bounds=1), r"check_bounds takes true or false, got 1"),
        (dict(attack=3), r"attack takes strings, got 3"),
        (dict(preset=["E1"]), r"preset takes strings, got \['E1'\]"),
        (dict(variant="bogus"), r"unknown variant 'bogus'"),
    ])
    def test_wrongly_typed_fields_are_refused_at_construction(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**fields)


class TestRecords:
    def test_non_finite_results_are_refused_with_their_fields(self, tmp_path):
        (record,) = run_experiment(fast_config(), variants=["erm"])
        record["results"]["clean_misclassification"] = float("nan")
        record["trace"]["final_objective_estimate"] = float("-inf")
        with pytest.raises(NumericError, match=r"results.clean_misclassification.*"
                                               r"trace.final_objective_estimate"):
            write_records([record], tmp_path / "r.jsonl")

    def test_the_final_aggregated_norm_is_the_last_aggregates_norm(self):
        cfg = fast_config(attack="aggressive", alpha_m=1)
        trace, _, _ = train(cfg, prepare_data(cfg))
        [record] = run_experiment(cfg)
        assert record["trace"]["final_aggregated_norm"] == np.linalg.norm(trace.aggregated[-1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_final_aggregate_whose_norm_overflows_is_refused_by_name(self):
        # no screening: three aggressive rows of ~1e200 leave a finite G of norm inf
        cfg = ExperimentConfig(preset="E1", variant="dro_only", iterations=2, eta=1e-300,
                               attack_scale=1e200)
        trace, _, _ = train(cfg, prepare_data(cfg))
        assert np.isfinite(trace.aggregated).all()
        with pytest.raises(RuntimeError, match="variant='dro_only'") as exc:
            run_experiment(cfg)
        assert isinstance(exc.value.__cause__, NumericError)
        assert re.search(r"non-finite record fields \['trace.final_aggregated_norm'\]",
                         str(exc.value.__cause__))

    def test_cli_records_match_write_records_byte_for_byte(self, tmp_path):
        main(["run", "--preset", "E1", "--variant", "alg2", "--m", "4", "--iterations", "4",
              "--t-z", "3", "--screen-count", "1", "--alpha-m", "1", "--out", str(tmp_path)])
        cfg = ExperimentConfig(preset="E1", m=4, iterations=4, t_z=3, screen_count=1, alpha_m=1)
        write_records(run_experiment(cfg), tmp_path / "api.jsonl")
        assert (tmp_path / "records.jsonl").read_bytes() == (tmp_path / "api.jsonl").read_bytes()

    def test_round_trip_and_byte_identical_reruns(self, tmp_path):
        cfg = fast_config(attack="aggressive", alpha_m=1, shift_q=0.1)
        records = run_experiment(cfg, variants=["alg2", "erm"])
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(records, path_a)
        write_records(run_experiment(cfg, variants=["alg2", "erm"]), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        parsed = read_records(path_a)
        assert len(parsed) == 2
        for original, loaded in zip(records, parsed):
            assert ExperimentConfig(**loaded["config"]) == ExperimentConfig(**original["config"])
            assert loaded == original

    def test_records_echo_the_variant_and_results(self):
        records = run_experiment(fast_config(), variants=["nbs_only"])
        (record,) = records
        assert record["config"]["variant"] == "nbs_only"
        res = record["results"]
        assert 0.0 <= res["clean_misclassification"] <= 1.0
        assert res["shift_misclassification"] == res["clean_misclassification"]  # q = 0

    def test_csv_export_and_table(self, tmp_path):
        records = run_experiment(fast_config(shift_q=0.1), variants=["alg2", "erm"])
        csv_path = tmp_path / "flat.csv"
        export_csv(records, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3 and "shift_misclassification" in lines[0]
        table = report_table(records)
        assert "alg2" in table and "erm" in table

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(fast_config(), variants=["median"])

    def test_diagnostic_bound_report_attached_on_request(self):
        records = run_experiment(
            fast_config(attack="aggressive", alpha_m=1, check_bounds=True),
            variants=["alg2", "dro_only"],
        )
        alg2, dro = records
        section = alg2["bounds"]
        assert section["certified"] is False and section["applicable"] is True
        checks = section["aggregate_deviation"]
        assert checks["iterations"] == fast_config().iterations
        assert 0 <= checks["satisfied"] <= checks["iterations"]
        # plain averaging with corrupted workers: the bound has no valid regime
        assert dro["bounds"] == {"certified": False, "applicable": False,
                                 "reason": "corrupted fraction 1/4 exceeds screened fraction 0/4"}

    def test_bound_report_is_inapplicable_outside_the_concave_inner_regime(self):
        # at lam=0.3 the E1 iterates reach ||theta||^2/4 ~ 0.64 > lam, where the
        # inner problem has no unique maximizer: the report says so, the run goes on
        cfg = ExperimentConfig(preset="E1", variant="alg2", iterations=40, lam=0.3,
                               check_bounds=True)
        (record,) = run_experiment(cfg)
        section = record["bounds"]
        assert section == {"certified": False, "applicable": False, "reason": section["reason"]}
        assert re.fullmatch(r"iterate [1-9]\d*: inner objective not concave: "
                            r"lam=0\.3 <= \|\|theta\|\|\^2/4=0\.\d+", section["reason"])
        assert 0.3 < float(section["reason"].rsplit("=", 1)[1])

    def test_bound_report_names_a_final_iterate_outside_the_regime(self):
        # the dispersion is also taken at theta_T, after the recorded iterates
        cfg = fast_config(check_bounds=True)
        sharded = prepare_data(cfg)
        trace, effective, roster = train(cfg, sharded)
        final = np.full_like(trace.theta_final, 10.0)
        section = _diagnostic_bounds(sharded, replace(trace, theta_final=final), effective, roster)
        assert section["applicable"] is False
        reason = f"iterate {cfg.iterations}: inner objective not concave"
        assert section["reason"].startswith(reason)

    def test_run_outside_the_concave_inner_regime_warns(self, caplog):
        cfg = ExperimentConfig(preset="E1", variant="alg2", iterations=40, lam=0.3)
        with caplog.at_level(logging.WARNING, logger="robustgd.experiments"):
            run_experiment(cfg)
        [message] = [r.getMessage() for r in caplog.records if r.name == "robustgd.experiments"]
        assert re.fullmatch(r"variant alg2 leaves the strongly concave inner regime at iterate 4: "
                            r"\|\|theta\|\|\^2/4 = 0\.3444 >= lam = 0\.3 \(largest 0\.6363\)",
                            message)

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(preset="E1", variant="alg2"),
        ExperimentConfig(preset="E1", variant="nbs_only", iterations=40, lam=0.3),  # t_z = 0
    ], ids=["inside", "no-ascent"])
    def test_runs_inside_the_regime_or_without_ascent_do_not_warn(self, caplog, cfg):
        with caplog.at_level(logging.WARNING, logger="robustgd.experiments"):
            run_experiment(cfg)
        assert not [r for r in caplog.records if r.name == "robustgd.experiments"]

    def test_failures_carry_config_context_and_flush_partials(self, monkeypatch):
        fail_alg2_training(monkeypatch)
        sunk = []
        cfg = fast_config(attack="aggressive", alpha_m=1)
        with pytest.raises(RuntimeError, match="variant='alg2'") as exc:
            run_experiment(cfg, variants=["dro_only", "alg2"], on_record=sunk.append)
        assert "'alpha_m': 1" in str(exc.value)
        assert isinstance(exc.value.__cause__, NumericError)
        assert len(sunk) == 1  # dro_only finished before the failure
        assert sunk[0]["config"]["variant"] == "dro_only"


class TestSweep:
    def test_shift_axis_reuses_the_trained_model(self):
        records = sweep(fast_config(shift_norm="l2"), "shift_q", [0.0, 0.2], variants=["alg2"])
        assert [r["sweep"]["value"] for r in records] == [0.0, 0.2]
        clean = [r["results"]["clean_misclassification"] for r in records]
        assert clean[0] == clean[1]  # one training, two evaluation budgets
        rates = [r["results"]["shift_misclassification"] for r in records]
        assert rates[1] >= rates[0]

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_shift_axis_matches_single_runs_bitwise(self, norm):
        cfg = fast_config(attack="aggressive", alpha_m=1, shift_norm=norm)
        qs = [0.3, 0.0, 0.1]
        records = sweep(cfg, "shift_q", qs, variants=["alg2", "erm"])
        for record in records:
            single = replace(cfg, variant=record["config"]["variant"],
                             shift_q=record["sweep"]["value"])
            (expected,) = run_experiment(single)
            assert {k: v for k, v in record.items() if k != "sweep"} == expected

    def test_alpha_axis_enables_the_excess_override_beyond_the_screen_count(self):
        cfg = fast_config(attack="aggressive", alpha_m=1)
        records = sweep(cfg, "alpha_m", [0, 2], variants=["alg2"])
        by_value = {r["sweep"]["value"]: r for r in records}
        assert not by_value[0]["config"]["allow_excess_byzantine"]
        assert by_value[2]["config"]["allow_excess_byzantine"]  # 2 > screen_count=1

    def test_alpha_axis_past_half_the_workers_has_no_bounds_report(self):
        # 3 of 4 workers screened covers 2 or 3 byzantine ones, but 3 are a majority
        cfg = fast_config(attack="aggressive", alpha_m=1, screen_count=3, check_bounds=True)
        records = sweep(cfg, "alpha_m", [2, 3], variants=["nbs_only"])
        assert records[0]["bounds"]["applicable"] is True
        assert records[1]["bounds"] == {"certified": False, "applicable": False,
                                        "reason": "corrupted fraction 3/4 exceeds 1/2"}

    @pytest.mark.parametrize("axis", ["alpha_m", "t_z"])
    def test_integer_axes_reject_fractional_values(self, axis):
        with pytest.raises(ConfigError, match="integers"):
            sweep(fast_config(), axis, [1.5], variants=["erm"])

    def test_axis_values_survive_preset_expansion(self):
        cfg = ExperimentConfig(preset="E0", **FAST)
        records = sweep(cfg, "lam", [0.5, 2.0], variants=["alg2"])
        assert [r["config"]["lam"] for r in records] == [0.5, 2.0]

    def test_inner_iteration_axis(self):
        records = sweep(fast_config(), "t_z", [0, 5], variants=["alg2"])
        assert [r["config"]["t_z"] for r in records] == [0, 5]

    def test_penalty_sweep_is_stable_for_moderate_values(self):
        # reduced version of the penalty-weight robustness sweep: performance
        # barely moves across moderate penalty values
        cfg = ExperimentConfig(
            preset="E1", m=8, iterations=120, t_z=30, screen_count=1, alpha_m=1,
        )
        records = sweep(cfg, "lam", [0.5, 1.0, 3.0, 10.0], variants=["alg2"])
        rates = {r["sweep"]["value"]: r["results"]["shift_misclassification"]
                 for r in records}
        moderate = [rates[1.0], rates[3.0], rates[10.0]]
        assert max(moderate) - min(moderate) <= 0.05
        assert abs(rates[0.5] - rates[3.0]) <= 0.1

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(fast_config(), "eta", [0.1])

    def test_shift_axis_with_check_bounds_carries_each_budgets_bounds(self):
        cfg = fast_config(check_bounds=True)
        records = sweep(cfg, "shift_q", [0.0, 0.2], variants=["alg2", "erm"])
        assert len(records) == 4
        for record in records:
            single = replace(cfg, variant=record["config"]["variant"],
                             shift_q=record["sweep"]["value"])
            (expected,) = run_experiment(single)
            assert record["bounds"] == expected["bounds"]
            assert {k: v for k, v in record.items() if k != "sweep"} == expected

    def test_failing_shift_sweep_names_the_variant_and_config(self, monkeypatch):
        fail_alg2_training(monkeypatch)
        cfg = fast_config(attack="aggressive", alpha_m=2, screen_count=2)
        with pytest.raises(RuntimeError, match="variant='alg2'") as exc:
            sweep(cfg, "shift_q", [0.0, 0.1], variants=["alg2"])
        assert "'shift_q': 0.0" in str(exc.value) and "'alpha_m': 2" in str(exc.value)
        assert isinstance(exc.value.__cause__, NumericError)

    def test_alpha_axis_prepares_the_data_once(self, monkeypatch):
        prepared = count_calls(monkeypatch, "prepare_data")
        trained = count_calls(monkeypatch, "train")
        sweep(fast_config(attack="aggressive", alpha_m=1), "alpha_m", [0, 1, 2],
              variants=["alg2", "erm"])
        assert len(prepared) == 1
        assert len(trained) == 6  # every alpha_m point is a training config

    def test_shift_axis_trains_each_variant_once(self, monkeypatch):
        runs = count_calls(monkeypatch, "run_training")
        scored = count_calls(monkeypatch, "evaluate")
        records = sweep(fast_config(), "shift_q", [0.0, 0.1, 0.2], variants=["alg2", "erm"])
        assert len(runs) == 2 and len(scored) == len(records) == 6

    def test_each_variant_and_point_config_is_built_once(self, monkeypatch):
        # each point was built under the base variant, then again under each variant:
        # 33 configs for these 22 records
        cfg = ExperimentConfig(preset="E3", iterations=2)
        built, real = [], ExperimentConfig.__post_init__
        monkeypatch.setattr(ExperimentConfig, "__post_init__",
                            lambda self: built.append(1) or real(self))
        records = sweep(cfg, "shift_q", [i / 20 for i in range(11)],
                        variants=["nbs_only", "erm"])
        assert len(records) == 22 and len(built) == 22

    def test_the_final_objective_is_taken_once_per_trained_run(self, monkeypatch):
        # the rounds form no inner objective: cross_entropy runs once per trained run,
        # for its final estimate, however many budgets score the run
        calls, real = [], surrogate.cross_entropy
        monkeypatch.setattr(surrogate, "cross_entropy", lambda *a: calls.append(a) or real(*a))
        records = sweep(fast_config(), "shift_q", [0.0, 0.1, 0.2], variants=["alg2", "erm"])
        assert len(records) == 6 and len(calls) == 2

    def test_multi_variant_sweeps_come_variant_by_variant(self):
        records = sweep(fast_config(), "lam", [1.0, 2.0], variants=["erm", "alg2"])
        assert [(r["config"]["variant"], r["sweep"]["value"]) for r in records] == [
            ("erm", 1.0), ("erm", 2.0), ("alg2", 1.0), ("alg2", 2.0)]

    def test_unknown_variants_are_refused_before_anything_trains(self, monkeypatch):
        runs = count_calls(monkeypatch, "run_training")
        with pytest.raises(ConfigError, match="unknown variant 'bogus'"):
            run_experiment(fast_config(), variants=["alg2", "bogus"])
        with pytest.raises(ConfigError, match="bogus"):
            sweep(fast_config(), "shift_q", [0.0], variants=["bogus"])
        assert runs == []

    def test_axis_values_take_the_declared_type(self):
        points = sweep_points(ExperimentConfig(preset="E1", lam=3), "lam", [2.5, 4.5])
        assert [p.lam for p in points] == [2.5, 4.5]
        points = sweep_points(ExperimentConfig(shift_q=0), "shift_q", [0.1, 0.25])
        assert [p.shift_q for p in points] == [0.1, 0.25]
        points = sweep_points(fast_config(), "t_z", [0.0, 2.0])
        assert [type(p.t_z) for p in points] == [int, int]

    def test_empty_grid_is_refused(self):
        with pytest.raises(ConfigError, match="at least one value"):
            sweep(fast_config(), "lam", [])


def with_theta(monkeypatch, change):
    """Make experiments.train return its trace with theta_T replaced by change(theta_T)."""
    real = experiments.train

    def train(cfg, sharded):
        trace, effective, roster = real(cfg, sharded)
        return replace(trace, theta_final=change(trace.theta_final.copy())), effective, roster

    monkeypatch.setattr(experiments, "train", train)


def with_test_value(monkeypatch, row, column, value):
    """Make experiments.prepare_data return data whose test row holds value in column."""
    real = experiments.prepare_data

    def prepare_data(cfg):
        sharded = real(cfg)
        sharded.test_features[row, column] = value
        return sharded

    monkeypatch.setattr(experiments, "prepare_data", prepare_data)


def refusal(call):
    """The exception call() raises."""
    with pytest.raises(Exception) as exc:
        call()
    return exc.value


class TestOneCall:
    """Several configs in one call: each distinct run trains once, each record scores alone."""

    @staticmethod
    def grid():
        return [ExperimentConfig(preset=preset, iterations=6) for preset in PRESETS]

    def test_the_grid_trains_each_distinct_run_once_on_one_data_preparation(self,
                                                                             monkeypatch):
        prepared = count_calls(monkeypatch, "prepare_data")
        trained = count_calls(monkeypatch, "train")
        records = run_experiment(self.grid(), variants=VARIANTS)
        assert len(records) == 20 and len(trained) == 12 and len(prepared) == 1
        # E2 and E4 differ from E1 and E3 only in the shift norm: they train nothing
        assert sorted({cfg.environment for cfg, _ in trained}) == ["E0", "E1", "E3"]

    def test_each_presets_records_equal_its_own_call_byte_for_byte(self):
        grid = run_experiment(self.grid(), variants=VARIANTS)
        assert [(r["config"]["variant"], r["config"]["environment"]) for r in grid] == [
            (variant, preset) for variant in VARIANTS for preset in PRESETS]
        for cfg in self.grid():
            alone = run_experiment(cfg, variants=VARIANTS)
            together = [r for r in grid if r["config"]["environment"] == cfg.environment]
            assert "".join(map(record_line, together)) == "".join(map(record_line, alone))

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("theta", ["trained", "zero", "tie"])
    def test_a_shift_sweep_scores_each_budget_as_evaluate_does(self, monkeypatch, norm, theta):
        def tie(values):
            j = int(np.argmax(np.abs(values)))
            values[0 if j else 1] = -values[j]
            return values

        change = {"trained": lambda v: v, "zero": np.zeros_like, "tie": tie}[theta]
        with_theta(monkeypatch, change)
        cfg = fast_config(attack="aggressive", alpha_m=1, shift_norm=norm)
        records = sweep(cfg, "shift_q", [0.3, 0.0, 0.1, 0.3], variants=["alg2", "erm"])
        sharded = prepare_data(cfg)
        for record in records:
            point = replace(cfg, variant=record["config"]["variant"],
                            shift_q=record["sweep"]["value"])
            theta_final = experiments.train(point, sharded)[0].theta_final
            assert record["results"] == evaluate(scorer_of(theta_final, sharded), point)
            X, Y = sharded.test_features, sharded.test_labels
            shifted = scorer_of(theta_final, sharded).shifted(experiments._shift_spec(point))
            assert record["results"] == {
                "clean_misclassification": shift.misclassification_rate(theta_final, X, Y),
                "shift_misclassification": shift.misclassification_rate(theta_final, shifted,
                                                                        Y)}

    def test_a_non_finite_theta_is_refused_as_evaluate_refuses_it(self, monkeypatch):
        with_theta(monkeypatch, lambda v: np.full_like(v, np.nan))
        cfg = fast_config(variant="erm")
        exc = refusal(lambda: sweep(cfg, "shift_q", [0.0, 0.1]))
        assert isinstance(exc, RuntimeError) and "variant='erm'" in str(exc)
        sharded = prepare_data(cfg)
        alone = refusal(lambda: evaluate(
            scorer_of(experiments.train(cfg, sharded)[0].theta_final, sharded), cfg))
        assert str(exc.__cause__) == str(alone) == "non-finite values in theta"

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("budget, message", [
        (0.1, "shifted features are non-finite"),
        (0.0, "clean_misclassification: logits theta . x are NaN in 1 rows"),
    ])
    def test_a_nan_test_row_is_refused_as_evaluate_refuses_it(self, monkeypatch, norm, budget,
                                                              message):
        with_test_value(monkeypatch, 3, 0, np.nan)
        cfg = fast_config(variant="erm", shift_norm=norm, shift_q=budget)
        exc = refusal(lambda: run_experiment(cfg))
        sharded = experiments.prepare_data(cfg)
        alone = refusal(lambda: evaluate(
            scorer_of(experiments.train(cfg, sharded)[0].theta_final, sharded), cfg))
        assert str(exc.__cause__) == str(alone) == message
        rows = [None if e.rows is None else e.rows.tolist() for e in (exc.__cause__, alone)]
        assert rows[0] == rows[1] == ([3] if budget == 0.0 else None)

    def test_a_failing_record_of_a_shared_run_names_its_own_config(self, monkeypatch):
        # an infinite test value keeps every clean logit finite or infinite, so the
        # E1 record at budget 0 is scored; the E2 record shifts it and is refused
        with_test_value(monkeypatch, 3, 0, np.inf)
        trained = count_calls(monkeypatch, "train")
        configs = [ExperimentConfig(preset="E1", iterations=4, shift_q=0.0),
                   ExperimentConfig(preset="E2", iterations=4)]
        written = []
        exc = refusal(lambda: run_experiment(configs, variants=["erm"],
                                             on_record=written.append))
        assert isinstance(exc, RuntimeError)
        assert "variant='erm'" in str(exc) and "'environment': 'E2'" in str(exc)
        assert "'shift_norm': 'l2'" in str(exc) and "'shift_q': 0.3" in str(exc)
        assert str(exc.__cause__) == "shifted features are non-finite"
        assert [r["config"]["environment"] for r in written] == ["E1"] and len(trained) == 1


class TestCli:
    def test_run_writes_records_and_csv(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "E0", "--variant", "alg2", "--m", "4",
            "--iterations", "3", "--t-z", "2", "--screen-count", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "records.jsonl").exists()
        assert (tmp_path / "records.csv").exists()
        out = capsys.readouterr().out
        assert "E0" in out and "alg2" in out

    def test_flags_override_presets(self, tmp_path):
        main([
            "run", "--preset", "E1", "--variant", "erm", "--m", "4",
            "--iterations", "2", "--t-z", "2", "--screen-count", "1",
            "--alpha-m", "0", "--out", str(tmp_path),
        ])
        (record,) = read_records(tmp_path / "records.jsonl")
        assert record["config"]["alpha_m"] == 0
        assert record["config"]["attack"] == "aggressive"  # inherited from E1
        assert record["config"]["environment"] == "E1"

    def test_config_file_plus_flag_precedence(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**FAST, "seed": 7, "shift_q": 0.2}))
        main([
            "run", "--config", str(config_path), "--variant", "alg2",
            "--shift-q", "0.0", "--out", str(tmp_path),
        ])
        (record,) = read_records(tmp_path / "records.jsonl")
        assert record["config"]["seed"] == 7
        assert record["config"]["shift_q"] == 0.0

    def test_preset_then_config_file_then_flags(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**FAST, "shift_q": 0.2}))
        base = ["run", "--preset", "E1", "--config", str(config_path), "--variant", "erm",
                "--alpha-m", "1", "--iterations", "2"]
        main([*base, "--out", str(tmp_path / "file")])
        (record,) = read_records(tmp_path / "file" / "records.jsonl")
        assert record["config"]["shift_q"] == 0.2
        assert record["config"]["attack"] == "aggressive"  # from E1
        main([*base, "--shift-q", "0.1", "--out", str(tmp_path / "flag")])
        (record,) = read_records(tmp_path / "flag" / "records.jsonl")
        assert record["config"]["shift_q"] == 0.1
        assert record["config"]["environment"] == "E1"

    def test_unknown_preset_in_config_file_is_a_usage_error(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"preset": "E9"}))
        with pytest.raises(SystemExit, match="unknown preset"):
            main(["run", "--config", str(config_path)])

    @pytest.mark.parametrize("axis", ["alpha_m", "t_z"])
    def test_integer_sweep_axes_reject_fractional_values(self, tmp_path, axis):
        for values, message in (("1,2.5", "integers"), ("1,a", "'a' is not a number")):
            with pytest.raises(SystemExit, match=message):
                main(["sweep", "--axis", axis, "--values", values, "--variant", "erm",
                      "--m", "4", "--iterations", "2", "--screen-count", "1",
                      "--out", str(tmp_path)])
            assert not (tmp_path / f"sweep_{axis}.jsonl").exists()

    @pytest.mark.parametrize("command", [["run", "--shift-q", "nan"],
                                         ["sweep", "--axis", "shift_q", "--values", "0.1,nan"],
                                         ["sweep", "--axis", "shift_q", "--values", "inf"]])
    def test_a_non_finite_shift_budget_is_a_usage_error_before_any_file(self, tmp_path, command):
        # a NaN budget used to train the whole run and fail in its evaluation
        with pytest.raises(SystemExit, match="budget must be finite and >= 0"):
            main([*command, "--preset", "E1", "--variant", "erm", "--m", "4",
                  "--iterations", "2", "--screen-count", "1", "--alpha-m", "1",
                  "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_byzantine_sweep_without_an_attack_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="attack"):
            main(["sweep", "--axis", "alpha_m", "--values", "0,2", "--variant", "erm",
                  "--m", "4", "--iterations", "2", "--screen-count", "1",
                  "--out", str(tmp_path)])
        assert not (tmp_path / "sweep_alpha_m.jsonl").exists()
        with pytest.raises(SystemExit, match="screen_count"):
            main(["run", "--m", "4", "--screen-count", "4", "--out", str(tmp_path)])
        assert not (tmp_path / "records.jsonl").exists()

    def test_byzantine_workers_without_an_attack_are_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--alpha-m", "3", "--attack", "none", "--out", str(tmp_path)])
        assert exc.value.code == "alpha_m=3 byzantine workers need an attack, got none"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_an_output_path_below_a_file_is_a_usage_error_before_training(
            self, tmp_path, monkeypatch, below, from_env):
        # it trained the first variant, then ended in a FileExistsError or
        # NotADirectoryError traceback from the first record's mkdir
        monkeypatch.setattr(experiments, "train", lambda *args: pytest.fail("trained"))
        existing = tmp_path / "results"
        existing.write_text("kept\n")
        out = existing / below if below else existing
        flags = ["--preset", "E0", "--iterations", "2"]
        if from_env:
            monkeypatch.setenv("ROBUSTGD_OUT", str(out))
        else:
            flags += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(["run", *flags])
        assert exc.value.code == f"output directory {out}: {existing} is not a directory"
        assert existing.read_text() == "kept\n"

    @pytest.mark.parametrize("blocked", ["records.jsonl", "records.csv"])
    def test_an_output_file_that_cannot_be_written_is_a_usage_error(self, tmp_path, blocked):
        (tmp_path / blocked).mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["run", "--variant", "erm", "--m", "4", "--iterations", "2", "--t-z", "0",
                  "--screen-count", "1", "--out", str(tmp_path)])
        assert exc.value.code.startswith(f"output directory {tmp_path}: [Errno ")
        assert exc.value.code.endswith(f": '{tmp_path / blocked}'")

    @pytest.mark.parametrize("command", [["run", "--alpha-m", "19"],
                                         ["sweep", "--axis", "alpha_m", "--values", "19"]])
    def test_a_counterexample_run_with_one_honest_worker_is_a_usage_error(self, tmp_path,
                                                                          command):
        # it used to end in a RuntimeError traceback from inside train
        with pytest.raises(SystemExit, match="the counterexample attack needs at least 2 "
                                             "honest workers, got 1$"):
            main([*command, "--preset", "E1", "--attack", "counterexample",
                  "--allow-excess-byzantine", "--iterations", "3", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, counts", [
        (["run", "--alpha-m", "5"], (5, 3)),
        (["run", "--screen-count", "0"], (3, 0)),
        (["sweep", "--axis", "lam", "--values", "1,2", "--alpha-m", "5"], (5, 3)),
    ])
    def test_more_byzantine_workers_than_the_screen_drops_is_a_usage_error(self, tmp_path,
                                                                           command, counts):
        message = "alpha_m={} byzantine workers exceed screen_count={} ".format(*counts)
        with pytest.raises(SystemExit, match=f"^{message}"):
            main([*command, "--preset", "E1", "--iterations", "3", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, alpha_ms", [
        (["run", "--variant", "dro_only", "--alpha-m", "5"], [5]),
        (["run", "--variant", "erm", "--alpha-m", "5"], [5]),
        (["run", "--alpha-m", "5", "--allow-excess-byzantine"], [5]),
        (["sweep", "--axis", "alpha_m", "--values", "0,5"], [0, 5]),
    ])
    def test_unscreened_variants_and_the_opt_in_train_past_the_screen_count(self, tmp_path,
                                                                           command, alpha_ms):
        assert main([*command, "--preset", "E1", "--iterations", "3",
                     "--out", str(tmp_path)]) == 0
        [path] = tmp_path.glob("*.jsonl")
        assert [r["config"]["alpha_m"] for r in read_records(path)] == alpha_ms

    def test_sweep_and_report_commands(self, tmp_path, capsys):
        code = main([
            "sweep", "--axis", "shift_q", "--values", "0,0.1", "--variant", "alg2",
            "--m", "4", "--iterations", "2", "--t-z", "2", "--screen-count", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        sweep_path = tmp_path / "sweep_shift_q.jsonl"
        assert sweep_path.exists()
        capsys.readouterr()
        assert main(["report", str(sweep_path)]) == 0
        out = capsys.readouterr().out
        assert "shift_q=0.1" in out

    def test_out_dir_from_environment_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROBUSTGD_OUT", str(tmp_path / "env_out"))
        main([
            "run", "--variant", "erm", "--m", "4", "--iterations", "2",
            "--t-z", "2", "--screen-count", "1",
        ])
        assert (tmp_path / "env_out" / "records.jsonl").exists()

    def test_config_file_variant_follows_the_precedence_rule(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**FAST, "iterations": 2, "variant": "erm"}))
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "file")])
        (record,) = read_records(tmp_path / "file" / "records.jsonl")
        assert record["config"]["variant"] == "erm"
        main(["run", "--config", str(config_path), "--variant", "nbs_only",
              "--out", str(tmp_path / "flag")])
        (record,) = read_records(tmp_path / "flag" / "records.jsonl")
        assert record["config"]["variant"] == "nbs_only"
        config_path.write_text(json.dumps({**FAST, "iterations": 2, "variant": "all"}))
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "all")])
        records = read_records(tmp_path / "all" / "records.jsonl")
        assert [r["config"]["variant"] for r in records] == ["alg2", "dro_only", "nbs_only", "erm"]

    @pytest.mark.parametrize("content, message", [
        (None, r": cannot read \(No such file or directory\)$"),
        (b"0.5," * 57 + b"1\n" + b"0.5\xff," * 57 + b"0\n", r", line 2: byte 0xff is not UTF-8$"),
        ((b"0.5," * 57 + b"1\n") * 2 + b"0.5," * 56 + b"0\n",
         r", line 3: expected 58 columns, got 57$"),
    ], ids=["missing", "not-utf8", "short-row"])
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "lam", "--values", "1,2"]])
    def test_a_bad_dataset_is_a_usage_error_before_any_file(self, tmp_path, command, content,
                                                            message):
        path = tmp_path / "spambase.data"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^dataset {re.escape(str(path))}{message}"):
            main([*command, "--dataset", str(path), "--variant", "erm", "--m", "4",
                  "--iterations", "2", "--screen-count", "1", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"preset": "E0", "m": 4000}, r"m=4000 workers exceed training size 3067"),
        ({"preset": "E1", "train_frac": 0.9999},
         r"train_frac=0.9999 leaves an empty test split \(4601 training rows, 0 test rows\)"),
    ], ids=["too-many-workers", "empty-test-split"])
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "lam", "--values", "1,2"]])
    def test_a_split_the_data_cannot_make_is_a_usage_error_before_any_file(
            self, tmp_path, command, fields, message):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(fields))
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^data: {message}$"):
            main([*command, "--config", str(config_path), "--variant", "erm",
                  "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "lam", "--values", "1,2"]])
    def test_unknown_variant_is_a_usage_error_before_any_file(self, tmp_path, command):
        with pytest.raises(SystemExit, match="unknown variant 'bogus'"):
            main([*command, "--variant", "bogus", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_sweep_values_take_the_axis_type_from_a_config_file(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**FAST, "iterations": 2, "lam": 3, "shift_q": 0}))
        for axis, values in (("lam", [2.5, 4.5]), ("shift_q", [0.1, 0.25])):
            main(["sweep", "--config", str(config_path), "--axis", axis,
                  "--values", ",".join(map(str, values)), "--out", str(tmp_path)])
            records = read_records(tmp_path / f"sweep_{axis}.jsonl")
            assert [r["config"][axis] for r in records] == values

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        (REPORTABLE + "not json\n", r"records.jsonl:2: not a JSON line"),
        ('\n{"results": {}}\n', r"records.jsonl:2: not a record with config and results"),
        ('{"config": [], "results": {}}\n', r"records.jsonl:1: not a record"),
        ("[1, 2]\n", r"records.jsonl:1: not a record"),
    ])
    def test_report_refuses_bad_input_naming_the_file_and_line(self, tmp_path, content, message):
        path = tmp_path / "records.jsonl"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit, match=message) as exc:
            main(["report", str(path)])
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("record, message", [
        ({"config": {}, "results": {}}, "config.variant is missing"),
        ({"config": {"variant": "median", "environment": "E1"}, "results": {}},
         r"config.variant must be one of \['alg2', 'dro_only', 'nbs_only', 'erm'\], "
         r"got 'median'"),
        ({"config": {"variant": "erm", "environment": None, "shift_q": 0.3}, "results": {}},
         "config.attack is missing"),
        ({"config": {"variant": "erm", "attack": "none", "alpha_m": 0, "shift_q": "0.3"},
          "results": {}}, "config.shift_q must be a number, got '0.3'"),
        # a preset sets all four, and E1 and E2 differ only in shift_norm
        ({"config": {"variant": "erm", "attack": "none", "shift_q": 0.3}, "results": {}},
         "config.alpha_m is missing"),
        ({"config": {"variant": "erm", "attack": "none", "alpha_m": 0, "shift_q": 0.3,
                     "shift_norm": 1}, "results": {}},
         "config.shift_norm must be a string, got 1"),
        ({"config": {"variant": "erm", "environment": 1}, "results": {}},
         "config.environment must be a string, got 1"),
        # with an environment, a preset field the record holds labels the row too
        ({"config": {"variant": "erm", "environment": "E1", "alpha_m": "2"}, "results": {}},
         "config.alpha_m must be a number, got '2'"),
        ({"config": {"variant": "erm", "environment": "E1"}, "sweep": [1],
          "results": {"shift_misclassification": 0.25}},
         r"sweep must be an object with axis and value, got \[1\]"),
        ({"config": {"variant": "erm", "environment": "E1"}, "sweep": {"axis": "lam"},
          "results": {"shift_misclassification": 0.25}}, "sweep.value is missing"),
        ({"config": {"variant": "erm", "environment": "E1"}, "results": {}},
         "results.shift_misclassification is missing"),
        ({"config": {"variant": "erm", "environment": "E1"},
          "results": {"shift_misclassification": "n/a"}},
         "results.shift_misclassification must be a number, got 'n/a'"),
        ({"config": {"variant": "erm", "environment": "E1"},
          "results": {"shift_misclassification": True}},
         "results.shift_misclassification must be a number, got True"),
    ])
    def test_report_refuses_a_record_without_the_fields_it_reads(self, tmp_path, capsys,
                                                                  record, message):
        # each ended in a traceback, or (the unknown variant) left the record out of the table
        path = tmp_path / "records.jsonl"
        path.write_text(REPORTABLE + json.dumps(record) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert re.fullmatch(rf"report: {re.escape(str(path))}:2: {message}", str(exc.value.code))
        assert capsys.readouterr().out == ""

    def test_report_reads_a_record_with_the_fields_it_reads(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(REPORTABLE)
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == [
            "attack=none,alpha_m=0,shift_q=0.0,shift_norm=l1", "0.2500"]

    @staticmethod
    def record(environment, miscls, sweep=None, variant="alg2"):
        record = {"config": {"environment": environment, "variant": variant},
                  "results": {"shift_misclassification": miscls}}
        if sweep:
            record["sweep"] = {"axis": "shift_q", "value": sweep}
        return json.dumps(record) + "\n"

    def test_report_keeps_the_sweeps_of_two_environments_apart(self, tmp_path, capsys):
        # the rows were "shift_q=0.1" alone, and E3's values filled both
        paths = [tmp_path / "e1.jsonl", tmp_path / "e3.jsonl"]
        paths[0].write_text(self.record("E1", 0.125, sweep=0.1) + self.record("E1", 0.25, sweep=0.2))
        paths[1].write_text(self.record("E3", 0.375, sweep=0.1) + self.record("E3", 0.5, sweep=0.2))
        assert main(["report", *map(str, paths)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines] == [
            ["E1,shift_q=0.1", "0.1250"], ["E1,shift_q=0.2", "0.2500"],
            ["E3,shift_q=0.1", "0.3750"], ["E3,shift_q=0.2", "0.5000"]]
        # the labels are wider than the header: the values still sit under theirs
        assert {line.index(" 0.") + 1 for line in lines} == {header.index("alg2")}

    def test_report_refuses_two_records_with_different_values_in_one_cell(self, tmp_path,
                                                                         capsys):
        # two seeds of one config: the table showed the last of them only
        path = tmp_path / "records.jsonl"
        path.write_text(self.record("E1", 0.125) + self.record("E1", 0.25))
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == "report: row 'E1', variant 'alg2': records give 0.125 and 0.25"
        assert capsys.readouterr().out == ""

    def test_report_keeps_an_l1_and_an_l2_run_of_one_attack_apart(self, tmp_path, capsys):
        # both were row 'aggressive,q=0.3', which refused the two values as a conflict
        def record(miscls, **fields):
            cfg = {"environment": None, "variant": "alg2", "attack": "aggressive",
                   "alpha_m": 3, "shift_q": 0.3, "shift_norm": "l1", "seed": 0, **fields}
            return json.dumps({"config": cfg,
                               "results": {"shift_misclassification": miscls}}) + "\n"

        path = tmp_path / "records.jsonl"
        path.write_text(record(0.125) + record(0.25, shift_norm="l2"))
        assert main(["report", str(path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["attack=aggressive,alpha_m=3,shift_q=0.3,shift_norm=l1", "0.1250"],
                        ["attack=aggressive,alpha_m=3,shift_q=0.3,shift_norm=l2", "0.2500"]]
        # two seeds of one config still share a cell, and still conflict
        path.write_text(record(0.125) + record(0.25, seed=1))
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == ("report: row 'attack=aggressive,alpha_m=3,shift_q=0.3,"
                                  "shift_norm=l1', variant 'alg2': records give 0.125 and 0.25")

    def test_report_keeps_a_preset_run_with_an_overridden_field_apart(self, tmp_path, capsys):
        # both were row 'E1', which refused their two values as a conflict
        run = ["run", "--preset", "E1", "--iterations", "20"]
        assert main([*run, "--out", str(tmp_path / "a")]) == 0
        assert main([*run, "--alpha-m", "2", "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "a" / "records.jsonl"),
                     str(tmp_path / "b" / "records.jsonl")]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["E1", "E1,alpha_m=2"]
        assert rows[0][1] != rows[1][1]

    def test_a_sweep_row_names_its_axis_once(self, tmp_path, capsys):
        assert main(["sweep", "--preset", "E1", "--axis", "alpha_m", "--values", "1,2",
                     "--variant", "erm", "--shift-norm", "l2", "--iterations", "2",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "sweep_alpha_m.jsonl")]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["E1,shift_norm=l2,alpha_m=1",
                                                    "E1,shift_norm=l2,alpha_m=2"]

    def test_run_takes_every_preset_each_layered_as_alone(self, tmp_path, monkeypatch):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"shift_q": 0.1, "iterations": 2}))
        trained = count_calls(monkeypatch, "train")
        assert main(["run", "--preset", "all", "--config", str(config_path), "--variant",
                     "erm", "--shift-norm", "l2", "--out", str(tmp_path / "out")]) == 0
        records = read_records(tmp_path / "out" / "records.jsonl")
        assert [r["config"] for r in records] == [
            asdict(ExperimentConfig(preset=preset, shift_q=0.1, iterations=2, variant="erm",
                                    shift_norm="l2")) for preset in sorted(PRESETS)]
        assert len(trained) == 3  # E0, E1 (E2 with the norm set) and E3 (E4)

    def test_sweep_refuses_every_preset_before_any_file(self, tmp_path):
        with pytest.raises(SystemExit, match="^sweep takes one preset, not 'all'$"):
            main(["sweep", "--preset", "all", "--axis", "lam", "--values", "1",
                  "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_report_takes_a_rerun_and_a_repeated_sweep_value_once(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(self.record("E1", 0.125) * 2 + self.record("E3", 0.5, sweep=0.1) * 2)
        assert main(["report", str(path), str(path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["E1", "0.1250"], ["E3,shift_q=0.1", "0.5000"]]

    def test_a_sweep_that_repeats_a_value_reports_it_once(self, tmp_path, capsys):
        assert main(["sweep", "--axis", "lam", "--values", "2,2", "--variant", "alg2",
                     "--m", "4", "--iterations", "2", "--t-z", "2", "--screen-count", "1",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "sweep_lam.jsonl")]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == [
            "attack=none,alpha_m=0,shift_q=0.0,shift_norm=l1,lam=2.0"]

    def test_report_names_the_line_of_a_byte_that_is_not_utf8(self, tmp_path, capsys):
        # was a UnicodeDecodeError traceback
        path = tmp_path / "records.jsonl"
        path.write_bytes(REPORTABLE.encode() * 2 + b'{"note": "caf\xe9"}\n')
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == f"report: {path}:3: byte 0xe9 is not UTF-8"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "int-past-float"])
    @pytest.mark.parametrize("field, value", [
        ("results.shift_misclassification", "0.25"), ("config.shift_q", "0.0")])
    def test_report_refuses_a_number_that_is_not_finite(self, tmp_path, capsys, token, field,
                                                        value):
        # json reads NaN and Infinity, and the table printed nan; the long int overflowed
        path = tmp_path / "records.jsonl"
        path.write_text(REPORTABLE + REPORTABLE.replace(value, token))
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code.startswith(f"report: {path}:2: {field} must be finite, got ")
        assert capsys.readouterr().out == ""

    def test_unknown_config_field_rejected(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            main(["run", "--config", str(config_path)])

    @pytest.mark.parametrize("field, value", [("shift_steps", 20),
                                              ("attack_shared_direction", False)])
    def test_config_file_with_a_removed_field_is_refused(self, tmp_path, field, value):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**FAST, field: value}))
        with pytest.raises(SystemExit, match=rf"unknown config fields: \['{field}'\]"):
            main(["run", "--config", str(config_path), "--out", str(tmp_path)])
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize("flag, field, value", [
        *(("--attack", "attack", kind) for kind in ("none", *attacks.KINDS)),
        *(("--shift-norm", "shift_norm", norm) for norm in (shift.L1, shift.L2)),
    ])
    def test_every_attack_kind_and_shift_norm_is_a_flag_value(self, monkeypatch, flag, field,
                                                              value):
        # the choices are the package's own tuples, so each of them reaches the config
        built = []
        monkeypatch.setattr(cli, "cmd_run", lambda args: built.append(cli._build_config(args)))
        main(["run", flag, value])
        [([cfg], _)] = built
        assert getattr(cfg, field) == value

    def test_the_readme_names_the_fields_only_a_config_file_sets(self):
        parser = argparse.ArgumentParser()
        cli._add_config_flags(parser)
        flagged = {action.dest for action in parser._actions}
        config_only = [f for f in cli._CONFIG_FIELDS if f not in flagged]
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        [sentence] = re.findall(r"fields that only a config file can set: (.*?)\.", readme,
                                flags=re.DOTALL)
        assert re.findall(r"`(\w+)`", sentence) == config_only

    def test_verify_counts_take_integral_numbers(self):
        result = verify_mod.fuzz_screening_bound(n_instances=np.int64(40))
        assert result == verify_mod.fuzz_screening_bound(n_instances=40.0)
        assert result.name == "screening deviation fuzz (40 instances)"

    def test_verify_command_smoke(self, capsys):
        assert main(["verify", "--fuzz-instances", "50", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    @pytest.mark.parametrize("suite, kwargs, message", [
        (verify_mod.fuzz_screening_bound, {"n_instances": 0}, "n_instances must be >= 1, got 0"),
        (verify_mod.fuzz_screening_bound, {"n_instances": -5}, "n_instances must be >= 1"),
        (verify_mod.deviation_trace_suite, {"n_seeds": 0}, "n_seeds must be >= 1, got 0"),
        (verify_mod.rate_bound_suite, {"n_seeds": -1}, "n_seeds must be >= 1, got -1"),
        (verify_mod.fuzz_screening_bound, {"n_instances": True},
         "n_instances must be an integer count, got True"),
        (verify_mod.fuzz_screening_bound, {"n_instances": 2.5},
         "n_instances must be an integer count, got 2.5"),
        (verify_mod.fuzz_screening_bound, {"n_instances": "5"},
         "n_instances must be an integer count, got '5'"),
        (verify_mod.deviation_trace_suite, {"n_seeds": False},
         "n_seeds must be an integer count, got False"),
        (verify_mod.deviation_trace_suite, {"n_seeds": 1.5},
         "n_seeds must be an integer count, got 1.5"),
        (verify_mod.rate_bound_suite, {"n_seeds": "2"}, "n_seeds must be an integer count, got '2'"),
        (verify_mod.rate_bound_suite, {"n_seeds": float("nan")},
         "n_seeds must be an integer count, got nan"),
        (verify_mod.run_all, {"fuzz_instances": True}, "fuzz_instances must be an integer count"),
        (verify_mod.run_all, {"fuzz_instances": 50, "n_seeds": 0.5},
         "n_seeds must be an integer count, got 0.5"),
        (verify_mod.run_all, {"fuzz_instances": "50"}, "fuzz_instances must be an integer count"),
    ])
    def test_verify_suites_refuse_empty_runs(self, suite, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            suite(**kwargs)

    @pytest.mark.parametrize("flags, message", [
        (["--fuzz-instances", "-5", "--seeds", "-1"], "fuzz_instances must be >= 1, got -5"),
        (["--fuzz-instances", "50", "--seeds", "0"], "n_seeds must be >= 1, got 0"),
    ])
    def test_verify_command_refuses_non_positive_counts(self, capsys, flags, message):
        with pytest.raises(SystemExit, match=message) as exc:
            main(["verify", *flags])
        assert exc.value.code == f"verify: {message}"  # a message exits with status 1
        assert "[PASS]" not in capsys.readouterr().out

    def test_verify_command_refusal_exits_non_zero(self):
        env = {**os.environ, "PYTHONPATH": str(Path(verify_mod.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from robustgd.cli import main; sys.exit(main())",
             "verify", "--fuzz-instances", "-5", "--seeds", "-1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.strip() == "verify: fuzz_instances must be >= 1, got -5"


def reportable(environment=..., variant="alg2", miscls=0.25, sweep=None, **fields):
    """A record with a report row: ``...`` leaves the environment out."""
    cfg = {"variant": variant, **fields}
    if environment is not ...:
        cfg["environment"] = environment
    record = {"config": cfg, "results": {"shift_misclassification": miscls}}
    if sweep is not None:
        record["sweep"] = dict(zip(("axis", "value"), sweep))
    return record


E0_FIELDS = PRESETS["E0"]
# today's label of each record
LABELS = [
    (reportable("E1"), "E1"),
    (reportable("E1", alpha_m=2), "E1,alpha_m=2"),
    (reportable("E2", **PRESETS["E2"]), "E2"),
    (reportable("E2", **{**PRESETS["E2"], "shift_q": 0.1}), "E2,shift_q=0.1"),
    (reportable("X9", **PRESETS["E1"]), "X9,attack=aggressive,alpha_m=3,shift_q=0.3"),
    (reportable("X9"), "X9"),
    (reportable("", **{**E0_FIELDS, "shift_norm": "l2"}),
     "attack=none,alpha_m=0,shift_q=0.0,shift_norm=l2"),
    (reportable(None, **E0_FIELDS), "attack=none,alpha_m=0,shift_q=0.0,shift_norm=l1"),
    (reportable(**{**PRESETS["E3"], "alpha_m": 2}),
     "attack=intelligent,alpha_m=2,shift_q=0.3,shift_norm=l1"),
    (reportable("E3", sweep=("shift_q", 0.05), **{**PRESETS["E3"], "shift_q": 0.05}),
     "E3,shift_q=0.05"),
    (reportable("E1", sweep=("alpha_m", 1), alpha_m=1, shift_norm="l2"),
     "E1,shift_norm=l2,alpha_m=1"),
    (reportable(sweep=("lam", 2.0), lam=2.0, **E0_FIELDS),
     "attack=none,alpha_m=0,shift_q=0.0,shift_norm=l1,lam=2.0"),
]
# what a field of a fuzzed record is set to; ... deletes it
RETYPES = [..., None, "", "E1", "X9", "l2", "erm", 0, 3, 0.5, True, float("nan"), [], {},
           {"axis": "lam"}, {"axis": "alpha_m", "value": 2}]


class TestReportRule:
    def test_a_fixed_record_set_keeps_its_labels(self):
        records = [record for record, _ in LABELS]
        rows = report_table(records).splitlines()[1:]
        assert [row.split()[0] for row in rows] == [label for _, label in LABELS]

    def test_every_record_read_records_accepts_gets_a_row(self, tmp_path):
        # and a record it refuses is refused by report_table with the same message
        rng = np.random.default_rng(0)
        seeds = [reportable("E1", alpha_m=2), reportable("X9", **PRESETS["E1"]),
                 reportable("", **E0_FIELDS), reportable(**E0_FIELDS),
                 reportable("E3", sweep=("shift_q", 0.05), shift_q=0.05)]
        places = [("config", key) for key in ("variant", "environment", *E0_FIELDS)]
        places += [("results", "shift_misclassification"), ("sweep", "axis"),
                   ("sweep", "value"), (None, "sweep")]
        path, accepted = tmp_path / "records.jsonl", 0
        for _ in range(600):
            record = json.loads(json.dumps(seeds[rng.integers(len(seeds))]))
            for _ in range(rng.integers(1, 4)):
                section, key = places[rng.integers(len(places))]
                target = record if section is None else record.get(section)
                if isinstance(target, dict):
                    value = RETYPES[rng.integers(len(RETYPES))]
                    if value is ...:
                        target.pop(key, None)
                    else:
                        target[key] = json.loads(json.dumps(value))  # a copy of its own
            path.write_text(json.dumps(record) + "\n")
            try:
                [read] = read_records(path)
            except experiments.DataFormatError as exc:
                with pytest.raises(experiments.DataFormatError) as refused:
                    report_table([record])
                assert str(exc) == f"{path}:1: {refused.value}", record
                continue
            accepted += 1
            header, row = report_table([read]).splitlines()
            assert row.split()[-1] == f"{record['results']['shift_misclassification']:.4f}"
        assert 50 < accepted < 550  # both paths are taken


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_byzantine_report_past_the_float_range_is_screened():
    cfg = ExperimentConfig(preset="E1", attack="intelligent", attack_ratio=1e308, iterations=5)
    trace, _, roster = train(cfg, prepare_data(cfg))
    byzantine = list(roster.byzantine)
    assert (trace.worker_norms[:, byzantine] == np.inf).all()
    honest = np.delete(trace.worker_norms, byzantine, axis=1)
    assert np.isfinite(honest).all() and np.isfinite(trace.aggregated).all()
    [record] = run_experiment(cfg)
    assert all(np.isfinite(v) for v in record["results"].values())


def test_config_dict_round_trip():
    cfg = fast_config(attack="intelligent", alpha_m=1, seed=3)
    assert ExperimentConfig(**asdict(cfg)) == cfg
