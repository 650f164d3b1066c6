import hashlib
import io
import json
import os
import re
import shutil
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aggrex import cli as cli_module
from aggrex import tree as tree_module
from aggrex.blackbox import load_model
from aggrex.cli import (
    DEFAULT_CONFIG,
    KEYS,
    SWEEP_HEADER,
    ConfigError,
    _write_bundle,
    build_parser,
    canonical_json,
    cmd_aggregate,
    cmd_explain,
    cmd_report,
    cmd_sweep,
    cmd_train,
    load_config,
    main,
    run_dir_for,
)
from aggrex.data import synth_multiclass, write_dataset
from aggrex.explainer import train_local_explainer
from aggrex.tree import DecisionTree, tree_to_lines
from oracles import tree_fit
from test_acceptance import DETERMINISM_CONFIG


def small_config(output_dir, **extra):
    cfg = {
        "seed": 11,
        "output_dir": str(output_dir),
        "dataset": {"synth": {"n": 16, "m_cont": 2, "m_bin": 2, "classes": 3, "relevant": [0, 2]}},
        "blackbox": {"n_trees": 5},
        "sampler": {"N": 200, "radii": [1.5]},
        "filter": {"variant": "filtered"},
        "aggregate": {"budgets": [1, 2, 3], "floors": [0.5, 0.9], "solver": "both"},
    }
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def wrong_values(key, element=False) -> list:
    """Values that key's row in the table rules out: another kind, outside its bounds, null where it is not allowed."""
    values = [float("nan"), float("inf"), float("-inf")]
    values += [v for v, kind in ((True, bool), ("x", str), ({"x": 1}, dict), (10**400, int)) if key.kind is not kind]
    if element or not key.null:
        values.append(None)
    if key.kind is int:
        values.append(0.5)
    if key.lo is not None:
        values.append(key.lo - (1 if key.kind is int else 0.5))
    if key.hi is not None:
        values.append(key.hi + (1 if key.kind is int else 0.5))
    if element:
        return values
    if key.each is None:
        return values + [[1]]  # a list where one value is wanted
    return values + [1, [], *([v] for v in wrong_values(key, element=True))]


def path_dataset(tmp_path):
    csv_path = tmp_path / "points.csv"
    write_dataset(synth_multiclass(seed=5, n=14, m_cont=2, m_bin=2, classes=3, relevant=(0, 2)), csv_path)
    return {"path": str(csv_path), "synth": None, "schema": {"m_cont": 2, "m_bin": 2}}


class TestConfig:
    def test_round_trip_lossless(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path))
        cfg = load_config(str(path), {})
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(cfg), encoding="utf-8")
        assert load_config(str(echo), {}) == cfg

    def test_flags_win_over_file(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path))
        cfg = load_config(str(path), {"seed": 99})
        assert cfg["seed"] == 99

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, small_config(tmp_path))
        monkeypatch.setenv("AGGREX_SEED", "123")
        cfg = load_config(str(path), {})
        assert cfg["seed"] == 123

    def test_bad_floor_rejected(self, tmp_path):
        bad = small_config(tmp_path, aggregate={"budgets": [1], "floors": [1.5], "solver": "both"})
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        bad = small_config(tmp_path, aggregate={"budgets": [], "floors": [0.5], "solver": "both"})
        path = write_config(tmp_path, bad)
        assert main(["train", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, match",
        [("--max-bins=1", "max_bins"), ("--n-trees=0", "n_trees"), ("--radii=-1", "radius")],
    )
    def test_bad_flag_exits_2_before_any_stage(self, tmp_path, capsys, flag, match):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, small_config(out_dir))
        assert main(["sweep", "--config", str(path), flag]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--radii", "abc"], "--radii"),
            (["--floors", "x"], "--floors"),
            (["--budgets", "a"], "--budgets"),
            (["--budgets", "1..b"], "--budgets"),
        ],
        ids=["radii", "floors", "budgets-list", "budgets-range"],
    )
    def test_non_numeric_list_flag_exits_2_before_any_run_dir(self, tmp_path, capsys, flags, match):
        path = write_config(tmp_path, small_config(tmp_path / "runs"))
        assert main(["train", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not list(tmp_path.rglob("run-*"))

    @pytest.mark.parametrize(
        "extra, flags, match",
        [
            ({}, ["--radii", "1.0", "--agg-radius", "2.0"], "aggregate.radius"),
            ({}, ["--radii", "1.5,1e308"], "sampler.radii: radius 1e+308"),  # its ball's width overflows
            ({"aggregate": {"use_filtered": True}, "filter": {"variant": "unfiltered"}}, [], "use_filtered"),
            ({"aggregate": {"inner_limit": 20}}, [], "aggregate.inner_limit"),
            ({"explainer": {"min_leaf": 0}}, [], "explainer.min_leaf"),
            # past int32 row ids; 2**63 itself once overflowed numpy in the explain stage, after train had run
            ({"sampler": {"N": 2**63}}, [], "sampler.N must be in [2, 2147483647]"),
            ({"sampler": {"N": 2**31}}, [], "sampler.N must be in [2, 2147483647]"),
            ({"explainer": {"max_depth": -1}}, [], "explainer.max_depth"),
            # a ball's N samples fill at most N bins; 2**31 - 1 bins would exhaust memory in the explain stage
            ({"filter": {"max_bins": 201}}, [], "filter.max_bins 201 is above sampler.N 200"),
            ({}, ["--max-bins", "2147483647"], "filter.max_bins 2147483647 is above sampler.N 200"),
            # -1 continuous columns would run as none
            ({"dataset": {"path": "x.csv", "synth": None, "schema": {"m_cont": -1, "m_bin": 2}}}, [],
             "dataset.schema.m_cont must be nonnegative"),
            # the schema block replaces its null default whole, so its keys are checked on their own
            ({"dataset": {"path": "x.csv", "synth": None, "schema": {"m_cont": 2, "m_bin": 2, "m_cat": 1}}}, [],
             "unknown config key dataset.schema.m_cat"),
            # unbounded, these would build a schema of 10**23 feature names, or fit trees until memory ran out
            ({"dataset": {"synth": {"n": 16, "m_cont": 10**23, "m_bin": 2, "classes": 3, "relevant": [0]}}}, [],
             "dataset.synth.m_cont must be in [0, 2147483647]"),
            ({"blackbox": {"n_trees": 10**23}}, [], "blackbox.n_trees must be in [1, 2147483647]"),
        ],
        ids=["radius-not-sampled", "radius-too-wide", "variant-not-trained", "unknown-key", "min-leaf-zero",
             "samples-2**63", "samples-2**31",
             "negative-max-depth", "bins-above-samples", "bins-2**31-1", "negative-schema-width", "unknown-schema-key",
             "schema-width-past-int64", "trees-past-int64"],
    )
    def test_bad_config_exits_2_before_any_run_dir(self, tmp_path, capsys, extra, flags, match):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, small_config(out_dir, **extra))
        assert main(["sweep", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not list(tmp_path.rglob("run-*"))

    def test_max_bins_may_equal_the_sample_count(self, tmp_path):
        assert load_config(None, small_config(tmp_path, filter={"max_bins": 200}))["filter"]["max_bins"] == 200

    @pytest.mark.parametrize(
        "extra, match",
        [
            ({"sampler": {"N": "abc"}}, "sampler.N"),
            ({"blackbox": {"n_trees": None}}, "blackbox.n_trees"),
            ({"filter": {"max_bins": [3]}}, "filter.max_bins"),
            ({"aggregate": {"budgets": [1, "two"]}}, "aggregate.budgets"),
            ({"aggregate": {"budgets": 3}}, "aggregate.budgets"),
            ({"aggregate": {"floors": [0.5, {}]}}, "aggregate.floors"),
            ({"sampler": {"radii": ["wide"]}}, "sampler.radii"),
            ({"sampler": {"N": 1e400}}, "sampler.N"),
            ({"dataset": {"synth": {"n": 16, "m_cont": 2, "m_bin": 2, "classes": 3, "relevant": ["a"]}}},
             "dataset.synth.relevant"),
            ({"dataset": {"synth": {"n": 16, "m_cont": 2, "m_bin": 2, "classes": 3, "relevant": [9]}}},
             "relevant indices out of range"),
            ({"sampler": {"radii": [float("nan")]}}, "radius"),
            # a JSON boolean is not read as 0 or 1, nor a string or number as a boolean
            ({"aggregate": {"budgets": [True]}}, "aggregate.budgets must be an integer, got True"),
            ({"blackbox": {"n_trees": True}}, "blackbox.n_trees must be an integer, got True"),
            ({"sampler": {"radii": [False]}}, "sampler.radii must be a number, got False"),
            ({"dataset": {"standardize": "no"}}, "dataset.standardize must be true or false, got 'no'"),
            ({"aggregate": {"export_lp": "yes"}}, "aggregate.export_lp must be true or false, got 'yes'"),
            ({"aggregate": {"use_filtered": 1}}, "aggregate.use_filtered must be true, false or null, got 1"),
            ({"dataset": {"path": 1, "synth": None, "schema": {"m_cont": 2, "m_bin": 2}}}, "dataset.path must be a file path"),
        ],
        ids=["N-text", "n-trees-null", "max-bins-list", "budget-text", "budgets-scalar", "floor-object",
             "radius-text", "N-infinite", "relevant-text", "relevant-out-of-range", "radius-nan", "budget-true",
             "n-trees-true", "radius-false", "standardize-text", "export-lp-text", "use-filtered-number", "path-number"],
    )
    def test_non_numeric_value_exits_2_before_any_run_dir(self, tmp_path, capsys, extra, match):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, small_config(out_dir, **extra))
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not list(tmp_path.rglob("run-*"))

    @pytest.mark.parametrize(
        "extra, match",
        [
            ({"sampler": {"N": 50.9}}, "sampler.N"),
            ({"aggregate": {"budgets": [1, 2.5]}}, "aggregate.budgets"),
            ({"explainer": {"min_leaf": 1.5}}, "explainer.min_leaf"),
        ],
        ids=["N", "budget", "min-leaf"],
    )
    def test_fractional_integer_exits_2_before_any_run_dir(self, tmp_path, capsys, extra, match):
        # truncating would run N=50 under another config's run-* hash
        path = write_config(tmp_path, small_config(tmp_path / "runs", **extra))
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err and "must be an integer" in err
        assert not list(tmp_path.rglob("run-*"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", float("nan")], ids=["nan-text", "inf-text", "minus-inf-text", "nan"])
    def test_non_finite_eps_mi_exits_2_before_any_run_dir(self, tmp_path, capsys, value):
        # a NaN threshold never stops forward selection
        path = write_config(tmp_path, small_config(tmp_path / "runs", filter={"eps_mi": value}))
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "filter.eps_mi must be finite" in err
        assert not list(tmp_path.rglob("run-*"))

    def test_non_finite_eps_mi_flag_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path / "runs"))
        assert main(["explain", "--config", str(path), "--eps-mi", "nan"]) == 2
        assert "filter.eps_mi must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_rows_to_standardize_exits_2_before_any_run_dir(self, tmp_path, capsys, n):
        synth = {"n": n, "m_cont": 2, "m_bin": 2, "classes": 3, "relevant": [0, 2]}
        path = write_config(tmp_path, small_config(tmp_path / "runs", dataset={"synth": synth}))
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"dataset.standardize needs at least 2 rows, the dataset has {n}" in err
        assert not list(tmp_path.rglob("run-*"))

    def test_numeric_text_runs_as_its_number(self, tmp_path):
        # values given as numeric text or as integral floats are converted
        # once by `load_config`, max_depth included, and give the same run as
        # the numbers
        text = small_config(tmp_path / "text", sampler={"N": "200"}, explainer={"max_depth": "4", "min_leaf": 2.0})
        plain = small_config(tmp_path / "plain", explainer={"max_depth": 4})
        outputs, loaded = [], []
        for name, cfg in (("text", text), ("plain", plain)):
            path = write_config(tmp_path, cfg, f"{name}.json")
            assert main(["sweep", "--config", str(path)]) == 0
            run_cfg = load_config(str(path), {})
            outputs.append((run_dir_for(run_cfg) / "explainers.json").read_bytes())
            loaded.append({**run_cfg, "output_dir": ""})
        assert outputs[0] == outputs[1]
        assert loaded[0] == loaded[1]

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda out: [1], "the config must be a JSON object, got [1]"),
            (lambda out: small_config(out, dataset=5), "dataset must be a JSON object, got 5"),
            (lambda out: small_config(out, aggregate=None), "aggregate must be a JSON object, got None"),
            (lambda out: small_config(out, dataset={"synth": 5}), "dataset.synth must be a JSON object or null, got 5"),
            (lambda out: small_config(out, dataset={"path": "x.csv", "synth": None, "schema": 5}),
             "dataset.schema must be a JSON object or null, got 5"),
            (lambda out: {**small_config(out), "output_dir": None}, "output_dir must be a file path, got None"),
            (lambda out: {**small_config(out), "output_dir": 5}, "output_dir must be a file path, got 5"),
        ],
        ids=["top-level-list", "dataset-number", "aggregate-null", "synth-number", "schema-number", "output-dir-null",
             "output-dir-number"],
    )
    def test_non_object_section_or_path_exits_2_before_any_run_dir(self, tmp_path, capsys, monkeypatch, make, match):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, make(tmp_path / "runs"))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not list(tmp_path.rglob("run-*"))

    @pytest.mark.parametrize("source", ["config", "env"])
    @pytest.mark.parametrize("dataset", ["synth", "path"])
    def test_negative_seed_exits_2_before_any_run_dir(self, tmp_path, capsys, monkeypatch, source, dataset):
        # SeedSequence rejects it, after a path dataset's run directory is made
        extra = {"dataset": path_dataset(tmp_path)} if dataset == "path" else {}
        if source == "config":
            extra["seed"] = -1
        else:
            monkeypatch.setenv("AGGREX_SEED", "-5")
        path = write_config(tmp_path, small_config(tmp_path / "runs", **extra))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed must be nonnegative" in err
        assert not list(tmp_path.rglob("run-*"))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_value_for_any_key_exits_2_before_any_run_dir(self, tmp_path, capsys, data):
        key = data.draw(st.sampled_from(list(KEYS.values())), label="key")
        value = data.draw(st.sampled_from(wrong_values(key)), label="value")
        cfg = small_config(tmp_path / "runs")
        *sections, name = key.path.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.rglob("run-*"))

    def test_default_config_and_flags_are_pinned(self):
        # the run-<hash> stamp hashes the effective config, so a drift in the
        # table's defaults would rename every run directory
        digest = hashlib.sha256(canonical_json(DEFAULT_CONFIG).encode()).hexdigest()
        assert digest == "6dd9134ef18ab17577f75d1506f910cff65c68d43db1bbc472487461340faed2"
        options = {option for action in build_parser()._actions for option in action.option_strings}
        assert options - {"-h", "--help"} == {
            "--config", "--seed", "--output-dir", "--dataset-path", "--standardize", "--no-standardize", "--n-trees",
            "--samples", "--radii", "--max-bins", "--eps-mi", "--variant", "--max-depth", "--min-leaf", "--budgets",
            "--floors", "--solver", "--agg-radius", "--export-lp",
        }


class TestTrainStage:
    def test_model_file_reloadable_and_identical(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path))
        model_path = cmd_train(cfg)
        assert model_path.exists()
        model = load_model(model_path)
        from aggrex.cli import prepare_dataset

        data = prepare_dataset(cfg)
        again = load_model(model_path)
        assert np.array_equal(model.predict_batch(data.X), again.predict_batch(data.X))

    def test_n_trees_default_50(self):
        cfg = load_config(None, {"dataset": {"synth": {"n": 8, "m_cont": 2, "m_bin": 0, "classes": 2, "relevant": [0]}}})
        assert cfg["blackbox"]["n_trees"] == 50

    def test_rerun_byte_identical(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path))
        first = cmd_train(cfg).read_bytes()
        second = cmd_train(cfg).read_bytes()
        assert first == second

    def test_failed_model_write_leaves_no_outputs(self, tmp_path, monkeypatch):
        # dataset_used.csv and config.json were once renamed into place before the model was written
        cfg = load_config(None, small_config(tmp_path))

        def fails(model, path):
            path.write_text("half a model")
            raise OSError("disk full")

        monkeypatch.setattr(cli_module.bb, "save_model", fails)
        with pytest.raises(OSError, match="disk full"):
            cmd_train(cfg)
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]


class TestExplainStage:
    def test_record_counts_single_variant(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path))
        cmd_train(cfg)
        bundle_path = cmd_explain(cfg)
        bundle = json.loads(bundle_path.read_text())
        assert len(bundle["explainers"]) == 16  # one per point, one radius, filtered only

    def test_record_counts_both_variants_paired(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path, filter={"variant": "both"}))
        cmd_train(cfg)
        bundle = json.loads(cmd_explain(cfg).read_text())
        assert len(bundle["explainers"]) == 32
        by_center = {}
        for rec in bundle["explainers"]:
            by_center.setdefault(rec["center_index"], []).append(rec["filtered"])
        assert all(sorted(v) == [False, True] for v in by_center.values())

    def test_filtered_trees_split_only_on_their_selected_features(self, tmp_path):
        # the tiny benchmark workload's shape, both variants: each filtered tree is grown from its twin
        cfg = load_config(
            None,
            small_config(
                tmp_path,
                seed=99,
                dataset={"synth": {"n": 20, "m_cont": 3, "m_bin": 2, "classes": 3, "relevant": [0, 3]}},
                blackbox={"n_trees": 8},
                sampler={"N": 300, "radii": [1.5]},
                filter={"variant": "both"},
            ),
        )
        cmd_train(cfg)
        records = json.loads(cmd_explain(cfg).read_text())["explainers"]
        filtered = [rec for rec in records if rec["filtered"]]
        assert len(filtered) == 20
        for rec in filtered:
            split_on = {int(line.split()[3]) for line in rec["tree"] if " split " in line}
            assert split_on <= set(rec["selected_features"])
        assert any(len(rec["selected_features"]) < 5 and len(rec["tree"]) > 1 for rec in filtered)

    def test_bundle_fields(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path))
        cmd_train(cfg)
        bundle = json.loads(cmd_explain(cfg).read_text())
        rec = bundle["explainers"][0]
        assert {"center_index", "radius", "filtered", "selected_features", "leaf_count", "train_fidelity", "tree"} <= set(rec)

    def test_median_selected_features_small_on_planted_data(self, tmp_path):
        # labels depend on two binary features only, and the forest separates
        # them cleanly, so the filter keeps explainer feature sets small
        cfg = load_config(
            None,
            small_config(
                tmp_path,
                dataset={"synth": {"n": 40, "m_cont": 3, "m_bin": 3, "classes": 4, "relevant": [3, 5]}},
                blackbox={"n_trees": 10},
                sampler={"N": 500, "radii": [2.0]},
            ),
        )
        cmd_train(cfg)
        bundle = json.loads(cmd_explain(cfg).read_text())
        sizes = sorted(len(rec["selected_features"]) for rec in bundle["explainers"])
        assert sizes[len(sizes) // 2] <= 5

    def test_failed_stage_leaves_the_earlier_outputs(self, tmp_path, monkeypatch):
        cfg = load_config(None, small_config(tmp_path, filter={"variant": "both"}))
        cmd_train(cfg)
        cmd_explain(cfg)
        rd = run_dir_for(cfg)
        before = {name: (rd / name).read_bytes() for name in ("explainers.json", "explainers_rules.txt")}
        calls = []

        def fails_on_the_second_group(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("fit failed")
            return train_local_explainer(*args, **kwargs)

        # groups of four balls, each 4 features by 200 samples by 2 variants
        monkeypatch.setattr(tree_module, "GROUP_CELLS", 4 * 4 * 200 * 2)
        monkeypatch.setattr(cli_module, "train_local_explainer", fails_on_the_second_group)
        with pytest.raises(RuntimeError, match="fit failed"):
            cmd_explain(cfg)
        assert len(calls) == 2
        assert not list(rd.glob("*.tmp"))
        assert {name: (rd / name).read_bytes() for name in before} == before


class TestBundleWriter:
    @staticmethod
    def record(center, tree, features):
        return {
            "center_index": center,
            "radius": 1.5,
            "radius_slot": 0,
            "filtered": bool(features),
            "selected_features": list(features),
            "leaf_count": tree.leaf_count,
            "train_fidelity": 5 / 6,
            "tree": tree_to_lines(tree),
        }

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_streamed_frame_is_the_canonical_text(self, count):
        split, _ = tree_fit(np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]), np.array([0, 1, 1]), [0, 1], min_leaf=1)
        trees = [DecisionTree.leaf(3), split]  # a single-leaf tree, then one that splits
        records = [self.record(k, trees[k % 2], [] if k % 2 == 0 else [0, 1]) for k in range(count)]
        out = io.StringIO()
        _write_bundle(out, iter(records))
        assert out.getvalue() == canonical_json({"explainers": records})


class TestAggregateStage:
    def run_pipeline(self, tmp_path, **extra):
        cfg = load_config(None, small_config(tmp_path, **extra))
        cmd_train(cfg)
        cmd_explain(cfg)
        sweep_path = cmd_aggregate(cfg)
        return cfg, sweep_path

    def read_rows(self, sweep_path):
        lines = sweep_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    def test_sweep_monotone_and_dominance(self, tmp_path):
        cfg, sweep_path = self.run_pipeline(tmp_path)
        rows = self.read_rows(sweep_path)
        assert len(rows) == 3 * 2 * 2  # budgets x floors x solvers
        for phi in ("0.5", "0.9"):
            exact_by_k = [int(r["ip_coverage"]) for r in rows if r["solver"] == "exact" and r["phi"] == phi]
            assert exact_by_k == sorted(exact_by_k)
            for k in ("1", "2", "3"):
                exact = next(r for r in rows if r["solver"] == "exact" and r["phi"] == phi and r["K"] == k)
                greedy = next(r for r in rows if r["solver"] == "greedy" and r["phi"] == phi and r["K"] == k)
                assert int(exact["ip_coverage"]) >= int(greedy["ip_coverage"])

    def test_high_floor_rows_meet_floor(self, tmp_path):
        cfg, sweep_path = self.run_pipeline(tmp_path)
        for row in self.read_rows(sweep_path):
            if row["phi"] == "0.9" and row["min_fidelity"]:
                assert float(row["min_fidelity"]) >= 0.9

    def test_solution_json_reverifies(self, tmp_path):
        from aggrex.aggregate import build_pool, verify_solution, AggregateSolution
        from aggrex.cli import prepare_dataset, _load_bundle_explainers
        from aggrex.blackbox import load_model as load_bb

        cfg, sweep_path = self.run_pipeline(tmp_path)
        rd = run_dir_for(cfg)
        data = prepare_dataset(cfg)
        model = load_bb(rd / "model.txt")
        explainers = _load_bundle_explainers(cfg, data)
        pool = build_pool(data, explainers, model)
        for sol_file in sorted((rd / "solutions").glob("sol_*.json")):
            payload = json.loads(sol_file.read_text())
            sol = AggregateSolution(
                selected=tuple(payload["selected"]),
                z_assignment={int(i): tuple(js) for i, js in payload["z_assignment"].items()},
                ip_coverage=payload["ip_coverage"],
                ball_coverage=payload["ball_coverage"],
                ball_min_fidelity=payload["ball_min_fidelity"],
                claimed_min_fidelity=payload["claimed_min_fidelity"],
                status=payload["status"],
            )
            k = int(sol_file.name.split("_K")[1].split("_")[0])
            phi = float(sol_file.name.split("_phi")[1].rsplit("_", 1)[0])
            assert verify_solution(pool, k, phi, sol) == []

    def test_lp_export_flag(self, tmp_path):
        cfg, _ = self.run_pipeline(tmp_path, aggregate={"budgets": [2], "floors": [0.7], "solver": "exact", "export_lp": True})
        rd = run_dir_for(cfg)
        assert [p.name for p in (rd / "solutions").glob("*.lp*")] == ["model_K2_phi0.7.lp"]  # no .tmp left behind
        assert "solutions/model_K2_phi0.7.lp" in json.loads((rd / "manifest.json").read_text())["hashes"]

    def test_one_exact_search_per_floor(self, tmp_path):
        # the first exact call at each floor names every budget of the
        # sweep, and its one search serves the others; rows stay in config order
        from aggrex import aggregate

        aggregate_cfg = {"budgets": [2, 3, 1], "floors": [0.5, 0.9], "solver": "both"}
        with mock.patch.object(aggregate, "_extend_exact", wraps=aggregate._extend_exact) as search:
            cfg, sweep_path = self.run_pipeline(tmp_path, aggregate=aggregate_cfg)
        assert [call.args[2] for call in search.call_args_list] == [(1, 2, 3), (1, 2, 3)]
        rows = self.read_rows(sweep_path)
        assert [(r["phi"], r["K"], r["solver"]) for r in rows] == [
            (phi, k, solver) for phi in ("0.5", "0.9") for k in ("2", "3", "1") for solver in ("exact", "greedy")
        ]

    def test_failed_cell_writes_nothing(self, tmp_path, monkeypatch):
        cfg, _ = self.run_pipeline(tmp_path)
        rd = run_dir_for(cfg)
        # mark every output, so a rerun's bytes, which equal the first run's, would show where they land
        outputs = [rd / "sweep.csv", rd / "timings.csv", rd / "manifest.json", *(rd / "solutions").iterdir()]
        for path in outputs:
            path.write_bytes(b"earlier run\n" + path.read_bytes())
        before = {path: path.read_bytes() for path in rd.rglob("*") if path.is_file()}
        verify = cli_module.agg.verify_solution
        calls = []

        def flags_the_third_cell(*args):
            calls.append(1)
            return ["planted violation"] if len(calls) == 3 else verify(*args)

        monkeypatch.setattr(cli_module.agg, "verify_solution", flags_the_third_cell)
        with pytest.raises(RuntimeError, match="planted violation"):
            cmd_aggregate(cfg)
        assert len(calls) == 3
        assert not list(rd.rglob("*.tmp"))
        assert {path: path.read_bytes() for path in rd.rglob("*") if path.is_file()} == before

    def test_unfiltered_variant_aggregates_unfiltered(self, tmp_path):
        cfg, sweep_path = self.run_pipeline(tmp_path, filter={"variant": "unfiltered"})
        assert sweep_path.exists()
        assert len(self.read_rows(sweep_path)) == 3 * 2 * 2


class TestReportStage:
    def test_series_counts_and_monotone_x(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path))
        cmd_sweep(cfg)
        paths = cmd_report(cfg)
        rd = run_dir_for(cfg)
        cov = (rd / "report_ip_coverage.csv").read_text().strip().splitlines()
        header = cov[0].split(",")
        assert header[0] == "K"
        assert len(header) - 1 == 4  # 2 solvers x 2 floors
        ks = [int(ln.split(",")[0]) for ln in cov[1:]]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)

    def test_regeneration_identical_bytes(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path))
        cmd_sweep(cfg)
        cmd_report(cfg)
        rd = run_dir_for(cfg)
        first = (rd / "report_ip_coverage.csv").read_bytes()
        cmd_report(cfg)
        assert (rd / "report_ip_coverage.csv").read_bytes() == first

    def test_missing_sweep_reports_absent_file(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path))
        with pytest.raises(ConfigError, match="missing inputs"):
            cmd_report(cfg)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("a,b,c\n1,2,3\n", "first line is not the header"),
            (SWEEP_HEADER + "\nx,0.5,exact,1,1,1,1,optimal,1\n", "line 2 has K 'x', not an integer"),
            ("", "first line is not the header"),
            (SWEEP_HEADER[:20] + "\n", "first line is not the header"),
            (SWEEP_HEADER + "\n1,0.5,exact\n", "line 2 has 3 fields, not 9"),
        ],
        ids=["foreign-header", "non-integer-K", "empty", "truncated-header", "short-row"],
    )
    def test_corrupt_sweep_exits_2_without_reports(self, tmp_path, capsys, text, match):
        path = write_config(tmp_path, small_config(tmp_path))
        rd = run_dir_for(load_config(str(path), {}))
        rd.mkdir(parents=True)
        (rd / "sweep.csv").write_text(text, encoding="utf-8")
        assert main(["report", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(rd / "sweep.csv") in err and match in err
        assert not list(rd.glob("report_*.csv"))


class TestCsvDatasetPath:
    def test_pipeline_from_csv_file(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path, dataset=path_dataset(tmp_path)))
        cmd_train(cfg)
        cmd_explain(cfg)
        sweep_path = cmd_aggregate(cfg)
        assert sweep_path.exists()
        rows = sweep_path.read_text().strip().splitlines()[1:]
        assert len(rows) == 3 * 2 * 2

    @pytest.mark.parametrize(
        "text, match",
        [
            ("a,b,c,label\n0.5,abc,1.0,0\n", "row 1: could not convert string to float"),
            (None, "No such file or directory"),
            ("a,b,label\n0.5,1.0,0\n", "file has 2 feature columns, schema expects 3"),
            ("a,b,c,label\n\xff,1.0,1.0,0\n", "can't decode byte 0xff"),
            ("a,b,c,label\n0.5,1.0,1.0,0\n0.5,nan,1.0,1\n", "row 2: column 'b' holds nan, not a finite number"),
            ("a,b,c,label\n0.5,1.0,-inf,0\n", "row 1: column 'c' holds -inf, not a finite number"),
            (
                "a,b,c,label\n0.5,1.0,1.0,0\n0.5,1.0,1.0,99999999999999999999999\n",
                "row 2: label '99999999999999999999999' is outside int64",
            ),
        ],
        ids=["bad-cell", "missing-file", "too-few-columns", "not-utf8", "nan-cell", "inf-cell", "label-past-int64"],
    )
    def test_bad_dataset_file_exits_2_before_any_run_dir(self, tmp_path, capsys, text, match):
        csv_path = tmp_path / "points.csv"
        if text is not None:
            csv_path.write_text(text, encoding="latin-1")
        dataset = {"path": str(csv_path), "synth": None, "schema": {"m_cont": 3, "m_bin": 0}}
        path = write_config(tmp_path, small_config(tmp_path / "runs", dataset=dataset))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dataset.path" in err and match in err
        assert not list(tmp_path.rglob("run-*"))

    def test_ball_overflowing_at_a_center_exits_2_before_any_run_dir(self, tmp_path, capsys):
        # a finite value near the float maximum: its ball's width (c + r) - (c - r) overflows, which
        # the radius alone (a ball at 0) does not show
        rows = [f"{1.7e308 if i == 3 else i * 0.5},{i * 0.1},{i % 2},{i % 3}" for i in range(30)]
        csv_path = tmp_path / "points.csv"
        csv_path.write_text("a,b,c,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        dataset = {"path": str(csv_path), "synth": None, "standardize": False, "schema": {"m_cont": 2, "m_bin": 1}}
        path = write_config(tmp_path, small_config(tmp_path / "runs", dataset=dataset, sampler={"radii": [1e307]}))
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "sampler.radii: radius 1e+307" in err and "around center 3" in err
        assert not list(tmp_path.rglob("run-*"))

    def test_path_without_schema_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="schema"):
            load_config(
                None,
                small_config(tmp_path, dataset={"path": "x.csv", "synth": None}),
            )


class TestManifest:
    def test_manifest_tracks_stage_outputs(self, tmp_path):
        cfg = load_config(None, small_config(tmp_path))
        cmd_sweep(cfg)
        rd = run_dir_for(cfg)
        manifest = json.loads((rd / "manifest.json").read_text())
        assert {"train", "explain", "aggregate"} <= set(manifest["stages"])
        assert "model.txt" in manifest["hashes"]
        assert "sweep.csv" in manifest["hashes"]
        # the solution files hold no wall time, so timings.csv is the one output left unhashed
        assert manifest["unhashed"] == ["timings.csv"]
        solutions = sorted(f"solutions/{p.name}" for p in (rd / "solutions").glob("sol_*.json"))
        assert len(solutions) == 3 * 2 * 2
        assert manifest["stages"]["aggregate"]["outputs"] == sorted(["sweep.csv", "timings.csv", *solutions])
        assert set(manifest["hashes"]) == {
            "config.json", "dataset_used.csv", "model.txt", "explainers.json", "explainers_rules.txt", "sweep.csv",
            *solutions,
        }
        for name, digest in manifest["hashes"].items():
            assert hashlib.sha256((rd / name).read_bytes()).hexdigest() == digest, name
        assert manifest["seed"] == cfg["seed"]

    def test_corrupt_manifest_exits_2_leaving_the_run_as_it_was(self, tmp_path, capsys):
        # each once ended in a traceback after the stage's outputs were renamed, or was merged as it stood
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        rd = run_dir_for(load_config(str(path), {}))
        cases = [
            (b'{"stages": [', "Expecting"),
            (b"[]", "it is not a JSON object"),
            (b'{"stages": []}', "stages is not a JSON object"),
            (b'{"hashes": {"model.txt": 5}}', "hashes is not an object of digests"),
            (b'{"unhashed": "timings.csv"}', "unhashed is not a list of names"),
            (b"\xff", "can't decode byte 0xff"),
        ]
        for stage in ("explain", "aggregate"):
            for text, match in cases:
                (rd / "manifest.json").write_bytes(text)
                before = {p: p.read_bytes() for p in rd.rglob("*") if p.is_file()}
                capsys.readouterr()
                assert main([stage, "--config", str(path)]) == 2, (stage, text)
                err = capsys.readouterr().err
                assert f"config error: corrupt manifest {rd / 'manifest.json'}: " in err and match in err
                assert {p: p.read_bytes() for p in rd.rglob("*") if p.is_file()} == before

    def test_next_stage_writes_the_runs_own_header(self, tmp_path):
        # a header edited behind the run (here a NaN seed, which strict JSON has no word for) was once kept as found
        cfg = load_config(None, small_config(tmp_path))
        cmd_sweep(cfg)
        rd = run_dir_for(cfg)
        clean = (rd / "manifest.json").read_bytes()
        (rd / "manifest.json").write_text(
            json.dumps({**json.loads(clean), "seed": float("nan"), "run_id": "run-elsewhere", "config": {"seed": 1}})
        )
        cmd_aggregate(cfg)
        assert (rd / "manifest.json").read_bytes() == clean

    def test_run_dir_depends_on_config(self, tmp_path):
        cfg_a = load_config(None, small_config(tmp_path))
        cfg_b = load_config(None, small_config(tmp_path, seed=12))
        assert run_dir_for(cfg_a) != run_dir_for(cfg_b)


class TestCorruptInputs:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda lines: lines[:-2],
            lambda lines: [lines[0], "node 0 split -1 0.5", *lines[2:]],
            # these two once ended in an OverflowError traceback (exit 1)
            lambda lines: [lines[0], "node 0 split 100000000000000000000000 0.5", *lines[2:]],
            lambda lines: [re.sub(r"leaf \d+$", "leaf 100000000000000000000000", line) for line in lines],
        ],
        ids=["truncated", "negative-feature", "feature-past-int64", "label-past-int64"],
    )
    def test_corrupt_model_exits_2(self, tmp_path, capsys, corrupt):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["train", "--config", str(path)]) == 0
        model_path = run_dir_for(load_config(str(path), {})) / "model.txt"
        model_path.write_text("\n".join(corrupt(model_path.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert main(["explain", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "model.txt" in err
        assert main(["aggregate", "--config", str(path)]) == 2

    def test_corrupt_bundle_tree_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        bundle_path = run_dir_for(load_config(str(path), {})) / "explainers.json"
        bundle = json.loads(bundle_path.read_text())
        tree = next(rec["tree"] for rec in bundle["explainers"] if len(rec["tree"]) > 1)
        del tree[-1]
        bundle_path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["aggregate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explainers.json" in err and "truncated" in err

    def test_truncated_bundle_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        bundle_path = run_dir_for(load_config(str(path), {})) / "explainers.json"
        text = bundle_path.read_text()
        bundle_path.write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert main(["aggregate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explainers.json" in err

    def test_bundle_record_without_train_fidelity_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        bundle_path = run_dir_for(load_config(str(path), {})) / "explainers.json"
        bundle = json.loads(bundle_path.read_text())
        del bundle["explainers"][3]["train_fidelity"]
        bundle_path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["aggregate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explainers.json" in err and "train_fidelity" in err

    @pytest.mark.parametrize("stage", ["explain", "aggregate"])
    def test_model_wider_than_dataset_exits_2(self, tmp_path, capsys, stage):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        model_path = run_dir_for(load_config(str(path), {})) / "model.txt"
        lines = model_path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if " split " in line)
        node, _, _, threshold = lines[at].rsplit(" ", 3)
        lines[at] = f"{node} split 4 {threshold}"  # the dataset has features 0..3
        model_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([stage, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "model.txt" in err and "feature 4" in err

    def test_bundle_tree_wider_than_dataset_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        bundle_path = run_dir_for(load_config(str(path), {})) / "explainers.json"
        bundle = json.loads(bundle_path.read_text())
        for rec in bundle["explainers"]:
            rec["tree"] = ["node 0 split 9 0.5", "node 1 leaf 0", "node 2 leaf 1"]  # the dataset has features 0..3
        bundle_path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["aggregate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explainers.json" in err and "feature 9" in err

    @pytest.mark.parametrize("center_index", [-1, 16])
    def test_bundle_center_index_outside_the_dataset_exits_2(self, tmp_path, capsys, center_index):
        # -1 once picked the dataset's last row and left center 0 without an explainer (KeyError, exit 1)
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        bundle_path = run_dir_for(load_config(str(path), {})) / "explainers.json"
        bundle = json.loads(bundle_path.read_text())
        bundle["explainers"][0]["center_index"] = center_index  # the dataset has points 0..15
        bundle_path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["aggregate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explainers.json" in err and f"center_index {center_index}" in err

    @pytest.mark.parametrize("center_index", [float("inf"), 1.5, "3", True])
    def test_bundle_center_index_not_an_integer_exits_2(self, tmp_path, capsys, center_index):
        # Infinity once ended in an OverflowError traceback, and 1.5 was read as 1
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        bundle_path = run_dir_for(load_config(str(path), {})) / "explainers.json"
        bundle = json.loads(bundle_path.read_text())
        bundle["explainers"][1]["center_index"] = center_index
        bundle_path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["aggregate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explainers.json" in err
        assert f"center_index {center_index!r}, not an integer" in err

    @pytest.mark.parametrize(
        "tree, match",
        [
            (["node 0 leaf 100000000000000000000000"], "leaf label outside int64"),
            (["node 0 split 9223372036854775808 0.5", "node 1 leaf 0", "node 2 leaf 1"], "split feature outside int64"),
            ([0], "record 0 is not a string"),
            (["node 0 split 0 0.5", "node 1 leaf x", "node 2 leaf 1"], "invalid literal for int()"),
        ],
        ids=["label-past-int64", "feature-past-int64", "not-a-string", "malformed"],
    )
    def test_bundle_tree_outside_the_tree_arrays_exits_2(self, tmp_path, capsys, tree, match):
        # the first three once ended in an OverflowError or AttributeError traceback (exit 1)
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        bundle_path = run_dir_for(load_config(str(path), {})) / "explainers.json"
        bundle = json.loads(bundle_path.read_text())
        bundle["explainers"][2]["tree"] = tree
        bundle_path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["aggregate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explainers.json" in err and match in err

    def test_trailing_bundle_record_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        bundle_path = run_dir_for(load_config(str(path), {})) / "explainers.json"
        bundle = json.loads(bundle_path.read_text())
        tree = bundle["explainers"][0]["tree"]
        tree.append(f"node {len(tree)} leaf 12345")
        bundle_path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["aggregate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explainers.json" in err and "trailing" in err


# A mutation swaps one token of an input for one of these: NaN, an infinity, an integer past int64, or a
# value of another JSON type (a string literal is swapped only for a value that is not a string).
REPLACEMENTS = [b"NaN", b"Infinity", b"-Infinity", b"100000000000000000000000", b"null", b"true", b"[]", b'"x"']
JSON_TOKEN = re.compile(rb'"[^"\n]*"|[\w.+-]+')  # a string literal whole, or a number or a literal
FIELD = re.compile(rb'[^\s,"]+')  # a field of a text file, or a word of a multi-word JSON string


def swappable_spans(data: bytes, is_json: bool) -> list[tuple[int, int]]:
    """The spans of data a mutation may swap."""
    if not is_json:
        return [m.span() for m in FIELD.finditer(data)]
    spans = []
    for m in JSON_TOKEN.finditer(data):
        spans.append(m.span())
        if m.group().startswith(b'"') and b" " in m.group():  # a tree record: each of its words too
            spans += [(m.start() + w.start(), m.start() + w.end()) for w in FIELD.finditer(m.group())]
    return spans


@st.composite
def mutated(draw, data: bytes, is_json: bool) -> bytes:
    """data truncated at a byte, with a line deleted or duplicated, or with one token swapped."""
    kind = draw(st.sampled_from(["truncate", "delete", "duplicate", "swap"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    lines = data.splitlines(keepends=True)
    if kind != "swap":
        i = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[:i] + lines[i + (kind == "delete"):])
    start, end = draw(st.sampled_from(swappable_spans(data, is_json)))
    string = data[start:start + 1] == b'"'
    new = draw(st.sampled_from([r for r in REPLACEMENTS if not (string and r.startswith(b'"'))]))
    return data[:start] + new + data[end:]


def inputs_and_runs(work) -> dict:
    """The bytes of a work directory's config and dataset files and of every file under its runs/."""
    paths = [work / "config.json", work / "points.csv", *(work / "runs").rglob("*")]
    return {path: path.read_bytes() for path in paths if path.is_file()}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A tiny run taken through every stage from a dataset CSV, with paths relative to its work directory.

    Returns the work directory, the run directory and inputs_and_runs of the work directory.
    """
    work = tmp_path_factory.mktemp("finished")
    synth = DETERMINISM_CONFIG["dataset"]["synth"]
    write_dataset(synth_multiclass(seed=DETERMINISM_CONFIG["seed"], **synth), work / "points.csv")
    schema = {"m_cont": synth["m_cont"], "m_bin": synth["m_bin"]}
    cfg = {**DETERMINISM_CONFIG, "dataset": {"path": "points.csv", "synth": None, "schema": schema}}
    (work / "config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for stage in ("train", "explain", "aggregate", "report"):
            assert main([stage, "--config", "config.json"]) == 0
        rd = work / run_dir_for(load_config("config.json", {}))
    return work, rd, inputs_and_runs(work)


class TestMutatedInputs:
    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_next_stage_exits_0_or_2_and_commits_all_or_nothing(self, finished_run, monkeypatch, data):
        work, rd, files = finished_run
        monkeypatch.chdir(work)  # the config names its dataset and output_dir relative to it
        shutil.rmtree(work / "runs")
        for path, content in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        stages = {"config.json": ["train"], "points.csv": ["train"], "model.txt": ["explain"],
                  "explainers.json": ["aggregate"], "manifest.json": ["train", "explain", "aggregate", "report"]}
        name = data.draw(st.sampled_from(sorted(stages)), label="input")
        stage = data.draw(st.sampled_from(stages[name]), label="stage")
        path = work / name if name in ("config.json", "points.csv") else rd / name
        path.write_bytes(data.draw(mutated(files[path], name.endswith(".json")), label="mutated"))
        before = inputs_and_runs(work)
        code = main([stage, "--config", "config.json"])
        assert code in (0, 2)
        assert not list(work.rglob("*.tmp"))
        if code == 2:
            assert inputs_and_runs(work) == before  # every run directory as it was, and no new one
        for manifest in (work / "runs").glob("run-*/manifest.json"):
            if manifest == path and code == 2:
                continue  # still the mutated bytes
            for output, digest in json.loads(manifest.read_text(encoding="utf-8"))["hashes"].items():
                if manifest.parent / output != path:  # the mutated file changed behind its manifest's back
                    assert hashlib.sha256((manifest.parent / output).read_bytes()).hexdigest() == digest, output


class TestExplainMemory:
    # The explain stage's traced peak on the benchmark's protocol-sized config was 2.3 MB before
    # explainer trees were grown a group at a time, and 1.72 MB with groups of 3 << 13 cells while the
    # stage held every finished record until it ended. Records now go to disk a group at a time, and
    # groups of 3 << 14 cells read 1.69 MB; the cap leaves 15%.
    PEAK_CAP_MB = 2.0

    @staticmethod
    def explain_peak(tmp_path, n, n_trees=25, variant="filtered"):
        """The traced peak of the explain stage, in bytes, at the protocol shape with n centers."""
        cfg = load_config(
            None,
            {
                "seed": 2026,
                "output_dir": str(tmp_path),
                "dataset": {"synth": {"n": n, "m_cont": 4, "m_bin": 2, "classes": 5, "relevant": [0, 1, 4]}},
                "blackbox": {"n_trees": n_trees},
                "sampler": {"N": 600, "radii": [1.2]},
                "filter": {"variant": variant},
            },
        )
        cmd_train(cfg)
        cmd_explain(cfg)  # once untraced, so first-call caches do not count
        tracemalloc.start()
        try:
            cmd_explain(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_explain_stage_peak_is_capped(self, tmp_path):
        assert self.explain_peak(tmp_path, 60) / 1e6 <= self.PEAK_CAP_MB

    def test_explain_stage_peak_with_both_variants_is_capped(self, tmp_path):
        # A group holds as many balls with both variants as with one: its unfiltered trees fill the same
        # cells, and the grafts onto them are smaller. This reads 1.70 MB (1.40 MB when both variants
        # counted against the cells, so that groups held half as many balls).
        assert self.explain_peak(tmp_path, 60, variant="both") / 1e6 <= self.PEAK_CAP_MB

    def test_explain_stage_peak_does_not_grow_with_the_center_count(self, tmp_path):
        # Both runs are of full groups (6 features by 600 samples a ball), two and four of them. A small
        # forest keeps the model's own growth with the data (its compiled tables, +0.07 MB from 52 to 104
        # centers at 25 trees) out of the difference. Holding every finished record until the stage ended
        # read +0.40 MB here; streaming them reads +0.03 MB.
        per_group = tree_module.GROUP_CELLS // (6 * 600)
        small, large = (self.explain_peak(tmp_path, k * per_group, n_trees=5) for k in (2, 4))
        assert large <= small + 0.1e6


class TestMainEntry:
    def test_full_sweep_via_main(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", str(path)]) == 0
        assert main(["report", "--config", str(path)]) == 0

    def test_flag_overrides_reach_pipeline(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["train", "--config", str(path), "--n-trees", "3"]) == 0
        cfg = load_config(str(path), {"blackbox": {"n_trees": 3}})
        model = load_model(run_dir_for(cfg) / "model.txt")
        assert len(model.trees) == 3
