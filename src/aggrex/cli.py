"""Pipeline CLI: train, explain, aggregate, sweep (those three in order), report.

Every stage is deterministic given the config: randomness flows from one
root seed (env var AGGREX_SEED overrides the config value), and outputs
land in a run directory stamped with a hash of the effective config
rather than a timestamp. Each stage writes through one writer,
`_stage_outputs`: its outputs go to `.tmp` files, its manifest entry
hashes them as written, and all of them, then the manifest, are renamed
into place in one commit when the stage ends, so a failed stage leaves
the run directory as it was. The aggregate stage times each solve itself
and keeps those wall times out of sweep.csv and the solution files: they
land in timings.csv, the one output the manifest lists but does not
hash, so reruns are byte-identical.

Exit codes: 0 success, 2 config error (a bad config, or an input file or
manifest that does not parse).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import aggregate as agg
from . import blackbox as bb
from .data import Dataset, FeatureSchema, load_dataset, standardize, synth_multiclass, write_dataset
from .explainer import LocalExplainer, explainer_groups, label_ball, train_local_explainer
from .sampler import derive_seed
from .tree import tree_from_lines, tree_to_lines, tree_to_rules

SEED_ENV_VAR = "AGGREX_SEED"
# sweep.csv's first line, which the report stage checks before it reads a row
SWEEP_HEADER = "K,phi,solver,ip_coverage,ball_coverage,min_fidelity,ball_min_fidelity,status,nodes_explored"


class ConfigError(ValueError):
    pass


class Key(NamedTuple):
    """One config key: its dotted path, its default, its flag, and the values it takes.

    `kind` is int, float, bool, str (a file path), dict (a JSON object whose
    own keys `validate_config` checks) or a tuple of the words allowed. A
    number must be finite and lie in [lo, hi], where those are given. With
    `each`, the key holds a non-empty list of such values, each called
    `each` in messages.
    """

    path: str
    default: object
    flag: str | None
    kind: object
    lo: float | None = None
    hi: float | None = None
    null: bool = False
    each: str | None = None

    def check(self, value):
        """value as this key's kind, or a ConfigError naming the key.

        Numeric text and integral floats become the numbers they state. An
        integer key rejects a fractional number rather than truncate it,
        and a numeric key rejects a JSON boolean rather than read it as 0 or
        1, so that a config runs only as the values it states.
        """
        if value is None and self.null:
            return None
        if self.each is None:
            return self._one(value, self.path)
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{self.path} must be a non-empty list, got {value!r}")
        return [self._one(v, f"every {self.each} in {self.path}") for v in value]

    def _one(self, value, name: str):
        kind = self.kind
        if kind is int or kind is float:
            try:
                if isinstance(value, bool):
                    raise ValueError
                out = kind(value)
                if kind is int and isinstance(value, float) and out != value:
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                raise self._wrong_kind(value) from None
            if kind is float and not math.isfinite(out):
                raise ConfigError(f"{name} must be finite, got {out!r}")
            if self.hi is not None and out > self.hi:
                raise ConfigError(f"{name} must be in [{self.lo}, {self.hi}], got {out!r}")
            if self.lo is not None and out < self.lo:
                rule = "nonnegative" if self.lo == 0 else f"at least {self.lo}"
                raise ConfigError(f"{name} must be {rule}, got {out!r}")
            return out
        if not (value in kind if isinstance(kind, tuple) else isinstance(value, kind)):
            raise self._wrong_kind(value)
        return value

    def _wrong_kind(self, value) -> ConfigError:
        nouns = {int: ("an integer",), float: ("a number",), bool: ("true", "false"), str: ("a file path",),
                 dict: ("a JSON object",)}
        *rest, last = (self.kind if isinstance(self.kind, tuple) else nouns[self.kind]) + ("null",) * self.null
        return ConfigError(f"{self.path} must be {', '.join(rest) + ' or ' if rest else ''}{last}, got {value!r}")


# Every config key, once. DEFAULT_CONFIG, the checks of load_config, the
# command-line flags and their overrides are all read from this table.
KEYS = {
    key.path: key
    for key in (
        Key("seed", 0, "--seed", int, lo=0),
        Key("dataset.path", None, "--dataset-path", str, null=True),
        Key("dataset.standardize", True, "--standardize", bool),
        Key("dataset.synth", {"n": 60, "m_cont": 4, "m_bin": 2, "classes": 5, "relevant": [0, 1, 4]}, None, dict,
            null=True),
        Key("dataset.schema", None, None, dict, null=True),  # for path datasets: {"m_cont": int, "m_bin": int}
        # Counts stop at 2**31 - 1, so an integer past int64 is a config error, not a fit that runs until
        # memory is gone. The tree fit holds sample row ids, and the filter bin indices, as int32.
        Key("blackbox.n_trees", 50, "--n-trees", int, lo=1, hi=2**31 - 1),
        Key("sampler.N", 10000, "--samples", int, lo=2, hi=2**31 - 1),
        Key("sampler.radii", [3.0, 7.0, 11.0, 15.0], "--radii", float, lo=0, each="radius"),
        Key("filter.max_bins", 3, "--max-bins", int, lo=2, hi=2**31 - 1),
        Key("filter.eps_mi", 1e-9, "--eps-mi", float),
        Key("filter.variant", "both", "--variant", ("filtered", "unfiltered", "both")),
        Key("explainer.max_depth", 12, "--max-depth", int, lo=0, null=True),
        Key("explainer.min_leaf", 2, "--min-leaf", int, lo=1),
        Key("aggregate.budgets", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "--budgets", int, lo=0, each="budget"),
        Key("aggregate.floors", [0.5, 0.7, 0.9], "--floors", float, lo=0, hi=1, each="fidelity floor"),
        Key("aggregate.solver", "both", "--solver", ("exact", "greedy", "both")),
        Key("aggregate.radius", None, "--agg-radius", float, null=True),  # default: first sampler radius
        Key("aggregate.use_filtered", None, None, bool, null=True),  # default: filtered when the variant produced any
        Key("aggregate.export_lp", False, "--export-lp", bool),
        Key("output_dir", "runs", "--output-dir", str),
    )
}


def _slot(cfg: dict, path: str) -> tuple[dict, str]:
    """(the dict holding a dotted path's value, the value's name there), making missing sections."""
    *sections, name = path.split(".")
    for section in sections:
        cfg = cfg.setdefault(section, {})
    return cfg, name


def _nested(pairs) -> dict:
    """(dotted path, value) pairs as nested dicts."""
    out: dict = {}
    for path, value in pairs:
        node, name = _slot(out, path)
        node[name] = value
    return out


DEFAULT_CONFIG = _nested((path, key.default) for path, key in KEYS.items())


def _deep_merge(base: dict, override, prefix: str = "") -> dict:
    """base with override's values in its place, section by section; override may hold only base's keys.

    Where base holds a section, override must hold a JSON object; a key
    whose value is an object (dataset.synth) may be replaced whole.
    """
    if not isinstance(override, dict):
        raise ConfigError(f"{prefix[:-1] or 'the config'} must be a JSON object, got {override!r}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        path = prefix + key
        if key not in out:
            raise ConfigError(f"unknown config key {path}")
        if isinstance(out.get(key), dict) and (isinstance(value, dict) or path not in KEYS):
            out[key] = _deep_merge(out[key], value, path + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    """DEFAULT_CONFIG merged with the file at path, then with overrides, checked, each value of its key's kind."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # missing or unreadable, undecodable bytes, or not JSON
            raise ConfigError(f"config file {path}: {exc}") from None
        cfg = _deep_merge(cfg, loaded)
    cfg = _deep_merge(cfg, overrides)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Check cfg and convert each value to its key's kind, in place.

    Each key's own rule is its row in KEYS. The rules that span keys, and
    those of the dataset block in use, follow here as plain code.
    """
    for path, key in KEYS.items():
        node, name = _slot(cfg, path)
        node[name] = key.check(node[name])
    if cfg["filter"]["max_bins"] > cfg["sampler"]["N"]:  # more bins than samples leaves bins empty in every ball
        raise ConfigError(
            f"filter.max_bins {cfg['filter']['max_bins']} is above sampler.N {cfg['sampler']['N']}: "
            "a ball's samples cannot fill more bins than there are samples"
        )
    radii = cfg["sampler"]["radii"]
    too_wide = [r for r in radii if not math.isfinite(r + r)]  # the ball's width c + r - (c - r) at c = 0
    if too_wide:
        raise ConfigError(f"sampler.radii: radius {too_wide[0]!r} gives a ball wider than the largest float")
    radius, filtered = _aggregated_slice(cfg)
    if radius not in radii:
        raise ConfigError(f"aggregate.radius {radius} is not one of sampler.radii")
    if filtered not in _variants(cfg):
        kind = "filtered" if filtered else "unfiltered"
        raise ConfigError(
            f"aggregate.use_filtered wants {kind} explainers, which filter.variant "
            f"{cfg['filter']['variant']!r} does not train"
        )
    ds = cfg["dataset"]
    if ds["path"] is None and ds["synth"] is None:
        raise ConfigError("dataset needs either a path or a synth block")
    if ds["path"] is not None and ds["schema"] is None:
        raise ConfigError("path datasets need dataset.schema = {m_cont, m_bin}")
    if ds["schema"] is not None:
        unknown = [name for name in ds["schema"] if name not in ("m_cont", "m_bin")]
        if unknown:
            raise ConfigError(f"unknown config key dataset.schema.{unknown[0]}")
    block = "schema" if ds["path"] is not None else "synth"
    sub = ds[block]
    for name in ("m_cont", "m_bin") if block == "schema" else ("n", "m_cont", "m_bin", "classes"):
        sub[name] = Key(f"dataset.{block}.{name}", None, None, int, lo=0, hi=2**31 - 1).check(sub.get(name))
    if block == "synth":
        sub["relevant"] = Key("dataset.synth.relevant", None, None, int, each="index").check(sub.get("relevant"))


def canonical_json(obj) -> str:
    """The canonical JSON text of obj: 2-space indent, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def run_dir_for(cfg: dict) -> Path:
    stamp = hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:12]
    return Path(cfg["output_dir"]) / f"run-{stamp}"


@contextmanager
def _stage_outputs(cfg: dict, stage: str, *names: str, unhashed=()):
    """A `.tmp` path for each output, named by its path in the run directory (the unhashed ones last), to write.

    When the block ends, the stage is committed: its manifest entry lists
    its outputs with the digest of each hashed one, read from its `.tmp`
    file, and every `.tmp` is renamed onto its output, manifest.json last.
    The manifest is read before the block runs, and a corrupt one is a
    ConfigError. If anything raises, every `.tmp` file is removed instead,
    so the run directory keeps all of its earlier bytes.
    """
    rd = run_dir_for(cfg)
    paths = [rd / name for name in (*names, *unhashed, "manifest.json")]
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    manifest = {"stages": {}, "hashes": {}, "unhashed": []}
    try:  # the manifest so far, checked before the block runs
        recorded = json.loads(paths[-1].read_text(encoding="utf-8")) if paths[-1].exists() else {}
        if not isinstance(recorded, dict):
            raise ValueError("it is not a JSON object")
        manifest.update(recorded)
        if not isinstance(manifest["stages"], dict):
            raise ValueError("stages is not a JSON object")
        if not isinstance(manifest["hashes"], dict) or not all(isinstance(v, str) for v in manifest["hashes"].values()):
            raise ValueError("hashes is not an object of digests")
        if not isinstance(manifest["unhashed"], list) or not all(isinstance(v, str) for v in manifest["unhashed"]):
            raise ValueError("unhashed is not a list of names")
    except ValueError as exc:  # JSONDecodeError and undecodable bytes are ValueErrors
        raise ConfigError(f"corrupt manifest {paths[-1]}: {exc}") from None
    # the header is the run's own, not what was recorded: the directory's name is a hash of this config
    manifest.update(run_id=rd.name, seed=cfg["seed"], standardized=cfg["dataset"]["standardize"], config=cfg)
    try:
        for parent in dict.fromkeys(path.parent for path in paths):
            parent.mkdir(parents=True, exist_ok=True)
        yield tmps[:-1]
        manifest["stages"][stage] = {"outputs": sorted({*names, *unhashed})}
        for name, tmp in zip(names, tmps):
            manifest["hashes"][name] = hashlib.sha256(tmp.read_bytes()).hexdigest()
        manifest["unhashed"] = sorted({*manifest["unhashed"], *unhashed})
        tmps[-1].write_bytes(canonical_json(manifest).encode())
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, path in zip(tmps, paths):
        os.replace(tmp, path)


def _write_bundle(fh, records) -> None:
    """Write canonical_json({"explainers": records}) to fh a record at a time, as records are drawn.

    Each record's own canonical text is indented by four more spaces, which
    shifts only its line starts: no JSON string holds a raw newline.
    """
    fh.write('{\n  "explainers": [')
    empty = True
    for rec in records:
        fh.write(("\n    " if empty else ",\n    ") + canonical_json(rec)[:-1].replace("\n", "\n    "))
        empty = False
    fh.write("]\n}\n" if empty else "\n  ]\n}\n")


def prepare_dataset(cfg: dict) -> Dataset:
    ds = cfg["dataset"]
    if ds["path"] is not None:
        sch = ds["schema"]
        try:
            data = load_dataset(ds["path"], FeatureSchema.mixed(sch["m_cont"], sch["m_bin"]))
        except (ValueError, OSError) as exc:  # ParseError, SchemaViolation and undecodable bytes are ValueErrors
            raise ConfigError(f"dataset.path {ds['path']}: {exc}")
    else:
        try:
            data = synth_multiclass(seed=cfg["seed"], **ds["synth"])  # n, m_cont, m_bin, classes, relevant
        except ValueError as exc:
            raise ConfigError(f"dataset.synth: {exc}")
    if ds["standardize"]:
        if data.n < 2:
            raise ConfigError(f"dataset.standardize needs at least 2 rows, the dataset has {data.n}")
        data = standardize(data)
    cont = data.X[:, data.schema.continuous_idx]
    for radius in cfg["sampler"]["radii"]:
        with np.errstate(over="ignore", invalid="ignore"):
            wide = ~np.isfinite((cont + radius) - (cont - radius))  # each ball's width, as `sample_ball` draws it
        if wide.any():
            row = int(np.flatnonzero(wide.any(axis=1))[0])
            raise ConfigError(
                f"sampler.radii: radius {radius!r} gives a ball wider than the largest float around center {row}"
            )
    return data


# -- stages -------------------------------------------------------------------

def cmd_train(cfg: dict) -> Path:
    data = prepare_dataset(cfg)
    # fitted before the run directory is made, so a bad dataset block or a failed fit leaves none
    model = bb.train_bagged_forest(data, n_trees=cfg["blackbox"]["n_trees"], seed=cfg["seed"])
    with _stage_outputs(cfg, "train", "config.json", "dataset_used.csv", "model.txt") as (config, dataset, model_tmp):
        config.write_bytes(canonical_json(cfg).encode())
        write_dataset(data, dataset)
        bb.save_model(model, model_tmp)
    return run_dir_for(cfg) / "model.txt"


def _variants(cfg: dict) -> list[bool]:
    variant = cfg["filter"]["variant"]
    if variant == "filtered":
        return [True]
    if variant == "unfiltered":
        return [False]
    return [True, False]


def _load_model(rd: Path, data: Dataset) -> bb.BlackBoxModel:
    model_path = rd / "model.txt"
    if not model_path.exists():
        raise ConfigError(f"missing model file {model_path}; run the train stage first")
    try:
        model = bb.load_model(model_path)
    except ValueError as exc:
        raise ConfigError(f"corrupt model file {model_path}: {exc}")
    widest = max(int(t.feature.max()) for t in model.trees)
    if widest >= data.m:
        raise ConfigError(f"model file {model_path} splits on feature {widest}, but the dataset has {data.m} features")
    return model


def cmd_explain(cfg: dict) -> Path:
    rd = run_dir_for(cfg)
    data = prepare_dataset(cfg)
    model = _load_model(rd, data)
    variants = _variants(cfg)
    centers = [(slot, radius, i) for slot, radius in enumerate(cfg["sampler"]["radii"]) for i in range(data.n)]
    balls = (
        label_ball(model, data.X[i], radius, cfg["sampler"]["N"], data.schema, derive_seed(cfg["seed"], i, slot), i)
        for slot, radius, i in centers
    )
    specs = (center for center in centers for _ in variants)  # each explainer's center, in record order

    def records(rules):
        """Each explainer's bundle record, a group trained at a time; its rules block goes to rules first."""
        sep = ""
        for group in explainer_groups(balls, data.schema):
            explainers = train_local_explainer(
                group,
                data.schema,
                variants,
                max_bins=cfg["filter"]["max_bins"],
                max_depth=cfg["explainer"]["max_depth"],
                min_leaf=cfg["explainer"]["min_leaf"],
                eps_mi=cfg["filter"]["eps_mi"],
            )
            del group  # labelling the next group's balls need not hold this one's
            for ex in explainers:
                slot, radius, i = next(specs)
                head = f"center {i} radius {radius} {'filtered' if ex.filtered else 'unfiltered'}"
                rules.write(f"{sep}# {head}\n{tree_to_rules(ex.tree, data.schema.names)}")
                sep = "\n"
                yield {
                    "center_index": i,
                    "radius": radius,
                    "radius_slot": slot,
                    "filtered": ex.filtered,
                    "selected_features": list(ex.selected_features),
                    "leaf_count": ex.leaf_count,
                    "train_fidelity": ex.train_fidelity,
                    "tree": tree_to_lines(ex.tree),
                }
            del explainers, ex  # written out: the next group's fit need not hold them either

    # Each group's records are written out before the next group is labelled: the stage holds no finished explainer.
    with _stage_outputs(cfg, "explain", "explainers.json", "explainers_rules.txt") as (bundle_tmp, rules_tmp):
        with open(bundle_tmp, "w", encoding="utf-8") as bundle, open(rules_tmp, "w", encoding="utf-8") as rules:
            _write_bundle(bundle, records(rules))
    return rd / "explainers.json"


def _aggregated_slice(cfg: dict) -> tuple[float, bool]:
    """(radius, filtered) of the explainers the aggregate stage reads."""
    a = cfg["aggregate"]
    radius = cfg["sampler"]["radii"][0] if a["radius"] is None else a["radius"]
    return radius, cfg["filter"]["variant"] != "unfiltered" if a["use_filtered"] is None else a["use_filtered"]


def _load_bundle_explainers(cfg: dict, data: Dataset) -> list[LocalExplainer]:
    rd = run_dir_for(cfg)
    bundle_path = rd / "explainers.json"
    if not bundle_path.exists():
        raise ConfigError(f"missing bundle {bundle_path}; run the explain stage first")
    radius, want_filtered = _aggregated_slice(cfg)
    picked: dict[int, LocalExplainer] = {}
    try:
        for k, rec in enumerate(json.loads(bundle_path.read_text(encoding="utf-8"))["explainers"]):
            if rec["radius"] != radius or rec["filtered"] != want_filtered:
                continue
            tree, consumed = tree_from_lines(rec["tree"])
            if consumed != len(rec["tree"]):
                raise ValueError(f"{len(rec['tree']) - consumed} trailing records after the tree's last one")
            widest = int(tree.feature.max())
            if widest >= data.m:
                raise ValueError(f"a tree splits on feature {widest}, but the dataset has {data.m} features")
            i = rec["center_index"]
            if isinstance(i, bool) or not isinstance(i, int):  # int() would read 1.5 as 1, and fail on Infinity
                raise ValueError(f"record {k} has center_index {i!r}, not an integer")
            if not 0 <= i < data.n:  # a negative index would pick a row from the end
                raise ValueError(f"record {k} has center_index {i}, but the dataset has points 0..{data.n - 1}")
            picked[i] = LocalExplainer(
                center_index=i,
                center=data.X[i],
                radius=float(rec["radius"]),
                selected_features=tuple(rec["selected_features"]),
                tree=tree,
                filtered=bool(rec["filtered"]),
                train_fidelity=float(rec["train_fidelity"]),
            )
    except KeyError as exc:
        raise ConfigError(f"corrupt bundle {bundle_path}: missing field {exc}")
    except (ValueError, TypeError, IndexError, OverflowError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"corrupt bundle {bundle_path}: {exc}")
    if len(picked) != data.n:
        raise ConfigError(
            f"bundle holds {len(picked)} explainers for radius {radius} "
            f"({'filtered' if want_filtered else 'unfiltered'}), dataset has {data.n} points"
        )
    return [picked[i] for i in range(data.n)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def cmd_aggregate(cfg: dict) -> Path:
    rd = run_dir_for(cfg)
    data = prepare_dataset(cfg)
    model = _load_model(rd, data)
    explainers = _load_bundle_explainers(cfg, data)
    pool = agg.build_pool(data, explainers, model)
    acfg = cfg["aggregate"]
    solvers = ["exact", "greedy"] if acfg["solver"] == "both" else [acfg["solver"]]
    sweep_rows = []
    timing_rows = []
    files = {}  # each hashed output's bytes, by its path in the run directory
    for floor in acfg["floors"]:
        for budget in acfg["budgets"]:
            if acfg["export_lp"]:
                files[f"solutions/model_K{budget}_phi{_fmt(floor)}.lp"] = agg.build_ip(pool, budget, floor).encode()
            for solver in solvers:
                t0 = time.perf_counter()
                if solver == "exact":
                    # the floor's first exact call searches once for all the sweep's budgets
                    sol = agg.solve_exact(pool, budget, floor, also=acfg["budgets"])
                else:
                    sol = agg.solve_greedy(pool, budget, floor)
                wall_ms = (time.perf_counter() - t0) * 1000.0
                violations = agg.verify_solution(pool, budget, floor, sol)
                if violations:
                    raise RuntimeError(
                        f"solver {solver} produced an invalid solution at K={budget}, phi={floor}: {violations}"
                    )
                name = f"solutions/sol_K{budget}_phi{_fmt(floor)}_{solver}.json"
                files[name] = canonical_json(sol.to_dict()).encode()
                sweep_rows.append(
                    [
                        budget,
                        _fmt(floor),
                        solver,
                        sol.ip_coverage,
                        sol.ball_coverage,
                        _fmt(sol.claimed_min_fidelity),
                        _fmt(sol.ball_min_fidelity),
                        sol.status,
                        sol.nodes_explored,
                    ]
                )
                timing_rows.append([budget, _fmt(floor), solver, _fmt(wall_ms)])
    files["sweep.csv"] = _csv(SWEEP_HEADER, sweep_rows)
    timings = _csv("K,phi,solver,wall_ms", timing_rows)
    # nothing is written until every cell is solved and verified
    with _stage_outputs(cfg, "aggregate", *files, unhashed=["timings.csv"]) as tmps:
        for tmp, data in zip(tmps, [*files.values(), timings]):
            tmp.write_bytes(data)
    return rd / "sweep.csv"


def _csv(header: str, rows) -> bytes:
    return (header + "\n" + "\n".join(",".join(str(v) for v in row) for row in rows) + "\n").encode()


def _read_sweep(path: Path) -> list[dict]:
    """sweep.csv's rows as dicts keyed by SWEEP_HEADER, or a ConfigError naming the file if any line is off."""
    try:
        lines = path.read_text(encoding="utf-8").strip().splitlines()
    except ValueError as exc:  # undecodable bytes
        raise ConfigError(f"corrupt sweep {path}: {exc}")
    if not lines or lines[0] != SWEEP_HEADER:
        raise ConfigError(f"corrupt sweep {path}: its first line is not the header {SWEEP_HEADER}")
    header = SWEEP_HEADER.split(",")
    rows = []
    for number, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ConfigError(f"corrupt sweep {path}: line {number} has {len(fields)} fields, not {len(header)}")
        try:
            int(fields[0])
        except ValueError:
            raise ConfigError(f"corrupt sweep {path}: line {number} has K {fields[0]!r}, not an integer") from None
        rows.append(dict(zip(header, fields)))
    return rows


def cmd_report(cfg: dict) -> list[Path]:
    rd = run_dir_for(cfg)
    sweep_path = rd / "sweep.csv"
    if not sweep_path.exists():
        raise ConfigError(f"missing inputs: {sweep_path}")
    rows = _read_sweep(sweep_path)
    series_keys = sorted({(r["solver"], r["phi"]) for r in rows})
    budgets = sorted({int(r["K"]) for r in rows})
    files = {}
    by_cell = {(int(r["K"]), r["solver"], r["phi"]): r for r in rows}
    for metric in ("ip_coverage", "ball_coverage", "min_fidelity", "ball_min_fidelity"):
        cols = ["K"] + [f"{solver}_phi{phi}" for solver, phi in series_keys]
        body = []
        for k in budgets:
            row = [str(k)]
            for solver, phi in series_keys:
                cell = by_cell.get((k, solver, phi))
                row.append(cell[metric] if cell else "")
            body.append(row)
        files[f"report_{metric}.csv"] = _csv(",".join(cols), body)
    with _stage_outputs(cfg, "report", *files) as tmps:
        for tmp, data in zip(tmps, files.values()):
            tmp.write_bytes(data)
    return [rd / name for name in files]


def cmd_sweep(cfg: dict) -> Path:
    cmd_train(cfg)
    cmd_explain(cfg)
    return cmd_aggregate(cfg)


# -- argument parsing ---------------------------------------------------------

COMMANDS = {"train": cmd_train, "explain": cmd_explain, "aggregate": cmd_aggregate, "sweep": cmd_sweep,
            "report": cmd_report}


def _parse_list(key: Key, text: str) -> list:
    """A list flag's values: comma-separated, or for integers also a lo..hi range."""
    try:
        if key.kind is int and ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [key.kind(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"{key.flag} must be {_list_syntax(key)}, got {text!r}") from None


def _list_syntax(key: Key) -> str:
    return "a comma list or lo..hi range of integers" if key.kind is int else "comma-separated numbers"


def build_parser() -> argparse.ArgumentParser:
    """The flags of KEYS, each with its key's path as dest; a key true by default also gets --no-<flag>."""
    p = argparse.ArgumentParser(prog="aggrex", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="JSON config file; flags override its keys")
    for path, key in KEYS.items():
        if key.flag is None:
            continue
        if key.kind is bool:
            p.add_argument(key.flag, dest=path, action="store_true", default=None, help=path)
            if key.default:
                p.add_argument("--no-" + key.flag[2:], dest=path, action="store_false")
        else:
            words = key.kind if isinstance(key.kind, tuple) else None
            p.add_argument(key.flag, dest=path, choices=words, help=_list_syntax(key) if key.each else None)
    return p


def overrides_from_args(args: argparse.Namespace) -> dict:
    """The config keys the flags set, as text except for lists; load_config converts them."""
    given = [(path, value) for path, value in vars(args).items() if path in KEYS and value is not None]
    return _nested((path, _parse_list(KEYS[path], value) if KEYS[path].each else value) for path, value in given)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        out = COMMANDS[args.command](load_config(args.config, overrides_from_args(args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    if isinstance(out, list):
        for path in out:
            print(path)
    else:
        print(out)
    print(f"done in {elapsed:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
