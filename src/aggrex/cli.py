"""Pipeline CLI: train, explain, aggregate, sweep (those three in order), report.

Every stage is deterministic given the config: randomness flows from one
root seed (env var AGGREX_SEED overrides the config value), outputs land in
a run directory stamped with a hash of the effective config rather than a
timestamp, and files are written atomically. Per-cell wall times are kept
out of sweep.csv (they land in timings.csv, which the manifest lists but
does not hash) so reruns are byte-identical.

Exit codes: 0 success, 2 config error.
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
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import aggregate as agg
from . import blackbox as bb
from .data import Dataset, FeatureSchema, load_dataset, standardize, synth_multiclass, write_dataset
from .explainer import LocalExplainer, explainer_groups, label_ball, train_local_explainer
from .sampler import derive_seed
from .tree import tree_from_lines, tree_to_lines, tree_to_rules

SEED_ENV_VAR = "AGGREX_SEED"

DEFAULT_CONFIG = {
    "seed": 0,
    "dataset": {
        "path": None,
        "standardize": True,
        "synth": {"n": 60, "m_cont": 4, "m_bin": 2, "classes": 5, "relevant": [0, 1, 4]},
        "schema": None,  # for path datasets: {"m_cont": int, "m_bin": int}
    },
    "blackbox": {"n_trees": 50},
    "sampler": {"N": 10000, "radii": [3.0, 7.0, 11.0, 15.0]},
    "filter": {"max_bins": 3, "eps_mi": 1e-9, "variant": "both"},
    "explainer": {"max_depth": 12, "min_leaf": 2},
    "aggregate": {
        "budgets": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "floors": [0.5, 0.7, 0.9],
        "solver": "both",
        "radius": None,  # default: first sampler radius
        "use_filtered": None,  # default: filtered when the variant produced any
        "export_lp": False,
    },
    "output_dir": "runs",
}


class ConfigError(ValueError):
    pass


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = _deep_merge(cfg, json.load(fh))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
    cfg = _deep_merge(cfg, overrides)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    validate_config(cfg)
    return cfg


def _unknown_keys(cfg: dict, defaults: dict, prefix: str = "") -> list[str]:
    out = []
    for key, value in cfg.items():
        name = prefix + key
        if key not in defaults:
            out.append(name)
        elif isinstance(value, dict) and isinstance(defaults[key], dict):
            out.extend(_unknown_keys(value, defaults[key], name + "."))
    return out


def _as(kind, value, name: str):
    """kind(value), or a ConfigError naming the config key.

    An integer key rejects a fractional number rather than truncate it, and
    a numeric key rejects a JSON boolean rather than read it as 0 or 1, so
    that a config runs only as the values it states.
    """
    try:
        if isinstance(value, bool):
            raise ValueError
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}") from None


def _check_bool(value, name: str, nullable: bool = False) -> None:
    if not (isinstance(value, bool) or (nullable and value is None)):
        raise ConfigError(f"{name} must be {'true, false or null' if nullable else 'true or false'}, got {value!r}")


def _as_list(kind, value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [_as(kind, v, name) for v in value]


def validate_config(cfg: dict) -> None:
    unknown = _unknown_keys(cfg, DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    _as(int, cfg["seed"], "seed")
    a = cfg["aggregate"]
    if not a["budgets"]:
        raise ConfigError("aggregate.budgets must be non-empty")
    if any(k < 0 for k in _as_list(int, a["budgets"], "aggregate.budgets")):
        raise ConfigError("budgets must be nonnegative")
    if not a["floors"]:
        raise ConfigError("aggregate.floors must be non-empty")
    if any(not (0.0 <= p <= 1.0) for p in _as_list(float, a["floors"], "aggregate.floors")):
        raise ConfigError("every fidelity floor must lie in [0, 1]")
    if a["solver"] not in ("exact", "greedy", "both"):
        raise ConfigError(f"unknown solver {a['solver']!r}")
    if _as(int, cfg["blackbox"]["n_trees"], "blackbox.n_trees") < 1:
        raise ConfigError("blackbox.n_trees must be at least 1")
    if _as(int, cfg["filter"]["max_bins"], "filter.max_bins") < 2:
        raise ConfigError("filter.max_bins must be at least 2")
    if not math.isfinite(_as(float, cfg["filter"]["eps_mi"], "filter.eps_mi")):
        raise ConfigError(f"filter.eps_mi must be finite, got {cfg['filter']['eps_mi']!r}")
    if cfg["filter"]["variant"] not in ("filtered", "unfiltered", "both"):
        raise ConfigError(f"unknown filter variant {cfg['filter']['variant']!r}")
    if not cfg["sampler"]["radii"]:
        raise ConfigError("sampler.radii must be non-empty")
    radii = _as_list(float, cfg["sampler"]["radii"], "sampler.radii")
    if any(not (math.isfinite(r) and r >= 0) for r in radii):
        raise ConfigError("every sampler radius must be finite and nonnegative")
    too_wide = [r for r in radii if not math.isfinite(r + r)]  # the ball's width c + r - (c - r) at c = 0
    if too_wide:
        raise ConfigError(f"sampler.radii: radius {too_wide[0]!r} gives a ball wider than the largest float")
    if a["radius"] is not None:
        _as(float, a["radius"], "aggregate.radius")
    _check_bool(a["use_filtered"], "aggregate.use_filtered", nullable=True)
    _check_bool(a["export_lp"], "aggregate.export_lp")
    _check_bool(cfg["dataset"]["standardize"], "dataset.standardize")
    radius, filtered = _aggregated_slice(cfg)
    if radius not in radii:
        raise ConfigError(f"aggregate.radius {radius} is not one of sampler.radii")
    if filtered not in _variants(cfg):
        kind = "filtered" if filtered else "unfiltered"
        raise ConfigError(
            f"aggregate.use_filtered wants {kind} explainers, which filter.variant "
            f"{cfg['filter']['variant']!r} does not train"
        )
    if _as(int, cfg["sampler"]["N"], "sampler.N") < 2:
        raise ConfigError("sampler.N must be at least 2")
    if _as(int, cfg["explainer"]["min_leaf"], "explainer.min_leaf") < 1:
        raise ConfigError("explainer.min_leaf must be at least 1")
    max_depth = cfg["explainer"]["max_depth"]
    if max_depth is not None and _as(int, max_depth, "explainer.max_depth") < 0:
        raise ConfigError("explainer.max_depth must be nonnegative or null")
    ds = cfg["dataset"]
    if ds["path"] is None and ds.get("synth") is None:
        raise ConfigError("dataset needs either a path or a synth block")
    if ds["path"] is not None and not isinstance(ds["path"], str):
        raise ConfigError(f"dataset.path must be a file path, got {ds['path']!r}")
    if ds["path"] is not None and ds.get("schema") is None:
        raise ConfigError("path datasets need dataset.schema = {m_cont, m_bin}")
    block = "schema" if ds["path"] is not None else "synth"
    for key in ("m_cont", "m_bin") if ds["path"] is not None else ("n", "m_cont", "m_bin", "classes"):
        if _as(int, ds[block].get(key), f"dataset.{block}.{key}") < 0:
            raise ConfigError(f"dataset.{block}.{key} must be nonnegative")
    if ds["path"] is None:
        _as_list(int, ds["synth"].get("relevant"), "dataset.synth.relevant")


def canonical_json(obj) -> str:
    """The canonical JSON text of obj: 2-space indent, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def run_dir_for(cfg: dict) -> Path:
    stamp = hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:12]
    return Path(cfg["output_dir"]) / f"run-{stamp}"


@contextmanager
def _atomic_files(*paths: Path):
    """Text handles on a `.tmp` file beside each path, renamed onto the paths in order when the block ends.

    If the block raises, every `.tmp` file is removed instead, so each path
    keeps its earlier bytes or gets all of the new ones.
    """
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    with ExitStack() as stack:
        try:
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
            yield [stack.enter_context(open(tmp, "w", encoding="utf-8")) for tmp in tmps]
        except BaseException:
            stack.close()
            for tmp in tmps:
                tmp.unlink(missing_ok=True)
            raise
    for tmp, path in zip(tmps, paths):
        os.replace(tmp, path)


def _write_atomic(path: Path, text: str) -> None:
    with _atomic_files(path) as (fh,):
        fh.write(text)


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def update_manifest(cfg: dict, stage: str, outputs: list[str], unhashed: list[str] = ()) -> None:
    rd = run_dir_for(cfg)
    manifest_path = rd / "manifest.json"
    manifest = {
        "run_id": rd.name,
        "seed": cfg["seed"],
        "standardized": bool(cfg["dataset"]["standardize"]),
        "config": cfg,
        "stages": {},
        "hashes": {},
        "unhashed": [],
    }
    if manifest_path.exists():
        manifest.update(json.loads(manifest_path.read_text(encoding="utf-8")))
    manifest["stages"][stage] = {"outputs": sorted(set(outputs) | set(unhashed))}
    for name in outputs:
        manifest["hashes"][name] = _sha256(rd / name)
    manifest["unhashed"] = sorted(set(manifest["unhashed"]) | set(unhashed))
    _write_atomic(manifest_path, canonical_json(manifest))


def prepare_dataset(cfg: dict) -> Dataset:
    ds = cfg["dataset"]
    if ds["path"] is not None:
        sch = ds["schema"]
        try:
            data = load_dataset(ds["path"], FeatureSchema.mixed(int(sch["m_cont"]), int(sch["m_bin"])))
        except (ValueError, OSError) as exc:  # ParseError, SchemaViolation and undecodable bytes are ValueErrors
            raise ConfigError(f"dataset.path {ds['path']}: {exc}")
    else:
        sy = ds["synth"]
        try:
            data = synth_multiclass(
                seed=int(cfg["seed"]),
                n=int(sy["n"]),
                m_cont=int(sy["m_cont"]),
                m_bin=int(sy["m_bin"]),
                classes=int(sy["classes"]),
                relevant=tuple(sy["relevant"]),
            )
        except ValueError as exc:
            raise ConfigError(f"dataset.synth: {exc}")
    if ds["standardize"]:
        if data.n < 2:
            raise ConfigError(f"dataset.standardize needs at least 2 rows, the dataset has {data.n}")
        data = standardize(data)
    cont = data.X[:, data.schema.continuous_idx]
    for radius in _as_list(float, cfg["sampler"]["radii"], "sampler.radii"):
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
    data = prepare_dataset(cfg)  # before the run directory, so a bad dataset block leaves none
    rd = run_dir_for(cfg)
    rd.mkdir(parents=True, exist_ok=True)
    write_dataset(data, rd / "dataset_used.csv.tmp")
    os.replace(rd / "dataset_used.csv.tmp", rd / "dataset_used.csv")
    model = bb.train_bagged_forest(data, n_trees=int(cfg["blackbox"]["n_trees"]), seed=int(cfg["seed"]))
    bb.save_model(model, rd / "model.txt.tmp")
    os.replace(rd / "model.txt.tmp", rd / "model.txt")
    _write_atomic(rd / "config.json", canonical_json(cfg))
    update_manifest(cfg, "train", ["config.json", "dataset_used.csv", "model.txt"])
    return rd / "model.txt"


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
    max_depth = cfg["explainer"]["max_depth"]
    n_samples = int(cfg["sampler"]["N"])
    variants = _variants(cfg)
    seed = int(cfg["seed"])
    centers = [(slot, radius, i) for slot, radius in enumerate(cfg["sampler"]["radii"]) for i in range(data.n)]
    balls = (
        label_ball(model, data.X[i], float(radius), n_samples, data.schema, derive_seed(seed, i, slot), i)
        for slot, radius, i in centers
    )
    specs = (center for center in centers for _ in variants)  # each explainer's center, in record order

    def records(rules):
        """Each explainer's bundle record, a group trained at a time; its rules block goes to rules first."""
        sep = ""
        for group in explainer_groups(balls, data.schema, variants):
            explainers = train_local_explainer(
                group,
                data.schema,
                variants,
                max_bins=int(cfg["filter"]["max_bins"]),
                max_depth=None if max_depth is None else int(max_depth),
                min_leaf=int(cfg["explainer"]["min_leaf"]),
                eps_mi=float(cfg["filter"]["eps_mi"]),
            )
            del group  # labelling the next group's balls need not hold this one's
            for ex in explainers:
                slot, radius, i = next(specs)
                head = f"center {i} radius {radius} {'filtered' if ex.filtered else 'unfiltered'}"
                rules.write(f"{sep}# {head}\n{tree_to_rules(ex.tree, data.schema.names)}")
                sep = "\n"
                yield {
                    "center_index": i,
                    "radius": float(radius),
                    "radius_slot": slot,
                    "filtered": ex.filtered,
                    "selected_features": list(ex.selected_features),
                    "leaf_count": ex.leaf_count,
                    "train_fidelity": ex.train_fidelity,
                    "tree": tree_to_lines(ex.tree),
                }
            del explainers, ex  # written out: the next group's fit need not hold them either

    # Each group's records are written out before the next group is labelled: the stage holds no finished explainer.
    with _atomic_files(rd / "explainers.json", rd / "explainers_rules.txt") as (bundle, rules):
        _write_bundle(bundle, records(rules))
    update_manifest(cfg, "explain", ["explainers.json", "explainers_rules.txt"])
    return rd / "explainers.json"


def _aggregated_slice(cfg: dict) -> tuple[float, bool]:
    """(radius, filtered) of the explainers the aggregate stage reads."""
    radius = cfg["aggregate"]["radius"]
    if radius is None:
        radius = cfg["sampler"]["radii"][0]
    want = cfg["aggregate"]["use_filtered"]
    if want is None:
        return float(radius), cfg["filter"]["variant"] != "unfiltered"
    return float(radius), bool(want)


def _load_bundle_explainers(cfg: dict, data: Dataset) -> list[LocalExplainer]:
    rd = run_dir_for(cfg)
    bundle_path = rd / "explainers.json"
    if not bundle_path.exists():
        raise ConfigError(f"missing bundle {bundle_path}; run the explain stage first")
    radius, want_filtered = _aggregated_slice(cfg)
    picked: dict[int, LocalExplainer] = {}
    try:
        for rec in json.loads(bundle_path.read_text(encoding="utf-8"))["explainers"]:
            if rec["radius"] != radius or rec["filtered"] != want_filtered:
                continue
            tree, consumed = tree_from_lines(rec["tree"])
            if consumed != len(rec["tree"]):
                raise ValueError(f"{len(rec['tree']) - consumed} trailing records after the tree's last one")
            widest = int(tree.feature.max())
            if widest >= data.m:
                raise ValueError(f"a tree splits on feature {widest}, but the dataset has {data.m} features")
            i = int(rec["center_index"])
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
    except (ValueError, TypeError, IndexError) as exc:  # JSONDecodeError is a ValueError
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
    (rd / "solutions").mkdir(parents=True, exist_ok=True)
    sweep_rows = []
    timing_rows = []
    outputs = ["sweep.csv"]
    unhashed = ["timings.csv"]
    for floor in acfg["floors"]:
        for budget in acfg["budgets"]:
            if acfg["export_lp"]:
                lp_name = f"solutions/model_K{budget}_phi{_fmt(float(floor))}.lp"
                agg.export_lp(agg.build_ip(pool, int(budget), float(floor)), rd / lp_name)
                outputs.append(lp_name)
            for solver in solvers:
                solve = agg.solve_exact if solver == "exact" else agg.solve_greedy
                sol = solve(pool, int(budget), float(floor))
                violations = agg.verify_solution(pool, int(budget), float(floor), sol)
                if violations:
                    raise RuntimeError(
                        f"solver {solver} produced an invalid solution at K={budget}, phi={floor}: {violations}"
                    )
                name = f"solutions/sol_K{budget}_phi{_fmt(float(floor))}_{solver}.json"
                _write_atomic(rd / name, canonical_json(sol.to_dict()))
                unhashed.append(name)
                sweep_rows.append(
                    [
                        budget,
                        _fmt(float(floor)),
                        solver,
                        sol.ip_coverage,
                        sol.ball_coverage,
                        _fmt(sol.claimed_min_fidelity),
                        _fmt(sol.ball_min_fidelity),
                        sol.status,
                        sol.nodes_explored,
                    ]
                )
                timing_rows.append([budget, _fmt(float(floor)), solver, _fmt(sol.wall_time_ms)])
    header = "K,phi,solver,ip_coverage,ball_coverage,min_fidelity,ball_min_fidelity,status,nodes_explored"
    _write_atomic(
        rd / "sweep.csv",
        header + "\n" + "\n".join(",".join(str(v) for v in row) for row in sweep_rows) + "\n",
    )
    _write_atomic(
        rd / "timings.csv",
        "K,phi,solver,wall_ms\n" + "\n".join(",".join(row_val for row_val in map(str, row)) for row in timing_rows) + "\n",
    )
    update_manifest(cfg, "aggregate", outputs, unhashed)
    return rd / "sweep.csv"


def cmd_report(cfg: dict) -> list[Path]:
    rd = run_dir_for(cfg)
    sweep_path = rd / "sweep.csv"
    if not sweep_path.exists():
        raise ConfigError(f"missing inputs: {sweep_path}")
    lines = sweep_path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    series_keys = sorted({(r["solver"], r["phi"]) for r in rows})
    budgets = sorted({int(r["K"]) for r in rows})
    out_paths = []
    metrics = {
        "ip_coverage": "report_ip_coverage.csv",
        "ball_coverage": "report_ball_coverage.csv",
        "min_fidelity": "report_min_fidelity.csv",
        "ball_min_fidelity": "report_ball_min_fidelity.csv",
    }
    by_cell = {(int(r["K"]), r["solver"], r["phi"]): r for r in rows}
    for metric, fname in metrics.items():
        cols = ["K"] + [f"{solver}_phi{phi}" for solver, phi in series_keys]
        body = []
        for k in budgets:
            row = [str(k)]
            for solver, phi in series_keys:
                cell = by_cell.get((k, solver, phi))
                row.append(cell[metric] if cell else "")
            body.append(",".join(row))
        _write_atomic(rd / fname, ",".join(cols) + "\n" + "\n".join(body) + "\n")
        out_paths.append(rd / fname)
    update_manifest(cfg, "report", [p.name for p in out_paths])
    return out_paths


def cmd_sweep(cfg: dict) -> Path:
    cmd_train(cfg)
    cmd_explain(cfg)
    return cmd_aggregate(cfg)


# -- argument parsing ---------------------------------------------------------

def _parse_budgets(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"--budgets must be a comma list or lo..hi range of integers, got {text!r}") from None


def _parse_numbers(flag: str, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="aggrex", description=__doc__)
    p.add_argument("command", choices=["train", "explain", "aggregate", "sweep", "report"])
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir")
    p.add_argument("--dataset-path")
    p.add_argument("--standardize", dest="standardize", action="store_true", default=None)
    p.add_argument("--no-standardize", dest="standardize", action="store_false")
    p.add_argument("--n-trees", type=int)
    p.add_argument("--samples", type=int, help="sampler.N")
    p.add_argument("--radii", help="comma-separated sampling radii")
    p.add_argument("--max-bins", type=int)
    p.add_argument("--eps-mi", type=float)
    p.add_argument("--variant", choices=["filtered", "unfiltered", "both"])
    p.add_argument("--max-depth", type=int)
    p.add_argument("--min-leaf", type=int)
    p.add_argument("--budgets", help="comma list or lo..hi range of K values")
    p.add_argument("--floors", help="comma-separated fidelity floors")
    p.add_argument("--solver", choices=["exact", "greedy", "both"])
    p.add_argument("--agg-radius", type=float, help="radius whose explainers feed aggregation")
    p.add_argument("--export-lp", action="store_true", default=None)
    return p


def overrides_from_args(args: argparse.Namespace) -> dict:
    out: dict = {}

    def put(path: list[str], value) -> None:
        if value is None:
            return
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value

    put(["seed"], args.seed)
    put(["output_dir"], args.output_dir)
    put(["dataset", "path"], args.dataset_path)
    put(["dataset", "standardize"], args.standardize)
    put(["blackbox", "n_trees"], args.n_trees)
    put(["sampler", "N"], args.samples)
    if args.radii is not None:
        put(["sampler", "radii"], _parse_numbers("--radii", args.radii))
    put(["filter", "max_bins"], args.max_bins)
    put(["filter", "eps_mi"], args.eps_mi)
    put(["filter", "variant"], args.variant)
    put(["explainer", "max_depth"], args.max_depth)
    put(["explainer", "min_leaf"], args.min_leaf)
    if args.budgets is not None:
        put(["aggregate", "budgets"], _parse_budgets(args.budgets))
    if args.floors is not None:
        put(["aggregate", "floors"], _parse_numbers("--floors", args.floors))
    put(["aggregate", "solver"], args.solver)
    put(["aggregate", "radius"], args.agg_radius)
    put(["aggregate", "export_lp"], args.export_lp)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        if args.command == "train":
            out = cmd_train(cfg)
        elif args.command == "explain":
            out = cmd_explain(cfg)
        elif args.command == "aggregate":
            out = cmd_aggregate(cfg)
        elif args.command == "sweep":
            out = cmd_sweep(cfg)
        else:
            out = cmd_report(cfg)
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
