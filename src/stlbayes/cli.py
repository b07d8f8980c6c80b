"""Batch front end: config-driven verification, inference and simulation.

Configs are single JSON documents (schema documented in the README).  All
randomness flows from one seed through named substreams, so a report can be
reproduced exactly from the config it embeds.  Exit codes: 0 success,
2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .bayes import PriorSpec, posterior
from .chance import WeightScheme
from .confidence import chebyshev_sample_size, mc_confidence, pwa_confidence
from .feasibility import (
    InputBox,
    Region,
    VerificationSpec,
    classify_cells,
    pwa_partition,
    restrict_region,
)
from .lti import DataSet, InputSampler, ParametricLti, collect_data, laguerre_model
from .rng import RngStream
from .stl import OutputPredicate, LinearPredicate, StlError, parse_stl
from .confidence import ConfidenceEstimate


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


def _get(cfg: dict, path: str, key: str, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return default


def _build_model(cfg: dict) -> ParametricLti:
    section = _get(cfg, "", "model", required=True)
    if "preset" in section:
        if section["preset"] != "laguerre":
            raise ConfigError("model.preset", f"unknown preset {section['preset']!r}")
        a = _get(section, "model", "a", required=True)
        try:
            model = laguerre_model(float(a))
        except ValueError as exc:
            raise ConfigError("model.a", str(exc)) from exc
    else:
        try:
            box = section.get("input_box")
            model = ParametricLti(
                A=section["A"], B=section["B"], G=section["G"],
                C0=section["C0"], C_basis=tuple(section["C_basis"]),
                Sigma_w=section["Sigma_w"], Sigma_e=section["Sigma_e"],
                input_lower=box[0] if box else section["input_lower"],
                input_upper=box[1] if box else section["input_upper"],
            )
        except KeyError as exc:
            raise ConfigError(f"model.{exc.args[0]}", "missing required field")
        except ValueError as exc:
            raise ConfigError("model", str(exc)) from exc
    overrides = {}
    for key in ("Sigma_w", "Sigma_e", "G"):
        if key in section and "preset" in section:
            overrides[key] = np.asarray(section[key], dtype=float)
    if "input_box" in section and "preset" in section:
        box = section["input_box"]
        overrides["input_lower"] = np.asarray(box[0], dtype=float)
        overrides["input_upper"] = np.asarray(box[1], dtype=float)
    if overrides:
        try:
            model = model.with_overrides(**overrides)
        except ValueError as exc:
            raise ConfigError("model", str(exc)) from exc
    return model


def _build_predicates(cfg: dict, model: ParametricLti) -> dict:
    table = {}
    section = _get(cfg, "", "predicates", default={})
    for name, entry in section.items():
        offset = _get(entry, f"predicates.{name}", "offset", required=True)
        if "output_gradient" in entry:
            grad = entry["output_gradient"]
            if len(grad) != model.p:
                raise ConfigError(f"predicates.{name}.output_gradient",
                                  f"expected {model.p} entries, got {len(grad)}")
            table[name] = OutputPredicate(float(offset), tuple(grad))
        elif "state_gradient" in entry:
            grad = entry["state_gradient"]
            if len(grad) != model.n:
                raise ConfigError(f"predicates.{name}.state_gradient",
                                  f"expected {model.n} entries, got {len(grad)}")
            table[name] = LinearPredicate(float(offset), tuple(grad))
        else:
            raise ConfigError(f"predicates.{name}",
                              "need output_gradient or state_gradient")
    return table


def _build_region(cfg: dict, key: str, d: int, required=True):
    section = _get(cfg, "", key, required=required)
    if section is None:
        return None
    lower = _get(section, key, "lower", required=True)
    upper = _get(section, key, "upper", required=True)
    if len(lower) != d or len(upper) != d:
        raise ConfigError(key, f"bounds must have {d} coordinates")
    try:
        return Region(lower, upper)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _build_spec(cfg: dict, model: ParametricLti) -> VerificationSpec:
    table = _build_predicates(cfg, model)
    text = _get(cfg, "", "formula", required=True)
    try:
        formula = parse_stl(text, table)
    except StlError as exc:
        raise ConfigError("formula", str(exc)) from exc
    delta = float(_get(cfg, "", "delta", required=True))
    weights_cfg = _get(cfg, "", "weights", default={"mode": "uniform"})
    try:
        scheme = WeightScheme(mode=weights_cfg.get("mode", "uniform"),
                              weights=weights_cfg.get("weights", {}))
    except ValueError as exc:
        raise ConfigError("weights", str(exc)) from exc
    x0 = _get(cfg, "", "x0", default=[0.0] * model.n)
    box_cfg = _get(cfg, "", "input_box", default=None)
    input_box = None
    if box_cfg is not None:
        input_box = InputBox(box_cfg[0], box_cfg[1])
    try:
        return VerificationSpec(
            model=model, formula=formula, delta=delta, x0=x0, weights=scheme,
            input_box=input_box,
            gamma_form=_get(cfg, "", "gamma_form", default="stddev"),
            literal_shares=bool(_get(cfg, "", "literal_shares", default=False)),
        )
    except (ValueError, StlError) as exc:
        raise ConfigError("formula", str(exc)) from exc


def _build_prior(cfg: dict, d: int) -> PriorSpec:
    section = _get(cfg, "", "prior", required=True)
    kind = _get(section, "prior", "kind", default="uniform_box")
    if kind != "uniform_box":
        raise ConfigError("prior.kind", "only uniform_box priors are "
                                        "configurable from files")
    lower = _get(section, "prior", "lower", required=True)
    upper = _get(section, "prior", "upper", required=True)
    if len(lower) != d or len(upper) != d:
        raise ConfigError("prior", f"bounds must have {d} coordinates")
    try:
        return PriorSpec.uniform_box(lower, upper)
    except ValueError as exc:
        raise ConfigError("prior", str(exc)) from exc


def _build_sampler(section: dict, path: str) -> InputSampler:
    kind = _get(section, path, "kind", default="uniform")
    if kind == "uniform":
        return InputSampler("uniform", low=float(section.get("low", -1.0)),
                            high=float(section.get("high", 1.0)))
    if kind == "gaussian":
        return InputSampler("gaussian", mean=float(section.get("mean", 0.0)),
                            std=float(section.get("std", 1.0)))
    raise ConfigError(f"{path}.kind", f"unknown input distribution {kind!r}")


def _dataset_from_config(cfg: dict, model: ParametricLti, x0,
                         rng: RngStream) -> DataSet:
    section = _get(cfg, "", "data", required=True)
    theta_true = _get(section, "data", "theta_true", required=True)
    if len(theta_true) != model.d:
        raise ConfigError("data.theta_true", f"expected {model.d} coordinates")
    n_exp = int(_get(section, "data", "n_exp", required=True))
    if n_exp < 1:
        raise ConfigError("data.n_exp", "must be at least 1")
    sampler = _build_sampler(_get(section, "data", "input", default={}),
                             "data.input")
    return collect_data(model, theta_true, sampler, n_exp, x0, rng)


def _confidence_entry(est: ConfidenceEstimate) -> dict:
    return est.to_json_dict()


def _mc_sample_count(cfg: dict, post, spec, region, rng) -> int:
    section = _get(cfg, "", "mc", default={})
    if "samples" in section:
        n = int(section["samples"])
        if n < 1:
            raise ConfigError("mc.samples", "must be positive")
        return n
    if "epsilon" in section and "floor" in section:
        pilot_n = int(section.get("pilot_samples", 2000))
        pilot = mc_confidence(post, spec, region, pilot_n, rng.child("pilot"))
        var_k = pilot.variance_estimate * pilot_n / (region.volume ** 2)
        return chebyshev_sample_size(float(section["epsilon"]),
                                     float(section["floor"]), var_k,
                                     region.volume)
    return 10000


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_contour(path: Path, post, region: Region, grid: int) -> None:
    d = region.lower.shape[0]
    if d != 2:
        return
    xs = np.linspace(region.lower[0], region.upper[0], grid)
    ys = np.linspace(region.lower[1], region.upper[1], grid)
    dens = post.density(np.column_stack([np.repeat(xs, grid),
                                         np.tile(ys, grid)]))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_1", "theta_2", "density"])
        for x, row in zip(xs, dens.reshape(grid, grid)):
            for y, v in zip(ys, row):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(v))])


def _write_cells(path: Path, cells) -> None:
    if not cells:
        return
    d = cells[0].lower.shape[0]
    header = ([f"theta_lo_{i+1}" for i in range(d)]
              + [f"theta_hi_{i+1}" for i in range(d)] + ["label"])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for cell in cells:
            writer.writerow([repr(float(v)) for v in cell.lower]
                            + [repr(float(v)) for v in cell.upper]
                            + [cell.label])


def cmd_verify(cfg: dict, out_dir: Path, method: str | None = None) -> dict:
    """Full pipeline: decompose, restrict, infer, estimate confidence."""
    seed = int(_get(cfg, "", "seed", required=True))
    root = RngStream(seed)
    model = _build_model(cfg)
    spec = _build_spec(cfg, model)
    region = _build_region(cfg, "theta_region", model.d)
    prior = _build_prior(cfg, model.d)
    method = method or _get(cfg, "", "method", default="mc")
    if method not in ("mc", "pwa", "both"):
        raise ConfigError("method", f"unknown method {method!r}")

    restricted = region
    if bool(_get(cfg, "", "restrict_region", default=False)):
        restricted = restrict_region(
            spec, region, grid=int(_get(cfg, "", "restrict_grid", default=33)))

    dataset = None
    if "data" in cfg:
        dataset = _dataset_from_config(cfg, model, spec.x0, root.child("data"))
        dataset.to_csv(out_dir / "dataset.csv")

    post = posterior(dataset, model, prior,
                     int(_get(cfg, "", "posterior_mc_samples", default=4096)),
                     root.child("posterior"))

    results: dict = {
        "region": {"lower": restricted.lower.tolist(),
                   "upper": restricted.upper.tolist(),
                   "empty": restricted.empty},
        "normalizer": {"log_z": post.log_z, "z": post.z,
                       "std_error": post.z_std_error,
                       "z_rel_error": post.z_rel_error,
                       "mc_samples": post.mc_samples},
        "decomposition": spec.decomposition.to_json_dict(),
    }

    mc_section = _get(cfg, "", "mc", default={})
    if method in ("mc", "both"):
        n = _mc_sample_count(cfg, post, spec, restricted, root.child("mc_size"))
        est = mc_confidence(post, spec, restricted, n, root.child("mc"),
                            epsilon=mc_section.get("epsilon"))
        results["mc"] = _confidence_entry(est)

    if method in ("pwa", "both"):
        pwa_cfg = _get(cfg, "", "pwa", default={})
        per_axis = int(pwa_cfg.get("per_axis", 5))
        per_cell = int(pwa_cfg.get("per_cell_samples", 500))
        cells = classify_cells(pwa_partition(restricted, per_axis), spec)
        est = pwa_confidence(post, cells, per_cell, root.child("pwa"),
                             epsilon=mc_section.get("epsilon"))
        results["pwa"] = _confidence_entry(est)
        _write_cells(out_dir / "feasible_cells.csv", cells)

    _write_contour(out_dir / "posterior_contour.csv", post, restricted,
                   int(_get(cfg, "", "contour_grid", default=61)))

    report = {"command": "verify", "config": cfg, "results": results}
    _write_json(out_dir / "report.json", report)
    return report


def cmd_table1(cfg: dict, out_dir: Path, method: str | None = None) -> dict:
    """Repeated data collection and confidence estimation per true parameter."""
    seed = int(_get(cfg, "", "seed", required=True))
    root = RngStream(seed)
    model = _build_model(cfg)
    spec = _build_spec(cfg, model)
    region = _build_region(cfg, "theta_region", model.d)
    prior = _build_prior(cfg, model.d)
    section = _get(cfg, "", "table1", required=True)
    thetas = _get(section, "table1", "theta_true_list", required=True)
    reps = int(_get(section, "table1", "repetitions", required=True))
    if reps < 1:
        raise ConfigError("table1.repetitions", "must be at least 1")
    n_exp = int(_get(section, "table1", "n_exp", default=50))
    sampler = _build_sampler(_get(section, "table1", "input", default={}),
                             "table1.input")
    method = method or _get(cfg, "", "method", default="mc")
    if method not in ("mc", "pwa", "both"):
        raise ConfigError("method", f"unknown method {method!r}")
    post_samples = int(_get(cfg, "", "posterior_mc_samples", default=4096))
    mc_n = int(_get(cfg, "", "mc", default={}).get("samples", 10000))
    pwa_cfg = _get(cfg, "", "pwa", default={})

    cells = None
    if method in ("pwa", "both"):
        cells = classify_cells(
            pwa_partition(region, int(pwa_cfg.get("per_axis", 5))), spec)

    rows = []
    for ti, theta_true in enumerate(thetas):
        if len(theta_true) != model.d:
            raise ConfigError("table1.theta_true_list",
                              f"entry {ti} must have {model.d} coordinates")
        per_method: dict = {"mc": [], "pwa": []}
        for rep in range(reps):
            stream = root.child("table1", ti, rep)
            data = collect_data(model, theta_true, sampler, n_exp, spec.x0,
                                stream.child("data"))
            post = posterior(data, model, prior, post_samples,
                             stream.child("posterior"))
            if method in ("mc", "both"):
                est = mc_confidence(post, spec, region, mc_n,
                                    stream.child("mc"))
                per_method["mc"].append(est.value)
            if method in ("pwa", "both"):
                est = pwa_confidence(post, cells,
                                     int(pwa_cfg.get("per_cell_samples", 500)),
                                     stream.child("pwa"))
                per_method["pwa"].append(est.value)
        row = {"theta_true": list(map(float, theta_true)), "repetitions": reps}
        for name in ("mc", "pwa"):
            values = per_method[name]
            if values:
                arr = np.asarray(values)
                row[name] = {
                    "mean": float(arr.mean()),
                    "variance": float(arr.var(ddof=1)) if reps > 1 else 0.0,
                    "values": [float(v) for v in arr],
                }
                if reps == 1:
                    row[name]["warning"] = ("variance reported as 0 from a "
                                            "single repetition")
        rows.append(row)

    table_path = out_dir / "table1.csv"
    with table_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["theta_true"]
        if method in ("mc", "both"):
            header += ["mc_mean", "mc_variance"]
        if method in ("pwa", "both"):
            header += ["pwa_mean", "pwa_variance"]
        writer.writerow(header)
        for row in rows:
            record = [" ".join(repr(v) for v in row["theta_true"])]
            if method in ("mc", "both"):
                record += [repr(row["mc"]["mean"]), repr(row["mc"]["variance"])]
            if method in ("pwa", "both"):
                record += [repr(row["pwa"]["mean"]), repr(row["pwa"]["variance"])]
            writer.writerow(record)

    report = {"command": "table1", "config": cfg, "results": {"rows": rows}}
    _write_json(out_dir / "report.json", report)
    return report


def cmd_simulate(cfg: dict, out_dir: Path) -> dict:
    """Collect one dataset and write it as CSV and JSON."""
    seed = int(_get(cfg, "", "seed", required=True))
    root = RngStream(seed)
    model = _build_model(cfg)
    x0 = np.asarray(_get(cfg, "", "x0", default=[0.0] * model.n), dtype=float)
    dataset = _dataset_from_config(cfg, model, x0, root.child("data"))
    dataset.to_csv(out_dir / "dataset.csv")
    dataset.to_json(out_dir / "dataset.json")
    report = {"command": "simulate", "config": cfg,
              "results": {"n_exp": dataset.n_exp}}
    _write_json(out_dir / "report.json", report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stlbayes",
        description="Bayesian confidence for probabilistic STL satisfaction "
                    "of parametric stochastic LTI systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("verify", "decompose, infer and estimate the confidence"),
            ("table1", "repeat data collection and confidence per parameter"),
            ("simulate", "collect one identification dataset")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name in ("verify", "table1"):
            p.add_argument("--method", choices=["mc", "pwa", "both"],
                           default=None, help="override the config method")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON in {args.config}: {exc}",
              file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = int(args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "verify":
            cmd_verify(cfg, out_dir, method=args.method)
        elif args.command == "table1":
            cmd_table1(cfg, out_dir, method=args.method)
        else:
            cmd_simulate(cfg, out_dir)
    except (ConfigError, StlError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
