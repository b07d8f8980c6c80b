"""Batch front end: config-driven verification, inference and simulation.

Configs are single JSON documents (schema documented in the README).  Every
value is read through `_field`, and the library constructors that check
values run inside `_at`, so a config error names the field's dotted path.
`_problem` checks the whole config and builds the model, spec, region, prior
and PWA cells before any numeric work; `_estimate` runs posterior, MC and PWA
on them, once for `verify` and once per parameter and repetition for
`table1`.  All randomness flows from one seed through named substreams, so
a report can be reproduced exactly from the config it embeds.  Exit codes:
0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .bayes import posterior
from .chance import WeightError, WeightScheme
from .confidence import chebyshev_sample_size, mc_confidence, pwa_confidence
from .feasibility import (
    Cells,
    VerificationSpec,
    classify_cells,
    pwa_partition,
    restrict_region,
)
from .lti import Box, InputSampler, ParametricLti, collect_data, laguerre_model
from .rng import RngStream
from .stl import OutputPredicate, LinearPredicate, StlError, parse_stl


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


@contextmanager
def _at(path: str):
    """Turn a ValueError or TypeError (StlError too) into a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except WeightError as exc:  # found in decomposition, under "formula"
        raise ConfigError("weights.weights", str(exc)) from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _expect(what: str, test):
    """A field kind: returns the values `test` accepts, rejects the rest."""
    def kind(value):
        if not test(value):
            raise ValueError(f"expected {what}, got {value!r}")
        return value
    return kind


def _real(v) -> bool:
    # bool is an int subclass, but no number here.
    return type(v) is int or type(v) is float and math.isfinite(v)


def _vector(n: int):
    return _expect(f"a list of {n} finite numbers", lambda v: isinstance(
        v, list) and len(v) == n and all(map(_real, v)))


def _choice(*names):
    return _expect(" or ".join(map(repr, names)), lambda v: v in names)


_number = _expect("a finite number", _real)
_positive = _expect("a number > 0", lambda v: _real(v) and v > 0)
_fraction = _expect("a number in (0, 1)", lambda v: _real(v) and 0 < v < 1)
_integer = _expect("an integer", lambda v: type(v) is int)
_count = _expect("an integer >= 1", lambda v: type(v) is int and v >= 1)
_flag = _expect("true or false", lambda v: isinstance(v, bool))
_text = _expect("a string", lambda v: isinstance(v, str))
_object = _expect("an object", lambda v: isinstance(v, dict))
_pair = _expect("[lower, upper]", lambda v: isinstance(v, list) and len(v) == 2)
_METHODS = _choice("mc", "pwa", "both")


def _field(cfg: dict, path: str, kind, default=...):
    """The value at the dotted `path` of `cfg`, checked by `kind`, else
    `default`; errors name the field's path, or its section's if that is
    not an object."""
    section, _, key = path.rpartition(".")
    node = _field(cfg, section, _object, {}) if section else cfg
    if key not in node:
        if default is ...:  # required
            raise ConfigError(path, "missing required field")
        return default
    with _at(path):
        return kind(node[key])


def _unread(cfg: dict, path: str, why: str) -> None:
    """Reject a field that this config leaves unread, saying `why`."""
    section, _, key = path.rpartition(".")
    if key in (_field(cfg, section, _object, {}) if section else cfg):
        raise ConfigError(path, why)


_MATRICES = ("A", "B", "G", "C0", "C_basis", "Sigma_w", "Sigma_e")
_OVERRIDES = ("Sigma_w", "Sigma_e", "G")  # a preset's, besides input_box
_INPUT_BOX = "not a config field; model.input_box sets the admissible inputs"


def _build_model(cfg: dict) -> ParametricLti:
    section = _field(cfg, "model", _object)
    _unread(cfg, "model.input_lower", _INPUT_BOX)
    _unread(cfg, "model.input_upper", _INPUT_BOX)
    preset = "preset" in section
    given = {key: section[key] for key in (_OVERRIDES if preset else _MATRICES)
             if key in section}
    if "input_box" in section or not preset:  # a preset's is optional
        lower, upper = _field(cfg, "model.input_box", _pair)
        with _at("model.input_box"):
            given["input_box"] = Box(lower, upper)
    if preset:
        _field(cfg, "model.preset", _choice("laguerre"))
        a = _field(cfg, "model.a", _number)
        with _at("model.a"):
            model = laguerre_model(a)
        with _at("model"):
            return model.with_overrides(**given)
    missing = [key for key in _MATRICES if key not in given]
    if missing:
        raise ConfigError(f"model.{missing[0]}", "missing required field")
    with _at("model"):
        return ParametricLti(**given)


def _build_predicates(cfg: dict, model: ParametricLti) -> dict:
    table = {}
    for name in _field(cfg, "predicates", _object, {}):
        if not name.isidentifier():
            # A formula cannot name it, and a dot would split its path.
            raise ConfigError("predicates", f"{name!r} is not a predicate name")
        path = f"predicates.{name}"
        entry = _field(cfg, path, _object)
        offset = _field(cfg, f"{path}.offset", _number)
        if "output_gradient" in entry:
            table[name] = OutputPredicate(offset, tuple(_field(
                cfg, f"{path}.output_gradient", _vector(model.p))))
        elif "state_gradient" in entry:
            table[name] = LinearPredicate(offset, tuple(_field(
                cfg, f"{path}.state_gradient", _vector(model.n))))
        else:
            raise ConfigError(path, "need output_gradient or state_gradient")
    return table


def _build_spec(cfg: dict, model: ParametricLti) -> VerificationSpec:
    table = _build_predicates(cfg, model)
    text = _field(cfg, "formula", _text)
    with _at("formula"):
        formula = parse_stl(text, table)
    _unread(cfg, "input_box", _INPUT_BOX)
    _unread(cfg, "weights.mode", "not a config field; a node with an entry in "
                                 "weights.weights takes it, every other node "
                                 "uniform shares")
    _unread(cfg, "gamma_form", "not a config field; the noise margin is "
                               "sigma * Phi^-1(delta)")
    _unread(cfg, "literal_shares", "not a config field; conjunct i may fail "
                                   "with w_i times its parent's budget")
    with _at("weights.weights"):
        scheme = WeightScheme(_field(cfg, "weights.weights", _object, {}))
    # The fields are checked at their own paths before the spec is built.
    with _at("formula"):
        return VerificationSpec(
            model=model, formula=formula,
            delta=_field(cfg, "delta", _fraction),
            x0=_field(cfg, "x0", _vector(model.n), [0.0] * model.n),
            weights=scheme)


def _build_prior(cfg: dict, d: int) -> Box:
    """The support of the uniform prior, the only `prior.kind`."""
    _field(cfg, "prior.kind", _choice("uniform_box"), "uniform_box")
    lower = _field(cfg, "prior.lower", _vector(d))
    upper = _field(cfg, "prior.upper", _vector(d))
    with _at("prior"):
        prior = Box(lower, upper)
    if not prior.volume > 0.0:
        raise ConfigError("prior", "support must have positive volume")
    return prior


def _build_region(cfg: dict, prior: Box) -> Box:
    d = prior.lower.shape[0]
    lower = _field(cfg, "theta_region.lower", _vector(d))
    upper = _field(cfg, "theta_region.upper", _vector(d))
    with _at("theta_region"):
        region = Box(lower, upper)
    if np.any(np.minimum(region.upper, prior.upper)
              <= np.maximum(region.lower, prior.lower)):
        raise ConfigError("theta_region", "does not overlap the prior support "
                                          "with positive volume")
    return region


def _build_sampler(cfg: dict, path: str) -> InputSampler:
    kind = _field(cfg, f"{path}.kind", _choice("uniform", "gaussian"),
                  "uniform")
    if kind == "uniform":
        values = dict(low=float(_field(cfg, f"{path}.low", _number, -1.0)),
                      high=float(_field(cfg, f"{path}.high", _number, 1.0)))
    else:
        values = dict(mean=float(_field(cfg, f"{path}.mean", _number, 0.0)),
                      std=float(_field(cfg, f"{path}.std", _number, 1.0)))
    with _at(path):
        return InputSampler(kind, **values)


def _build_data(cfg: dict, d: int) -> SimpleNamespace:
    return SimpleNamespace(theta_true=_field(cfg, "data.theta_true", _vector(d)),
                           sampler=_build_sampler(cfg, "data.input"),
                           n_exp=_field(cfg, "data.n_exp", _count))


def _build_table1(cfg: dict, d: int) -> SimpleNamespace:
    thetas = _field(cfg, "table1.theta_true_list", _expect(
        "a non-empty list", lambda v: isinstance(v, list) and len(v) > 0))
    for i, theta in enumerate(thetas):
        with _at(f"table1.theta_true_list[{i}]"):
            _vector(d)(theta)
    return SimpleNamespace(thetas=thetas,
                           reps=_field(cfg, "table1.repetitions", _count),
                           n_exp=_field(cfg, "table1.n_exp", _count, 50),
                           sampler=_build_sampler(cfg, "table1.input"))


def _problem(cfg: dict, method: str | None) -> SimpleNamespace:
    """Check every config field, then build what all estimates share.

    A malformed field raises ConfigError before any numeric work.  If
    `restrict_region`, the search `region` shrinks to the hull of the cells
    of `pwa.per_axis` that are not certified infeasible (see
    `restrict_region`), or is kept and flagged `region_empty` if every cell
    is; `cells` are then that restriction's, not classified again.
    `mc_samples` None means pilot sizing, and only then is `pilot_samples`
    set; `cells` (None under method mc), `data` and `table1` may be None.
    """
    model = _build_model(cfg)
    spec = _build_spec(cfg, model)
    prior = _build_prior(cfg, model.d)
    method = (_METHODS(method) if method
              else _field(cfg, "method", _METHODS, "mc"))
    problem = SimpleNamespace(
        seed=_field(cfg, "seed", _integer), model=model, spec=spec,
        prior=prior, region=_build_region(cfg, prior), method=method,
        mc_samples=_field(cfg, "mc.samples", _count, None),
        epsilon=_field(cfg, "mc.epsilon", _positive, None),
        floor=_field(cfg, "mc.floor", _fraction, None), pilot_samples=None,
        per_cell_samples=_field(cfg, "pwa.per_cell_samples", _count, 500),
        posterior_samples=_field(cfg, "posterior_mc_samples", _count, 4096),
        contour_grid=_field(cfg, "contour_grid", _count, 61),
        data=_build_data(cfg, model.d) if "data" in cfg else None,
        table1=_build_table1(cfg, model.d) if "table1" in cfg else None)
    if problem.floor is not None and (problem.mc_samples is not None
                                      or problem.epsilon is None):
        raise ConfigError("mc.floor", "only the pilot sizing reads it, and "
                                      "that needs mc.epsilon and no mc.samples")
    if problem.floor is None:
        _unread(cfg, "mc.pilot_samples", "only the pilot sizing reads it, "
                                         "and that needs mc.floor")
        if problem.mc_samples is None:
            problem.mc_samples = 10000
    else:
        problem.pilot_samples = _field(cfg, "mc.pilot_samples", _count, 2000)
    per_axis = _field(cfg, "pwa.per_axis", _count, 5)
    _unread(cfg, "restrict_grid", "not a config field; restrict_region "
                                  "classifies the cells of pwa.per_axis")
    restricted, cells = problem.region, None
    if _field(cfg, "restrict_region", _flag, False):
        restricted, cells = restrict_region(spec, problem.region, per_axis)
    problem.region_empty = restricted is None
    problem.region = problem.region if restricted is None else restricted
    if cells is None and method != "mc":
        cells = classify_cells(pwa_partition(problem.region, per_axis), spec)
    problem.cells = None if method == "mc" else cells
    return problem


def _estimate(problem: SimpleNamespace, data, stream: RngStream):
    """Posterior from `data`, then the confidences `problem.method` asks for.

    Returns the posterior and the ConfidenceEstimates by method name, "mc"
    and "pwa".  Draws from the substreams posterior, mc_size, mc and pwa.
    Under method both, MC reads satisfaction from the certified cells.
    """
    post = posterior(data, problem.model, problem.prior,
                     problem.posterior_samples, stream.child("posterior"))
    estimates = {}
    if problem.method in ("mc", "both"):
        n, volume = problem.mc_samples, problem.region.volume
        if n is None:  # Chebyshev sizing from a pilot run's variance
            pilot = mc_confidence(post, problem.spec, problem.region,
                                  problem.pilot_samples,
                                  stream.child("mc_size", "pilot"),
                                  cells=problem.cells)
            n = chebyshev_sample_size(
                problem.epsilon, problem.floor, pilot.variance_estimate
                * problem.pilot_samples / volume ** 2, volume)
        estimates["mc"] = mc_confidence(post, problem.spec, problem.region, n,
                                        stream.child("mc"),
                                        epsilon=problem.epsilon,
                                        cells=problem.cells)
    if problem.method in ("pwa", "both"):
        estimates["pwa"] = pwa_confidence(post, problem.cells,
                                          problem.per_cell_samples,
                                          stream.child("pwa"),
                                          epsilon=problem.epsilon)
    return post, estimates


def _write_json(path: Path, payload: dict) -> None:
    # No indent: json.dumps then uses its C encoder.
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    # Every field is a header, a label or a repr'd float, none of which the
    # csv module would quote, so each line is the fields joined by "," and
    # ended by "\r\n", the bytes csv.writer gives.  Lines are streamed, so
    # the file is never held whole in memory.
    with path.open("w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n"
                      for row in itertools.chain([header], rows))


def _write_contour(path: Path, post, region: Box, grid: int) -> None:
    if region.lower.shape[0] != 2:
        return
    xs = np.linspace(region.lower[0], region.upper[0], grid)
    ys = np.linspace(region.lower[1], region.upper[1], grid)
    points = np.column_stack([np.repeat(xs, grid), np.tile(ys, grid)])
    density = map(repr, post.density(points).tolist())
    axes = itertools.product(map(repr, xs.tolist()), map(repr, ys.tolist()))
    _write_csv(path, ["theta_1", "theta_2", "density"],
               ((x, y, z) for (x, y), z in zip(axes, density)))


def _write_cells(path: Path, cells: Cells | None) -> None:
    if cells is None:  # method mc
        return
    d = cells.lower.shape[1]
    header = ([f"theta_lo_{i+1}" for i in range(d)]
              + [f"theta_hi_{i+1}" for i in range(d)] + ["label"])
    bounds = np.hstack([cells.lower, cells.upper]).tolist()
    _write_csv(path, header, ([*map(repr, row), label] for row, label
                              in zip(bounds, cells.label.tolist())))


def cmd_verify(cfg: dict, out_dir: Path, method: str | None = None) -> dict:
    """Full pipeline: decompose, restrict, infer, estimate confidence."""
    problem = _problem(cfg, method)
    root = RngStream(problem.seed)
    dataset, data = None, problem.data
    if data is not None:
        dataset = collect_data(problem.model, data.theta_true, data.sampler,
                               data.n_exp, problem.spec.x0, root.child("data"))
        dataset.to_csv(out_dir / "dataset.csv")
    post, estimates = _estimate(problem, dataset, root)
    region = problem.region
    results = {
        "region": {"lower": region.lower.tolist(),
                   "upper": region.upper.tolist(),
                   "empty": problem.region_empty},
        "normalizer": {"log_z": post.log_z, "z": post.z,
                       "std_error": post.z_std_error,
                       "z_rel_error": post.z_rel_error,
                       "mc_samples": post.mc_samples},
        "decomposition": problem.spec.decomposition.to_json_dict(),
        **{name: est.to_json_dict() for name, est in estimates.items()},
    }
    _write_cells(out_dir / "feasible_cells.csv", problem.cells)
    _write_contour(out_dir / "posterior_contour.csv", post, region,
                   problem.contour_grid)
    report = {"command": "verify", "config": cfg, "results": results}
    _write_json(out_dir / "report.json", report)
    return report


def cmd_table1(cfg: dict, out_dir: Path, method: str | None = None) -> dict:
    """Repeated data collection and confidence estimation per true parameter."""
    _field(cfg, "table1", _object)  # before _problem's numeric work
    problem = _problem(cfg, method)
    table1, reps = problem.table1, problem.table1.reps
    root = RngStream(problem.seed)
    names = [name for name in ("mc", "pwa") if problem.method in (name, "both")]
    header = ["theta_true"]
    for name in names:
        header += [f"{name}_mean", f"{name}_variance"]
    rows, records = [], []
    for ti, theta_true in enumerate(table1.thetas):
        values: dict = {name: [] for name in names}
        for rep in range(reps):
            stream = root.child("table1", ti, rep)
            data = collect_data(problem.model, theta_true, table1.sampler,
                                table1.n_exp, problem.spec.x0,
                                stream.child("data"))
            for name, est in _estimate(problem, data, stream)[1].items():
                values[name].append(est.value)
        row = {"theta_true": list(map(float, theta_true)), "repetitions": reps}
        record = [" ".join(map(repr, row["theta_true"]))]
        for name, vals in values.items():
            row[name] = {
                "mean": float(np.mean(vals)),
                "variance": float(np.var(vals, ddof=1)) if reps > 1 else 0.0,
                "values": vals,
            }
            if reps == 1:
                row[name]["warning"] = ("variance reported as 0 from a "
                                        "single repetition")
            record += [repr(row[name]["mean"]), repr(row[name]["variance"])]
        rows.append(row)
        records.append(record)
    _write_csv(out_dir / "table1.csv", header, records)

    report = {"command": "table1", "config": cfg, "results": {"rows": rows}}
    _write_json(out_dir / "report.json", report)
    return report


def cmd_simulate(cfg: dict, out_dir: Path) -> dict:
    """Collect one dataset and write it as CSV and JSON."""
    seed = _field(cfg, "seed", _integer)
    model = _build_model(cfg)
    x0 = _field(cfg, "x0", _vector(model.n), [0.0] * model.n)
    data = _build_data(cfg, model.d)
    dataset = collect_data(model, data.theta_true, data.sampler, data.n_exp,
                           x0, RngStream(seed).child("data"))
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

    try:  # unreadable, invalid JSON, or not a JSON object
        cfg = _object(json.loads(Path(args.config).read_text()))
    except (OSError, ValueError) as exc:
        print(f"config error: cannot load {args.config}: {exc}", file=sys.stderr)
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
