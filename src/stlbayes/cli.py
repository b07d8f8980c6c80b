"""Batch front end: config-driven verification, inference and simulation.

Configs are single JSON documents (schema documented in the README).  Every
value is read through `_field`, and the library constructors that check
values run inside `_at`, so a config error names the field's dotted path.
`_problem` checks the whole config, rejects every field that no setting
reads, and builds the model, spec, region, prior and PWA cells before any
numeric work; `_estimate` draws the MC and PWA rows, scores them in one
`likelihood_pass` with the normalizer's samples and hands them to the
estimators, once for `verify` and once per repetition for `table1`, whose
pass scores every parameter's record against the same rows.  All
randomness flows from one seed through named substreams, and `--seed` and
`--method` are written into the config, so a report can be reproduced
exactly from the config it embeds.  Exit codes: 0 success, 2 config error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .bayes import likelihood_pass, posterior
from .chance import WeightError, WeightScheme
from .confidence import (
    chebyshev_sample_size,
    mc_confidence,
    mc_draws,
    pwa_confidence,
    pwa_draws,
)
from .feasibility import (
    Cells,
    VerificationSpec,
    _mesh,
    classify_cells,
    pwa_partition,
    restrict_region,
)
from .lti import (
    Box,
    InputSampler,
    ParametricLti,
    _write_csv,
    collect_data,
    laguerre_model,
)
from .rng import RngStream
from .stl import (
    GRAMMAR_WORDS,
    LinearPredicate,
    OutputPredicate,
    StlError,
    parse_stl,
)


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


class _Reads(dict):
    """A config that records the dotted path of every value `_field` asks it
    for, present or not."""

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        self.paths: set = set()


def _field(cfg: dict, path: str, kind, default=...):
    """The value at the dotted `path` of `cfg`, checked by `kind`, else
    `default`; errors name the field's path, or its section's if that is
    not an object."""
    if isinstance(cfg, _Reads):
        cfg.paths.add(path)
    section, _, key = path.rpartition(".")
    node = _field(cfg, section, _object, {}) if section else cfg
    if key not in node:
        if default is ...:  # required
            raise ConfigError(path, "missing required field")
        return default
    with _at(path):
        return kind(node[key])


def _reject_unread(cfg: _Reads, node: dict, prefix: str = "") -> None:
    """Raise at the first field of `node` that no setting has read, looking
    into each section whose fields were asked for one by one."""
    for key, value in node.items():
        path = prefix + key
        if path not in cfg.paths:
            raise ConfigError(path, "not read: no such field, or one that "
                                    "the fields beside it leave unused")
        if isinstance(value, dict) and any(p.startswith(path + ".")
                                           for p in cfg.paths):
            _reject_unread(cfg, value, path + ".")


_MATRICES = ("A", "B", "G", "C0", "C_basis", "Sigma_w", "Sigma_e")
_OVERRIDES = ("Sigma_w", "Sigma_e", "G")  # a preset's, besides input_box


def _build_model(cfg: dict) -> ParametricLti:
    section = _field(cfg, "model", _object)
    preset = "preset" in section
    # The model's constructor checks the matrices, under "model".
    given = {key: _field(cfg, f"model.{key}", lambda v: v)
             for key in (_OVERRIDES if preset else _MATRICES) if key in section}
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
        if not name.isidentifier() or name in GRAMMAR_WORDS:
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


def _problem(cfg: dict) -> SimpleNamespace:
    """Check every config field, then build what all estimates share.

    A malformed field, or one that no setting reads, raises ConfigError
    before any numeric work.  If `restrict_region`, the search `region`
    shrinks to the hull of the cells of `pwa.per_axis` that are not
    certified infeasible (see `restrict_region`), or is kept and flagged
    `region_empty` if every cell is; `cells` are then that restriction's,
    not classified again, also under method mc, whose draws then read
    their labels for satisfaction.
    `mc_samples` None means pilot sizing, and only then is `pilot_samples`
    set; `cells` (None under method mc without the restriction), `data` and
    `table1` may be None.
    """
    cfg = _Reads(cfg)
    model = _build_model(cfg)
    spec = _build_spec(cfg, model)
    prior = _build_prior(cfg, model.d)
    problem = SimpleNamespace(
        seed=_field(cfg, "seed", _integer), model=model, spec=spec,
        prior=prior, region=_build_region(cfg, prior),
        method=_field(cfg, "method", _METHODS, "mc"),
        mc_samples=_field(cfg, "mc.samples", _count, None),
        epsilon=_field(cfg, "mc.epsilon", _positive, None),
        floor=None, pilot_samples=None,
        per_cell_samples=_field(cfg, "pwa.per_cell_samples", _count, 500),
        posterior_samples=_field(cfg, "posterior_mc_samples", _count, 4096),
        contour_grid=_field(cfg, "contour_grid", _count, 61),
        data=_build_data(cfg, model.d) if "data" in cfg else None,
        table1=_build_table1(cfg, model.d) if "table1" in cfg else None)
    if problem.mc_samples is None and problem.epsilon is not None:
        problem.floor = _field(cfg, "mc.floor", _fraction, None)
    if problem.floor is not None:  # pilot sizing
        problem.pilot_samples = _field(cfg, "mc.pilot_samples", _count, 2000)
    elif problem.mc_samples is None:
        problem.mc_samples = 10000
    per_axis = _field(cfg, "pwa.per_axis", _count, 5)
    restrict = _field(cfg, "restrict_region", _flag, False)
    _reject_unread(cfg, cfg)
    restricted, cells = problem.region, None
    if restrict:
        restricted, cells = restrict_region(spec, problem.region, per_axis)
    problem.region_empty = restricted is None
    problem.region = problem.region if restricted is None else restricted
    if cells is None and problem.method != "mc":
        cells = classify_cells(pwa_partition(problem.region, per_axis), spec)
    problem.cells = cells
    return problem


def _estimate(problem: SimpleNamespace, records: list, stream: RngStream,
              contour=None) -> list:
    """Posteriors from `records`, then the confidences `problem.method` asks
    for: one (posterior, {"mc": ..., "pwa": ...}) pair per record.

    `records` are DataSets of one length, or [None] for the prior alone.
    Draws from the substreams posterior, mc_size, mc and pwa, the same
    draws for every record.  Given `problem.cells` (method both, or a
    restricted region), MC reads satisfaction from the certified cells.
    The MC draws (under pilot sizing, the pilot's), the PWA rule's first
    round and unknown-cell points, and the rows of `contour` are made
    first, so that one `likelihood_pass` scores them with the normalizer's
    samples for every record, one or several, and each record's posterior
    reads its row.  Only the run that a pilot sizes, whose size needs the
    posterior, and the rule's later rounds evaluate densities again.
    """
    def draw_mc(n, *path):
        return mc_draws(problem.spec, problem.region, n, stream.child(*path),
                        problem.cells)

    run_mc, run_pwa = problem.method != "pwa", problem.method != "mc"
    sized = problem.mc_samples is None  # Chebyshev sizing from a pilot run
    mc = (draw_mc(problem.pilot_samples, "mc_size", "pilot") if sized
          else draw_mc(problem.mc_samples, "mc")) if run_mc else None
    pwa = (pwa_draws(problem.prior, problem.cells, problem.per_cell_samples,
                     stream.child("pwa")) if run_pwa else None)
    # The satisfying MC (or pilot) draws, the rule's first nodes and the
    # unknown cells' points, and the contour grid.
    rows = ((() if mc is None else mc[1:]) + (pwa or ())
            + (() if contour is None else (contour,)))
    args = (problem.model, problem.prior, problem.posterior_samples,
            stream.child("posterior"))
    results = []
    # The prior alone has no likelihood to score: its Z is 1 exactly.
    for data, scores in zip(records, [None] if records[0] is None
                            else likelihood_pass(records, *args, rows)):
        post = posterior(data, *args, prefetch=rows, scores=scores)
        estimates = {}
        if run_mc:
            draws = mc
            if sized:
                n, volume = problem.pilot_samples, problem.region.volume
                pilot = mc_confidence(post, problem.region, mc)
                draws = draw_mc(chebyshev_sample_size(
                    problem.epsilon, problem.floor,
                    pilot.variance_estimate * n / volume ** 2, volume), "mc")
            estimates["mc"] = mc_confidence(post, problem.region, draws,
                                            problem.epsilon)
        if run_pwa:
            estimates["pwa"] = pwa_confidence(post, problem.cells, pwa,
                                              problem.epsilon)
        results.append((post, estimates))
    return results


def _write_json(path: Path, payload: dict) -> None:
    # No indent: json.dumps then uses its C encoder.
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _reprs(values: np.ndarray) -> list:
    """repr of every float in `values`, nested as `values.tolist()` is, with
    one repr per distinct value.  Values are keyed on their bits, so -0.0
    and 0.0 keep their own text."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, index = np.unique(values.view(np.int64).ravel(),
                            return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(float).tolist()],
                     dtype=object)
    return texts[index.reshape(values.shape)].tolist()


def _contour_points(region: Box, grid: int):
    """The contour's (grid^2, 2) points, theta_1 outer and theta_2 inner, or
    None unless the region has 2 dimensions."""
    if region.lower.shape[0] != 2:
        return None
    return _mesh([np.linspace(lo, hi, grid)
                  for lo, hi in zip(region.lower, region.upper)])


def _write_contour(path: Path, post, points: np.ndarray) -> None:
    _write_csv(path, ["theta_1", "theta_2", "density"],
               _reprs(np.vstack([points.T, post.density(points)])))


def _write_cells(path: Path, cells: Cells) -> None:
    d = cells.lower.shape[1]
    header = ([f"theta_lo_{i+1}" for i in range(d)]
              + [f"theta_hi_{i+1}" for i in range(d)] + ["label"])
    # Cell c's bounds on axis i are edges[i][k] and edges[i][k + 1], with k
    # its index on that axis.
    index = np.unravel_index(np.arange(len(cells)),
                             [e.size - 1 for e in cells.edges])
    texts = [np.array([repr(v) for v in e.tolist()], dtype=object)
             for e in cells.edges]
    bounds = ([t[k].tolist() for t, k in zip(texts, index)]
              + [t[k + 1].tolist() for t, k in zip(texts, index)])
    _write_csv(path, header, [*bounds, cells.label.tolist()])


def cmd_verify(cfg: dict, out_dir: Path) -> dict:
    """Full pipeline: decompose, restrict, infer, estimate confidence."""
    problem = _problem(cfg)
    root = RngStream(problem.seed)
    dataset, data = None, problem.data
    if data is not None:
        dataset = collect_data(problem.model, data.theta_true, data.sampler,
                               data.n_exp, problem.spec.x0, root.child("data"))
        dataset.to_csv(out_dir / "dataset.csv")
    region = problem.region
    contour = _contour_points(region, problem.contour_grid)
    post, estimates = _estimate(problem, [dataset], root, contour)[0]
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
    if problem.method != "mc":  # the PWA partition; mc may read its labels
        _write_cells(out_dir / "feasible_cells.csv", problem.cells)
    if contour is None:
        results["contour"] = {
            "written": False,
            "reason": f"posterior_contour.csv plots 2 parameters; the model "
                      f"has {problem.model.d}"}
    else:
        _write_contour(out_dir / "posterior_contour.csv", post, contour)
    report = {"command": "verify", "config": cfg, "results": results}
    _write_json(out_dir / "report.json", report)
    return report


def cmd_table1(cfg: dict, out_dir: Path) -> dict:
    """Repeated data collection and confidence estimation per true parameter."""
    _field(cfg, "table1", _object)  # before _problem's numeric work
    problem = _problem(cfg)
    table1, reps = problem.table1, problem.table1.reps
    root = RngStream(problem.seed)
    names = [name for name in ("mc", "pwa") if problem.method in (name, "both")]
    header = ["theta_true"]
    for name in names:
        header += [f"{name}_mean", f"{name}_variance"]
    # Repetition r scores every parameter's record against the draws of
    # estimate (0, r), so a repetition's parameters share their draws and
    # the repetitions stay independent.
    values = [{name: [] for name in names} for _ in table1.thetas]
    for rep in range(reps):
        data = [collect_data(problem.model, theta_true, table1.sampler,
                             table1.n_exp, problem.spec.x0,
                             root.child("table1", ti, rep, "data"))
                for ti, theta_true in enumerate(table1.thetas)]
        for vals, (_, estimates) in zip(values, _estimate(
                problem, data, root.child("table1", 0, rep))):
            for name, est in estimates.items():
                vals[name].append(est.value)
    rows, records = [], []
    for theta_true, found in zip(table1.thetas, values):
        row = {"theta_true": list(map(float, theta_true)), "repetitions": reps}
        record = [" ".join(map(repr, row["theta_true"]))]
        for name, vals in found.items():
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
    _write_csv(out_dir / "table1.csv", header, zip(*records))

    report = {"command": "table1", "config": cfg, "results": {"rows": rows}}
    _write_json(out_dir / "report.json", report)
    return report


def cmd_simulate(cfg: dict, out_dir: Path) -> dict:
    """Collect one dataset and write it as CSV and JSON.

    Only the sections it reads, `seed`, `model`, `x0` and `data`, are
    checked for unread fields, so a verify config serves as it is."""
    reads = _Reads(cfg)
    seed = _field(reads, "seed", _integer)
    model = _build_model(reads)
    x0 = _field(reads, "x0", _vector(model.n), [0.0] * model.n)
    data = _build_data(reads, model.d)
    _reject_unread(reads, {key: value for key, value in cfg.items()
                           if key in ("seed", "model", "x0", "data")})
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
    if getattr(args, "method", None) is not None:
        cfg["method"] = args.method

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "verify":
            cmd_verify(cfg, out_dir)
        elif args.command == "table1":
            cmd_table1(cfg, out_dir)
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
