"""Spans around the program's layer calls, recorded from outside the program.

`instrument` replaces each layer's public function, wherever a `stlbayes`
module holds it, and each layer method on its class, by a wrapper that opens
a span, calls the original and closes the span.  A span has a name, a start,
an end, its parent and the counts its hook takes from the call.  Spans stay
in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import Counter

import numpy as np


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _count_decompose(args, kwargs, result):
    return {"leaves": len(result.all_leaves())}


def _count_sat(args, kwargs, result):
    return {"thetas": _rows(args[1]), "hits": int(np.count_nonzero(result))}


def _count_classify(args, kwargs, result):
    return dict(Counter(f"cells_{cell.label}" for cell in result))


def _count_normalizer(args, kwargs, result):
    return {"thetas": int(result.mc_samples), "z": float(result.z),
            "z_std_error": float(result.z_std_error)}


def _count_density(args, kwargs, result):
    return {"thetas": _rows(args[1])}


def _count_pwa(args, kwargs, result):
    cells = args[1] if len(args) > 1 else kwargs["cells"]
    return {"cells_integrated": sum(cell.label != "infeasible"
                                    for cell in cells)}


# (span name, module, function or Class.method, count hook)
LAYERS = (
    ("chance.decompose", "stlbayes.chance", "decompose", _count_decompose),
    ("feasibility.spec", "stlbayes.feasibility", "VerificationSpec.__init__",
     None),
    ("feasibility.sat", "stlbayes.feasibility",
     "VerificationSpec.satisfaction_batch", _count_sat),
    ("feasibility.classify", "stlbayes.feasibility", "classify_cells",
     _count_classify),
    ("bayes.normalizer", "stlbayes.bayes", "posterior", _count_normalizer),
    ("bayes.density", "stlbayes.bayes", "PosteriorDensity.density",
     _count_density),
    ("confidence.mc", "stlbayes.confidence", "mc_confidence", None),
    ("confidence.pwa", "stlbayes.confidence", "pwa_confidence", _count_pwa),
    ("lti.collect", "stlbayes.lti", "collect_data", None),
)


class Recorder:
    """In-memory spans; `open`/`close` nest by a stack (one thread)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str, **counts) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")


def _wrap(recorder, name, fn, count, on_return, around):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name) if recorder is not None else None
        try:
            with around() if around is not None else contextlib.nullcontext():
                result = fn(*args, **kwargs)
            if span is not None and count is not None:
                try:
                    span["counts"].update(count(args, kwargs, result))
                except (AttributeError, TypeError, KeyError, IndexError):
                    span["counts"]["count_failed"] = 1
        finally:
            if span is not None:
                recorder.close(span)
        if on_return is not None:
            on_return(name, args, kwargs, result)
        return result
    return wrapper


def replace_everywhere(original, wrapped) -> list:
    """Point each `stlbayes` module attribute holding `original` at `wrapped`.

    Returns the (module, name, original) triples that undo it.
    """
    undo = []
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "stlbayes":
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)
                undo.append((module, name, original))
    return undo


def restorer(undo: list):
    """A function that puts back what `undo` lists, last change first."""
    def restore():
        for target, key, value in reversed(undo):
            setattr(target, key, value)
    return restore


def instrument(recorder=None, on_return=None, around=None):
    """Wrap every layer entry point; returns a function that undoes it.

    With a recorder each call records a span; `on_return(name, args, kwargs,
    result)` sees each result after its span closed.  `around` maps span
    names to context-manager factories entered around the original call.
    A layer the program no longer has is reported on stderr and left out.
    """
    around = around or {}
    undo = []
    for name, module_name, attr, count in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(method) if owner is not None else None
        if original is None:
            print(f"trace: {module_name}.{attr} not found; {name} is not "
                  "recorded", file=sys.stderr)
            continue
        wrapped = _wrap(recorder, name, original, count, on_return,
                        around.get(name))
        if owner_name:
            setattr(owner, method, wrapped)
            undo.append((owner, method, original))
        else:
            undo.extend(replace_everywhere(original, wrapped))
    return restorer(undo)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list) -> tuple:
    """Per-layer metrics of traced rounds, as medians over the rounds.

    A round opens with a `cli.verify` root span and holds the root spans up
    to the next one.  Times are self times summed over the round, work
    counts are summed over it; leaves, cell labels and the normalizer's
    relative error come from the round's verify call.  Returns (metrics,
    rounds), where each round also lists, per command, the call's time as
    the worker measured it (`elapsed_s`, no span involved) and the sum of
    the self times of its spans (`self_sum_s`).
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    root_of, rounds = {}, []
    for s in spans:
        root_of[s["id"]] = (s["id"] if s["parent"] is None
                            else root_of[s["parent"]])
        if s["parent"] is None and s["name"] == "cli.verify":
            rounds.append({"roots": []})
        if s["parent"] is None:
            rounds[-1]["roots"].append(s["id"])
    round_of = {root: i for i, r in enumerate(rounds) for root in r["roots"]}
    per_round = []
    for i, r in enumerate(rounds):
        members = [s for s in spans if round_of[root_of[s["id"]]] == i]
        t = {}
        for s in members:
            t[s["name"]] = t.get(s["name"], 0.0) + own[s["id"]]

        def total(name, key):
            return sum(s["counts"].get(key, 0) for s in members
                       if s["name"] == name)

        def first_in_verify(name):
            return next((s for s in members if s["name"] == name
                         and by_id[root_of[s["id"]]]["name"] == "cli.verify"),
                        {"counts": {}})

        mc_sat = [s for s in members if s["name"] == "feasibility.sat"
                  and s["parent"] is not None
                  and by_id[s["parent"]]["name"] == "confidence.mc"]
        mc_thetas = sum(s["counts"].get("thetas", 0) for s in mc_sat)
        loglik = total("bayes.normalizer", "thetas") + total("bayes.density",
                                                             "thetas")
        cells = first_in_verify("feasibility.classify")["counts"]
        norm = first_in_verify("bayes.normalizer")["counts"]
        like_s = t.get("bayes.normalizer", 0.0) + t.get("bayes.density", 0.0)
        per_round.append({
            "chance.decompose_s": t.get("chance.decompose", 0.0),
            "chance.leaves": first_in_verify("chance.decompose")["counts"]
            .get("leaves", 0),
            "feasibility.spec_s": t.get("feasibility.spec", 0.0),
            "feasibility.sat_s": t.get("feasibility.sat", 0.0),
            "feasibility.sat_thetas": total("feasibility.sat", "thetas"),
            "feasibility.classify_s": t.get("feasibility.classify", 0.0),
            "feasibility.cells_feasible": cells.get("cells_feasible", 0),
            "feasibility.cells_infeasible": cells.get("cells_infeasible", 0),
            "feasibility.cells_unknown": cells.get("cells_unknown", 0),
            "bayes.normalizer_s": t.get("bayes.normalizer", 0.0),
            "bayes.density_s": t.get("bayes.density", 0.0),
            "bayes.density_calls": sum(s["name"] == "bayes.density"
                                       for s in members),
            "bayes.loglik_thetas": loglik,
            "bayes.loglik_us_per_theta": 1e6 * like_s / loglik if loglik else 0.0,
            "bayes.z_rel_se": (norm["z_std_error"] / norm["z"]
                               if norm.get("z") else 0.0),
            "confidence.mc_self_s": t.get("confidence.mc", 0.0),
            "confidence.mc_hit_ratio": (sum(s["counts"].get("hits", 0)
                                             for s in mc_sat)
                                        / mc_thetas if mc_thetas else 0.0),
            "confidence.pwa_self_s": t.get("confidence.pwa", 0.0),
            "confidence.pwa_cells_integrated": total("confidence.pwa",
                                                     "cells_integrated"),
            "lti.collect_s": t.get("lti.collect", 0.0),
            "cli.self_s": t.get("cli.verify", 0.0) + t.get("cli.table1", 0.0),
            "cli.output_bytes": sum(by_id[root]["counts"].get("output_bytes", 0)
                                    for root in r["roots"]),
        })
        r["commands"] = [
            {"name": by_id[root]["name"],
             "elapsed_s": by_id[root]["counts"].get("elapsed_s"),
             "self_sum_s": sum(own[s["id"]] for s in members
                               if root_of[s["id"]] == root)}
            for root in r["roots"]]
    metrics = {name: statistics.median(p[name] for p in per_round)
               for name in per_round[0]} if per_round else {}
    return metrics, rounds
