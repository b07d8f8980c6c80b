"""Decomposition of probabilistic STL requirements into leaf chance constraints.

A requirement Pr(xi |= psi at time 0) >= 1 - delta is transformed, by
structural recursion over the formula, into a conjunction of constraints of
the form Pr(alpha(x(t)) >= 0) {>=,<=} threshold on single predicates at fixed
times.
This module also holds the two factors of a leaf's Gaussian noise margin
sigma * Phi^-1(delta): the noise Gram matrix of sigma^2 (`noise_gram`) and
the normal quantile (`gaussian_quantile`); the leaf geometry in
`feasibility` combines them.

The quantile comes from the standard library, so that importing the package
loads numpy and nothing heavier: it is `statistics.NormalDist.inv_cdf`
(Wichura's algorithm AS 241, accurate to double precision).

Budget rules (node required with probability p):

* conjunction of N parts (an and, the steps of an always window, or the
  conjuncts of one until event): part i may fail with probability
  w_i (1 - p), weights w summing to one (uniform: (1 - p) / N each).
  Boole's inequality makes the split exact: the failure budgets sum to the
  parent's budget.
* disjunction of N parts: part i required with probability w_i p.  This is a
  sufficient condition only when the disjuncts are essentially disjoint,
  which holds for the interval-complement disjunctions produced by negated
  conjunctions of box predicates.
* until: the window [a, b] splits into disjoint first-hit events, event j
  required with probability w_j p; each event is a plain conjunction over
  fixed times and recurses through the conjunction rule.

The until decomposition requires every first-hit event to carry part of the
probability mass.  For windows wider than one step the per-leaf budgets of
different events demand contradictory predicate probabilities (a band and its
complement both with high probability), so the under-approximated feasible
set is empty no matter how small the per-leaf budgets are; see the package
README for the conservativeness discussion.
"""

from __future__ import annotations

from statistics import NormalDist
from typing import Optional, Union

import numpy as np

from .lti import ParametricLti
from .record import Factory, Record
from .stl import (
    Always,
    And,
    Eventually,
    Formula,
    LinearPredicate,
    Not,
    Or,
    OutputPredicate,
    Pred,
    StlError,
    TrueNode,
    Until,
    _children,
    to_nnf,
)

AT_LEAST = "at_least"
AT_MOST = "at_most"


# --- Gaussian quantile and noise margin ------------------------------------

_STANDARD_NORMAL = NormalDist()


def gaussian_quantile(delta: float) -> float:
    """Standard normal quantile Phi^{-1}(delta) for delta in (0, 1).

    Wichura's AS 241 through `statistics.NormalDist.inv_cdf`, accurate to
    double precision over the whole open interval.
    """
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {delta}")
    return _STANDARD_NORMAL.inv_cdf(delta)


def noise_gram(model: ParametricLti, t: int) -> np.ndarray:
    """Gram matrix V_t = sum_{i=1..t} A^{i-1} G Sigma_w G^T (A^T)^{i-1}.

    The variance of alpha(x(t)) induced by the process noise is
    theta_tilde^T V_t theta_tilde.
    """
    if t < 0:
        raise ValueError("time index must be nonnegative")
    n = model.n
    V = np.zeros((n, n))
    gsg = model.G @ model.Sigma_w @ model.G.T
    Ak = np.eye(n)
    for _ in range(t):
        V += Ak @ gsg @ Ak.T
        Ak = model.A @ Ak
    return V


# --- leaf constraints -------------------------------------------------------

def _path_key(path: tuple) -> str:
    """A formula-tree path as reports and `WeightScheme` key it."""
    return "/".join(map(str, path))


class ChanceConstraint(Record, eq=True):
    """Pr(alpha(x(time)) >= 0) {>=, <=} threshold for one predicate."""

    predicate: Union[LinearPredicate, OutputPredicate]
    time: int
    direction: str
    threshold: float
    label: str = ""
    path: tuple = ()

    def __post_init__(self):
        if self.direction not in (AT_LEAST, AT_MOST):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"chance-constraint threshold must lie strictly in (0, 1), "
                f"got {self.threshold!r} at path {_path_key(self.path)}")
        if self.time < 0:
            raise ValueError("time index must be nonnegative")

    def to_json_dict(self) -> dict:
        pred = self.predicate
        return {
            "label": self.label,
            "time": self.time,
            "direction": self.direction,
            "threshold": self.threshold,
            "path": _path_key(self.path),
            "space": "output" if isinstance(pred, OutputPredicate) else "state",
            "offset": pred.offset,
            "gradient": list(pred.gradient),
        }


class ConstraintGroup(Record, eq=True):
    """A conjunctive bundle of leaves; until windows yield one group per event."""

    name: str
    path: tuple
    leaves: tuple

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "path": _path_key(self.path),
            "leaves": [leaf.to_json_dict() for leaf in self.leaves],
        }


class DecompositionResult(Record, eq=True):
    groups: tuple

    def all_leaves(self) -> tuple:
        return tuple(leaf for g in self.groups for leaf in g.leaves)

    def to_json_dict(self) -> dict:
        return {"groups": [g.to_json_dict() for g in self.groups]}


class WeightError(ValueError):
    """An explicit weight vector that fits no node: its length differs from
    the node's child count, or its key names no decomposition node."""


class WeightScheme(Record, eq=True):
    """Child weights for decomposition nodes.

    A node whose formula-tree path (joined with '/') has an entry in
    `weights` takes that vector; every other node assigns 1/N to its N
    children.  Vectors must be finite, nonnegative and sum to one; their
    keys and lengths are checked against the nodes in decomposition.
    """

    weights: dict = Factory(dict)

    def __post_init__(self):
        for key, vector in self.weights.items():
            w = np.asarray(vector, dtype=float)
            if (w.ndim != 1 or not np.all(np.isfinite(w) & (w >= 0.0))
                    or abs(float(w.sum()) - 1.0) > 1e-9):
                raise ValueError(f"weights at {key!r} must be finite, "
                                 f"nonnegative and sum to 1, got {vector!r}")

    def for_node(self, path: tuple, count: int) -> np.ndarray:
        if count <= 0:
            raise ValueError("a decomposition node must have children")
        key = _path_key(path)
        if key in self.weights:
            w = np.asarray(self.weights[key], dtype=float)
            if w.shape != (count,):
                raise WeightError(f"weight vector at {key!r} has length "
                                  f"{w.size}, expected {count}")
            return w
        return np.full(count, 1.0 / count)


# --- until events -----------------------------------------------------------

def _temporal_free(f: Formula) -> bool:
    return (not isinstance(f, (Until, Eventually, Always))
            and all(map(_temporal_free, _children(f))))


def until_events(psi1: Formula, psi2: Formula, a: int, b: int, t: int):
    """First-hit events of `psi1 U[a,b] psi2` anchored at time t.

    Event j (for j = t+a .. t+b) holds when psi2 first becomes true at j
    inside the window while psi1 held beforehand:

        psi1 at t .. t+a-1,  (psi1 and not psi2) at t+a .. j-1,  psi2 at j.

    Returns a list of (j, conjuncts) with conjuncts a list of
    (formula, time) pairs; empty index ranges contribute nothing.  The
    events are pairwise disjoint.
    """
    if a > b:
        raise ValueError(f"invalid interval [{a},{b}]")
    if not (_temporal_free(psi1) and _temporal_free(psi2)):
        raise StlError("until operands must be free of nested temporal operators")
    events = []
    for j in range(t + a, t + b + 1):
        conjuncts = [(psi1, k) for k in range(t, t + a)]
        conjuncts += [(And(psi1, Not(psi2)), k) for k in range(t + a, j)]
        conjuncts.append((psi2, j))
        events.append((j, conjuncts))
    return events


# --- decomposition ----------------------------------------------------------

def _flatten_and(f: Formula):
    """Top-level conjuncts of an NNF formula, dropping trivial trues."""
    if isinstance(f, And):
        return _flatten_and(f.left) + _flatten_and(f.right)
    if isinstance(f, TrueNode):
        return []
    return [f]


class _Sink:
    """The leaves of one decomposition, by group, and the weight nodes it
    visits."""

    def __init__(self, scheme: WeightScheme):
        self.scheme = scheme
        self.nodes: set = set()
        self.groups: dict = {(): []}  # the root group first, then the events

    def weights(self, path: tuple, count: int) -> np.ndarray:
        self.nodes.add(_path_key(path))
        return self.scheme.for_node(path, count)

    def add(self, leaf: ChanceConstraint, group: tuple):
        self.groups.setdefault(group, []).append(leaf)

    def result(self) -> DecompositionResult:
        unused = sorted(set(self.scheme.weights) - self.nodes)
        if unused:
            raise WeightError(f"weight vector at {unused[0]!r} names no "
                              "decomposition node")
        return DecompositionResult(tuple(
            ConstraintGroup(str(key[-1]) if key else "root", key, tuple(leaves))
            for key, leaves in self.groups.items() if leaves))


def decompose(f: Formula, delta: float,
              weights: Optional[WeightScheme] = None) -> DecompositionResult:
    """Reduce Pr(xi |= f at time 0) >= 1 - delta to leaf chance constraints.

    The formula is normalized so negations sit on predicates, then the
    structural rules described in the module docstring apply.  All leaves
    reference absolute time steps in [0, horizon(f)].
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    sink = _Sink(weights if weights is not None else WeightScheme())
    _decompose(to_nnf(f), AT_LEAST, 1.0 - delta, 0, (), (), sink)
    return sink.result()


def _conjoin(conjuncts, threshold: float, path: tuple, group,
             sink: _Sink) -> None:
    """Boole's rule for a conjunction required with probability `threshold`.

    `conjuncts` is a list of (formula, time) pairs; their top-level
    conjuncts become the N parts, part i at path + ("c{i}",) may fail with
    probability w_i (1 - threshold), and an empty conjunction holds.
    """
    flat = [(c, k) for sub, k in conjuncts for c in _flatten_and(to_nnf(sub))]
    if not flat:
        return
    w = sink.weights(path, len(flat))
    budget = 1.0 - threshold
    for i, (c, k) in enumerate(flat):
        _decompose(c, AT_LEAST, 1.0 - w[i] * budget, k, path + (f"c{i}",),
                   group, sink)


def _decompose(f: Formula, direction: str, threshold: float, time: int,
               path: tuple, group, sink: _Sink) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(
            f"derived threshold {threshold!r} left (0, 1) at path "
            f"{_path_key(path)}; the requirement is degenerate")

    if isinstance(f, TrueNode):
        if direction == AT_LEAST:
            return
        raise ValueError("Pr(true) <= threshold < 1 is unsatisfiable")

    if isinstance(f, Pred):
        sink.add(ChanceConstraint(f.predicate, time, direction, threshold,
                                  f.name, path), group)
        return

    if isinstance(f, Not):
        inner = f.child
        if isinstance(inner, TrueNode):
            if direction == AT_MOST:
                return
            raise ValueError("Pr(not true) >= threshold > 0 is unsatisfiable")
        if isinstance(inner, Pred):
            flipped = AT_MOST if direction == AT_LEAST else AT_LEAST
            sink.add(ChanceConstraint(inner.predicate, time, flipped,
                                      1.0 - threshold, "!" + inner.name, path),
                     group)
            return
        raise StlError("negation above a non-predicate survived normalization")

    if isinstance(f, And):
        if direction == AT_LEAST:
            _conjoin([(f, time)], threshold, path, group, sink)
        else:
            # Pr(and) <= p is implied by bounding every conjunct by p.
            for i, part in enumerate(_flatten_and(f)):
                _decompose(part, AT_MOST, threshold, time, path + (f"c{i}",),
                           group, sink)
        return

    if isinstance(f, Or):
        parts = [f.left, f.right]
        w = sink.weights(path, len(parts))
        for i, part in enumerate(parts):
            _decompose(part, direction, w[i] * threshold, time,
                       path + (f"d{i}",), group, sink)
        return

    if isinstance(f, (Until, Eventually)):
        if direction == AT_MOST:
            raise StlError("upper bounds on until/eventually are outside the "
                           "supported fragment")
        left, right = ((TrueNode(), f.child) if isinstance(f, Eventually)
                       else (f.left, f.right))
        events = until_events(left, right, f.a, f.b, time)
        w = sink.weights(path, len(events))
        for idx, (j, conjuncts) in enumerate(events):
            event_path = path + (f"e{j}",)
            _conjoin(conjuncts, w[idx] * threshold, event_path, event_path,
                     sink)
        return

    if isinstance(f, Always):
        if direction == AT_MOST:
            raise StlError("upper bounds on always are outside the supported "
                           "fragment")
        _conjoin([(f.child, time + i) for i in range(f.a, f.b + 1)],
                 threshold, path, group, sink)
        return

    raise StlError(f"unknown formula node {f!r}")
