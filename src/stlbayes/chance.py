"""Decomposition of probabilistic STL requirements into leaf chance constraints.

A requirement Pr(xi |= psi at time 0) >= 1 - delta is transformed, by
structural recursion over the formula, into a conjunction of constraints of
the form Pr(alpha(x(t)) >= 0) {>=,<=} threshold on single predicates at fixed
times.  The result is the flat list of these leaves in depth-first order of
the formula tree, the order in which the report lists them; each leaf keeps
its tree path, so `e3/c1` is conjunct 1 of until event 3.

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

from typing import Optional, Union

import numpy as np

from .record import Record
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


class DecompositionResult(Record, eq=True):
    """The leaves of one decomposition, in decomposition order."""

    leaves: tuple

    def all_leaves(self) -> tuple:
        return self.leaves

    def to_json_dict(self) -> dict:
        return {"leaves": [leaf.to_json_dict() for leaf in self.leaves]}


class WeightError(ValueError):
    """An explicit weight vector that fits no node: its length differs from
    the node's child count, or its key names no decomposition node."""


class WeightScheme(Record, eq=True):
    """Child weights for decomposition nodes.

    A node whose formula-tree path (joined with '/') has an entry in
    `weights` takes that vector; every other node assigns 1/N to its N
    children.  Vectors must be finite, nonnegative and sum to one; their
    keys and lengths are checked against the nodes in decomposition.
    `None` stands for a fresh empty dict.
    """

    weights: Optional[dict] = None

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", {})
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


def until_events(psi1: Formula, psi2: Formula, a: int, b: int, t: int,
                 operator: str = "U"):
    """First-hit events of `psi1 U[a,b] psi2` anchored at time t.

    Event j (for j = t+a .. t+b) holds when psi2 first becomes true at j
    inside the window while psi1 held beforehand:

        psi1 at t .. t+a-1,  (psi1 and not psi2) at t+a .. j-1,  psi2 at j.

    Returns a list of (j, conjuncts) with conjuncts a list of
    (formula, time) pairs; empty index ranges contribute nothing.  The
    events are pairwise disjoint.  The error on temporal operands names
    `operator`, "F" for an eventually (psi1 true) and "U" otherwise.
    """
    if a > b:
        raise ValueError(f"invalid interval [{a},{b}]")
    if not (_temporal_free(psi1) and _temporal_free(psi2)):
        raise StlError(f"{operator}[{a},{b}] operands must be free of nested "
                       "temporal operators")
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


def decompose(f: Formula, delta: float,
              weights: Optional[WeightScheme] = None) -> DecompositionResult:
    """Reduce Pr(xi |= f at time 0) >= 1 - delta to leaf chance constraints.

    The formula is normalized so negations sit on predicates, then the
    structural rules described in the module docstring apply.  All leaves
    reference absolute time steps in [0, horizon(f)].  A weight key that
    names no node the decomposition visits raises `WeightError`.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    scheme = weights if weights is not None else WeightScheme()
    visited = set()

    def weigh(path: tuple, count: int) -> np.ndarray:
        visited.add(_path_key(path))
        return scheme.for_node(path, count)

    leaves = _decompose(to_nnf(f), AT_LEAST, 1.0 - delta, 0, (), weigh)
    unused = sorted(set(scheme.weights) - visited)
    if unused:
        raise WeightError(f"weight vector at {unused[0]!r} names no "
                          "decomposition node")
    return DecompositionResult(tuple(leaves))


def _conjoin(conjuncts, threshold: float, path: tuple, weigh) -> list:
    """Boole's rule for a conjunction required with probability `threshold`.

    `conjuncts` is a list of (formula, time) pairs; their top-level
    conjuncts become the N parts, part i at path + ("c{i}",) may fail with
    probability w_i (1 - threshold), and an empty conjunction holds.
    """
    flat = [(c, k) for sub, k in conjuncts for c in _flatten_and(to_nnf(sub))]
    if not flat:
        return []
    w = weigh(path, len(flat))
    budget = 1.0 - threshold
    return [leaf for i, (c, k) in enumerate(flat)
            for leaf in _decompose(c, AT_LEAST, 1.0 - w[i] * budget, k,
                                   path + (f"c{i}",), weigh)]


def _decompose(f: Formula, direction: str, threshold: float, time: int,
               path: tuple, weigh) -> list:
    """The leaves of `f` at `time`, required {at least, at most} with
    probability `threshold`; `weigh(path, count)` gives a node's child
    weights."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(
            f"derived threshold {threshold!r} left (0, 1) at path "
            f"{_path_key(path)}; the requirement is degenerate")

    if isinstance(f, TrueNode):
        if direction == AT_LEAST:
            return []
        raise ValueError("Pr(true) <= threshold < 1 is unsatisfiable")

    if isinstance(f, Pred):
        return [ChanceConstraint(f.predicate, time, direction, threshold,
                                 f.name, path)]

    if isinstance(f, Not):
        inner = f.child
        if isinstance(inner, TrueNode):
            if direction == AT_MOST:
                return []
            raise ValueError("Pr(not true) >= threshold > 0 is unsatisfiable")
        if isinstance(inner, Pred):
            flipped = AT_MOST if direction == AT_LEAST else AT_LEAST
            return [ChanceConstraint(inner.predicate, time, flipped,
                                     1.0 - threshold, "!" + inner.name, path)]
        raise StlError("negation above a non-predicate survived normalization")

    if isinstance(f, And):
        if direction == AT_LEAST:
            return _conjoin([(f, time)], threshold, path, weigh)
        # Pr(and) <= p is implied by bounding every conjunct by p.
        return [leaf for i, part in enumerate(_flatten_and(f))
                for leaf in _decompose(part, AT_MOST, threshold, time,
                                       path + (f"c{i}",), weigh)]

    if isinstance(f, Or):
        parts = [f.left, f.right]
        w = weigh(path, len(parts))
        return [leaf for i, part in enumerate(parts)
                for leaf in _decompose(part, direction, w[i] * threshold,
                                       time, path + (f"d{i}",), weigh)]

    if isinstance(f, (Until, Eventually)):
        if direction == AT_MOST:
            raise StlError("upper bounds on until/eventually are outside the "
                           "supported fragment")
        left, right, op = ((TrueNode(), f.child, "F")
                           if isinstance(f, Eventually)
                           else (f.left, f.right, "U"))
        events = until_events(left, right, f.a, f.b, time, op)
        w = weigh(path, len(events))
        return [leaf for idx, (j, conjuncts) in enumerate(events)
                for leaf in _conjoin(conjuncts, w[idx] * threshold,
                                     path + (f"e{j}",), weigh)]

    if isinstance(f, Always):
        if direction == AT_MOST:
            raise StlError("upper bounds on always are outside the supported "
                           "fragment")
        return _conjoin([(f.child, time + i) for i in range(f.a, f.b + 1)],
                        threshold, path, weigh)

    raise StlError(f"unknown formula node {f!r}")
