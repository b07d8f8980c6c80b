"""Decomposition of probabilistic STL requirements into leaf chance constraints.

A requirement Pr(xi |= psi at time 0) >= 1 - delta is transformed, by
structural recursion over the formula, into a conjunction of constraints of
the form Pr(alpha(x(t)) >= 0) {>=,<=} threshold on single predicates at fixed
times.
This module also holds the Gaussian noise margin of a leaf (`gamma`, and
`gamma_coefficient`, the one reading of the ``gamma_form`` setting); the
reduction of a leaf to an affine input constraint lives with the leaf
geometry in `feasibility` (`to_affine`).

The special functions come from the standard library, so that importing the
package loads numpy and nothing heavier: the normal quantile is
`statistics.NormalDist.inv_cdf` (Wichura's algorithm AS 241, accurate to
double precision), the normal cdf is `math.erfc`, and erfinv, needed only by
the ``variance_literal`` margin, starts from that quantile and polishes it
with Newton steps on erf or erfc (`_erfinv`).

Budget rules (node required with probability p):

* conjunction of N parts (an and, the steps of an always window, or the
  conjuncts of one until event): part i may fail with probability
  w_i (1 - p), weights w summing to one (uniform: (1 - p) / N each).
  Boole's inequality makes the split exact: the failure budgets sum to the
  parent's budget.  ``literal_shares=True`` divides each share by N once
  more, reproducing the weaker textbook form.
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

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional, Union

import numpy as np

from .lti import ParametricLti
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


def gaussian_cdf(x: float) -> float:
    """Standard normal cdf Phi(x) = erfc(-x / sqrt 2) / 2.

    The erfc form keeps full relative accuracy in the lower tail, where
    (1 + erf(x / sqrt 2)) / 2 would cancel.
    """
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def _erfinv(y: float) -> float:
    """Inverse error function for y in (0, 1).

    The start -Phi^{-1}((1 - y) / 2) / sqrt 2 is exact in the upper tail,
    where 1 - y loses no bits, and only rounding 1 - y spoils it for small
    y.  Two Newton steps correct it (one already reaches 2.4e-16 relative
    error against 40-digit erfinv).  Below y = 0.5 they solve erf(x) = y;
    above, (1 - y) = erfc(x), since erf(x) - y there would cancel to
    nothing as y approaches 1.
    """
    x = -_STANDARD_NORMAL.inv_cdf(0.5 * (1.0 - y)) / math.sqrt(2.0)
    for _ in range(2):
        slope = 2.0 / math.sqrt(math.pi) * math.exp(-x * x)
        if y < 0.5:
            x -= (math.erf(x) - y) / slope
        else:
            x -= ((1.0 - y) - math.erfc(x)) / slope
    return x


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


class GammaFormError(ValueError):
    """A noise-margin form that is unknown, or undefined at a leaf's delta."""


def gamma_coefficient(delta: float, form: str = "stddev"):
    """(c, p) of the noise margin gamma = c * sigma^p for failure budget delta.

    ``stddev``: c = Phi^{-1}(delta) (`gaussian_quantile`, AS 241), p = 1.
    ``variance_literal``: c = erfinv(sqrt(pi) delta) (`_erfinv`, the
    quantile start plus Newton steps on erf or erfc), p = 2, defined for
    0 < delta < 1/sqrt(pi).
    """
    if form == "stddev":
        return gaussian_quantile(delta), 1
    if form == "variance_literal":
        arg = math.sqrt(math.pi) * float(delta)
        if not 0.0 < arg < 1.0:
            raise GammaFormError(
                "variance_literal margin is undefined unless "
                f"0 < delta < 1/sqrt(pi), got delta={delta}")
        return _erfinv(arg), 2
    raise GammaFormError(f"unknown gamma form {form!r}")


def gamma(theta_tilde, delta: float, model: ParametricLti, t: int,
          form: str = "stddev") -> float:
    """Noise margin added to the mean constraint for a predicate at time t.

    sigma^2 = theta_tilde^T V_t theta_tilde is the variance of alpha(x(t))
    due to the process noise, and the margin is `gamma_coefficient`'s
    c * sigma^p.  Under ``stddev`` (default), sigma * Phi^{-1}(delta),
    `mean + gamma >= 0` is equivalent to Pr(alpha(x(t)) >= 0) >= 1 - delta
    for Gaussian states.  ``variance_literal``, the variance times
    erfinv(sqrt(pi) delta), is kept as a documented alternative.
    """
    theta_tilde = np.asarray(theta_tilde, dtype=float).reshape(-1)
    if theta_tilde.shape != (model.n,):
        raise ValueError(
            f"theta_tilde must have length {model.n}, got {theta_tilde.shape}")
    coeff, power = gamma_coefficient(delta, form)
    var = max(float(theta_tilde @ noise_gram(model, t) @ theta_tilde), 0.0)
    return float(coeff * (np.sqrt(var) if power == 1 else var))


def gamma_gradient(theta_tilde, delta: float, model: ParametricLti, t: int):
    """Analytic (d gamma / d theta_tilde, d gamma / d delta), stddev form.

    Undefined where the noise variance vanishes (the cone point of sigma).
    """
    theta_tilde = np.asarray(theta_tilde, dtype=float).reshape(-1)
    V = noise_gram(model, t)
    v = V @ theta_tilde
    var = float(theta_tilde @ v)
    if var <= 0.0:
        raise ValueError("gamma is not differentiable where the noise "
                         "variance vanishes")
    sigma = np.sqrt(var)
    z = gaussian_quantile(delta)
    d_tilde = z * v / sigma
    pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    d_delta = sigma / pdf
    return d_tilde, float(d_delta)


# --- leaf constraints -------------------------------------------------------

@dataclass(frozen=True)
class ChanceConstraint:
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
                f"got {self.threshold!r} at path {'/'.join(map(str, self.path))}")
        if self.time < 0:
            raise ValueError("time index must be nonnegative")

    def bind(self, c_matrix: np.ndarray) -> "ChanceConstraint":
        """Fold an output-space predicate into state space using C(theta)."""
        if isinstance(self.predicate, OutputPredicate):
            return ChanceConstraint(self.predicate.bind(c_matrix), self.time,
                                    self.direction, self.threshold,
                                    self.label, self.path)
        return self

    def to_json_dict(self) -> dict:
        pred = self.predicate
        return {
            "label": self.label,
            "time": self.time,
            "direction": self.direction,
            "threshold": self.threshold,
            "path": "/".join(str(p) for p in self.path),
            "space": "output" if isinstance(pred, OutputPredicate) else "state",
            "offset": pred.offset,
            "gradient": list(pred.gradient),
        }


@dataclass(frozen=True)
class ConstraintGroup:
    """A conjunctive bundle of leaves; until windows yield one group per event."""

    name: str
    path: tuple
    leaves: tuple

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "path": "/".join(str(p) for p in self.path),
            "leaves": [leaf.to_json_dict() for leaf in self.leaves],
        }


@dataclass(frozen=True)
class DecompositionResult:
    groups: tuple

    def all_leaves(self) -> tuple:
        return tuple(leaf for g in self.groups for leaf in g.leaves)

    def to_json_dict(self) -> dict:
        return {"groups": [g.to_json_dict() for g in self.groups]}


class WeightError(ValueError):
    """An explicit weight vector whose length does not fit its node."""


@dataclass(frozen=True)
class WeightScheme:
    """Child weights for decomposition nodes.

    A node whose formula-tree path (joined with '/') has an entry in
    `weights` takes that vector; every other node assigns 1/N to its N
    children.  Vectors must be finite, nonnegative and sum to one; their
    lengths are checked against the nodes in decomposition.
    """

    weights: dict = field(default_factory=dict)

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
        key = "/".join(str(p) for p in path)
        if key in self.weights:
            w = np.asarray(self.weights[key], dtype=float)
            if w.shape != (count,):
                raise WeightError(f"weight vector at {key!r} has length "
                                  f"{w.size}, expected {count}")
            return w
        return np.full(count, 1.0 / count)


# --- until events -----------------------------------------------------------

def _temporal_free(f: Formula) -> bool:
    if isinstance(f, (TrueNode, Pred)):
        return True
    if isinstance(f, Not):
        return _temporal_free(f.child)
    if isinstance(f, (And, Or)):
        return _temporal_free(f.left) and _temporal_free(f.right)
    return False


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
    def __init__(self):
        self.root: list = []
        self.events: dict = {}
        self.order: list = []

    def add(self, leaf: ChanceConstraint, group_key):
        if group_key is None:
            self.root.append(leaf)
        else:
            if group_key not in self.events:
                self.events[group_key] = []
                self.order.append(group_key)
            self.events[group_key].append(leaf)

    def result(self) -> DecompositionResult:
        groups = []
        if self.root:
            groups.append(ConstraintGroup("root", (), tuple(self.root)))
        for key in self.order:
            name = key[-1] if key else "root"
            groups.append(ConstraintGroup(str(name), key,
                                          tuple(self.events[key])))
        return DecompositionResult(tuple(groups))


def decompose(f: Formula, delta: float, weights: Optional[WeightScheme] = None,
              literal_shares: bool = False) -> DecompositionResult:
    """Reduce Pr(xi |= f at time 0) >= 1 - delta to leaf chance constraints.

    The formula is normalized so negations sit on predicates, then the
    structural rules described in the module docstring apply.  All leaves
    reference absolute time steps in [0, horizon(f)].
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    scheme = weights if weights is not None else WeightScheme()
    sink = _Sink()
    _decompose(to_nnf(f), AT_LEAST, 1.0 - delta, 0, (), None, scheme,
               literal_shares, sink)
    return sink.result()


def _conjoin(conjuncts, threshold: float, path: tuple, group,
             scheme: WeightScheme, literal_shares: bool, sink: _Sink) -> None:
    """Boole's rule for a conjunction required with probability `threshold`.

    `conjuncts` is a list of (formula, time) pairs; their top-level
    conjuncts become the N parts, part i at path + ("c{i}",) may fail with
    probability w_i (1 - threshold), and an empty conjunction holds.
    """
    flat = [(c, k) for sub, k in conjuncts for c in _flatten_and(to_nnf(sub))]
    if not flat:
        return
    w = scheme.for_node(path, len(flat))
    budget = 1.0 - threshold
    for i, (c, k) in enumerate(flat):
        share = w[i] * budget
        if literal_shares:
            share /= len(flat)
        _decompose(c, AT_LEAST, 1.0 - share, k, path + (f"c{i}",), group,
                   scheme, literal_shares, sink)


def _decompose(f: Formula, direction: str, threshold: float, time: int,
               path: tuple, group, scheme: WeightScheme,
               literal_shares: bool, sink: _Sink) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(
            f"derived threshold {threshold!r} left (0, 1) at path "
            f"{'/'.join(map(str, path))}; the requirement is degenerate")

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
            _conjoin([(f, time)], threshold, path, group, scheme,
                     literal_shares, sink)
        else:
            # Pr(and) <= p is implied by bounding every conjunct by p.
            for i, part in enumerate(_flatten_and(f)):
                _decompose(part, AT_MOST, threshold, time, path + (f"c{i}",),
                           group, scheme, literal_shares, sink)
        return

    if isinstance(f, Or):
        parts = [f.left, f.right]
        w = scheme.for_node(path, len(parts))
        for i, part in enumerate(parts):
            _decompose(part, direction, w[i] * threshold, time,
                       path + (f"d{i}",), group, scheme, literal_shares, sink)
        return

    if isinstance(f, (Until, Eventually)):
        if direction == AT_MOST:
            raise StlError("upper bounds on until/eventually are outside the "
                           "supported fragment")
        if isinstance(f, Eventually):
            left: Formula = TrueNode()
            right, a, b = f.child, f.a, f.b
        else:
            left, right, a, b = f.left, f.right, f.a, f.b
        events = until_events(left, right, a, b, time)
        w = scheme.for_node(path, len(events))
        for idx, (j, conjuncts) in enumerate(events):
            event_path = path + (f"e{j}",)
            _conjoin(conjuncts, w[idx] * threshold, event_path, event_path,
                     scheme, literal_shares, sink)
        return

    if isinstance(f, Always):
        if direction == AT_MOST:
            raise StlError("upper bounds on always are outside the supported "
                           "fragment")
        _conjoin([(f.child, time + i) for i in range(f.a, f.b + 1)],
                 threshold, path, group, scheme, literal_shares, sink)
        return

    raise StlError(f"unknown formula node {f!r}")


# --- affine input constraint ------------------------------------------------

@dataclass(frozen=True)
class AffineInputConstraint:
    """Constraint f . u_stacked + b >= 0 over inputs u(0) .. u(time-1)."""

    f: np.ndarray
    b: float
    time: int
    m: int

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float).reshape(-1)
        if f.shape != (self.m * self.time,):
            raise ValueError(
                f"f must have length m*t = {self.m * self.time}, got {f.size}")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "b", float(self.b))
