"""Signal temporal logic over finite discrete-time trajectories.

Formulas are trees of immutable records over linear predicates, equal when
their fields are.  Intervals on temporal operators are integer step counts.
Boolean satisfaction is one evaluator, `_evaluate`, which takes the
semantics as an argument, so that the tests run the same walk with
quantitative robustness; the until operator requires its left operand on
the closed prefix ``[t, t']`` under any semantics, so the sign of a nonzero
robustness always matches the Boolean verdict.  Every other walk of the tree
goes through `_children` and `_rebuild`.
"""

from __future__ import annotations

from functools import reduce
from typing import Mapping, Union

import numpy as np

from .record import Record, replace


class StlError(ValueError):
    """Base class for formula construction and evaluation errors."""


class StlSyntaxError(StlError):
    """Parse failure; `position` is the character offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


class _Affine(Record, eq=True):
    """`offset + gradient . v >= 0`, its numbers kept as floats."""

    offset: float
    gradient: tuple

    def __post_init__(self):
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "gradient", tuple(float(g) for g in self.gradient))


class LinearPredicate(_Affine):
    """State predicate `offset + gradient . x >= 0`."""

    @property
    def gradient_array(self) -> np.ndarray:
        return np.asarray(self.gradient, dtype=float)

    def negated(self) -> "LinearPredicate":
        """Complement `{alpha >= 0}` as `{-alpha >= 0}` (boundary ignored)."""
        return LinearPredicate(-self.offset, tuple(-g for g in self.gradient))


class OutputPredicate(_Affine):
    """Predicate `offset + gradient . y >= 0` on the model output y = C(theta) x.

    Becomes a state predicate only once C(theta) is known; `bind` performs the
    fold `gradient_x = C(theta)^T gradient_y`.
    """

    def bind(self, c_matrix: np.ndarray) -> LinearPredicate:
        c = np.asarray(c_matrix, dtype=float)
        if c.ndim != 2 or c.shape[0] != len(self.gradient):
            raise StlError(
                f"output predicate has {len(self.gradient)} output coordinates "
                f"but C has shape {c.shape}"
            )
        return LinearPredicate(self.offset, tuple(c.T @ np.asarray(self.gradient)))


Predicate = Union[LinearPredicate, OutputPredicate]


class TrueNode(Record, eq=True):
    def __str__(self):
        return "T"


class Pred(Record, eq=True):
    name: str
    predicate: Predicate

    def __str__(self):
        return self.name


class Not(Record, eq=True):
    child: "Formula"

    def __str__(self):
        return f"!{self.child}"


class And(Record, eq=True):
    left: "Formula"
    right: "Formula"

    def __str__(self):
        return f"({self.left} & {self.right})"


class Or(Record, eq=True):
    left: "Formula"
    right: "Formula"

    def __str__(self):
        return f"({self.left} | {self.right})"


class _Window(Record, eq=True):
    """Checks the step interval [a, b] of a temporal operator."""

    def __post_init__(self):
        a, b = self.a, self.b
        if not (isinstance(a, int) and isinstance(b, int)):
            raise StlError("interval bounds must be integer step counts")
        if a < 0 or b < 0:
            raise StlError("interval bounds must be nonnegative")
        if a > b:
            raise StlError(f"invalid interval [{a},{b}]: lower bound "
                           "exceeds upper")


class Until(_Window):
    left: "Formula"
    right: "Formula"
    a: int
    b: int

    def __str__(self):
        return f"({self.left} U[{self.a},{self.b}] {self.right})"


class Eventually(_Window):
    child: "Formula"
    a: int
    b: int

    def __str__(self):
        return f"F[{self.a},{self.b}] {self.child}"


class Always(_Window):
    child: "Formula"
    a: int
    b: int

    def __str__(self):
        return f"G[{self.a},{self.b}] {self.child}"


Formula = Union[TrueNode, Pred, Not, And, Or, Until, Eventually, Always]

TRUE = TrueNode()


# The child fields of each node type, in order; `_children` and `_rebuild`
# walk the tree through them, so a traversal names only the nodes it treats
# specially.
_CHILD_FIELDS = {TrueNode: (), Pred: (), Not: ("child",),
                 And: ("left", "right"), Or: ("left", "right"),
                 Until: ("left", "right"), Eventually: ("child",),
                 Always: ("child",)}


def _child_fields(f: Formula) -> tuple:
    try:
        return _CHILD_FIELDS[type(f)]
    except KeyError:
        raise StlError(f"unknown formula node {f!r}") from None


def _children(f: Formula) -> tuple:
    """The direct subformulas of `f`, in field order."""
    return tuple(getattr(f, name) for name in _child_fields(f))


def _rebuild(f: Formula, kids) -> Formula:
    """`f` with its direct subformulas replaced by `kids`."""
    kids = dict(zip(_child_fields(f), kids))
    return replace(f, **kids) if kids else f


def horizon(f: Formula) -> int:
    """Number of steps beyond t needed to decide satisfaction at t."""
    inner = max(map(horizon, _children(f)), default=0)
    return inner + f.b if isinstance(f, (Until, Eventually, Always)) else inner


def as_trajectory(xi) -> np.ndarray:
    """Validate and return a trajectory as a (T, n) float array."""
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise StlError("trajectory must be a non-empty sequence of state vectors")
    return arr


def _require_length(states: int, f: Formula, t: int) -> None:
    need = t + horizon(f) + 1
    if states < need:
        raise StlError(
            f"trajectory too short: need at least {need} states to evaluate "
            f"at t={t}, got {states}"
        )


def _state_predicate(node: Pred) -> LinearPredicate:
    if isinstance(node.predicate, OutputPredicate):
        raise StlError(
            f"predicate {node.name!r} is defined on the output; bind it to a "
            "model parameter before evaluating on state trajectories"
        )
    return node.predicate


def satisfies(xi, f: Formula, t: int = 0) -> bool:
    """Boolean satisfaction of `f` by trajectory `xi` at time `t`."""
    xi = as_trajectory(xi)
    _require_length(xi.shape[0], f, t)
    return bool(_evaluate(xi[None], f, t, _BOOLEAN)[0])


# A semantics: (leaf map of the predicate values, and, or, not, value of
# true).  The Boolean one is robustness (min, max, negation and +inf on the
# predicate values themselves) with min/max/negation replaced by
# and/or/not and each predicate value by its sign.
_BOOLEAN = (lambda v: v >= 0.0, np.logical_and, np.logical_or,
            np.logical_not, True)


def _evaluate(arr: np.ndarray, f: Formula, t: int, sem) -> np.ndarray:
    """Value of `f` at time t for each trajectory of the (B, T, n) batch
    `arr` under the semantics `sem`."""
    leaf, and_, or_, not_, top = sem
    if isinstance(f, TrueNode):
        return np.full(arr.shape[0], top)
    if isinstance(f, Pred):
        p = _state_predicate(f)
        if arr.shape[2] != len(p.gradient):
            raise StlError(
                f"predicate {f.name!r} has a gradient of length "
                f"{len(p.gradient)} but the states have {arr.shape[2]} entries"
            )
        return leaf(arr[:, t, :] @ p.gradient_array + p.offset)
    if isinstance(f, Not):
        return not_(_evaluate(arr, f.child, t, sem))
    if isinstance(f, (And, Or)):
        op = and_ if isinstance(f, And) else or_
        return op(_evaluate(arr, f.left, t, sem),
                  _evaluate(arr, f.right, t, sem))
    if isinstance(f, Until):
        # Some witness t+i in the window holds right, and left holds on the
        # closed prefix [t, t+i].
        out = np.full(arr.shape[0], not_(top))
        prefix = np.full(arr.shape[0], top)
        for i in range(0, f.b + 1):
            prefix = and_(prefix, _evaluate(arr, f.left, t + i, sem))
            if i >= f.a:
                out = or_(out, and_(_evaluate(arr, f.right, t + i, sem),
                                    prefix))
        return out
    if isinstance(f, (Eventually, Always)):
        op = or_ if isinstance(f, Eventually) else and_
        return reduce(op, (_evaluate(arr, f.child, t + i, sem)
                           for i in range(f.a, f.b + 1)))
    raise StlError(f"unknown formula node {f!r}")


def satisfies_batch(batch, f: Formula, t: int = 0) -> np.ndarray:
    """Vectorized Boolean satisfaction over a (B, T, n) batch of trajectories."""
    arr = np.asarray(batch, dtype=float)
    if arr.ndim != 3:
        raise StlError("batch must have shape (B, T, n)")
    _require_length(arr.shape[1], f, t)
    return _evaluate(arr, f, t, _BOOLEAN)


# --- parser ---------------------------------------------------------------

_PUNCT = {"(": "LPAREN", ")": "RPAREN", "!": "NOT", "&": "AND", "|": "OR",
          "[": "LBRACK", "]": "RBRACK", ",": "COMMA"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append((_PUNCT[c], c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("WORD", text[i:j], i))
            i = j
            continue
        raise StlSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, table: Mapping[str, Predicate]):
        self.text = text
        self.table = table
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.advance()
        if tok[0] != kind:
            raise StlSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse_interval(self):
        self.expect("LBRACK", "'['")
        a_tok = self.expect("INT", "integer lower bound")
        self.expect("COMMA", "','")
        b_tok = self.expect("INT", "integer upper bound")
        self.expect("RBRACK", "']'")
        a, b = int(a_tok[1]), int(b_tok[1])
        if a > b:
            raise StlSyntaxError(f"invalid interval [{a},{b}]: a > b", a_tok[2])
        return a, b

    def parse_formula(self) -> Formula:
        """Binary operators chain left-associatively with equal precedence;
        parenthesize to control grouping."""
        left = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "AND":
                self.advance()
                left = And(left, self.parse_unary())
            elif kind == "OR":
                self.advance()
                left = Or(left, self.parse_unary())
            elif kind == "WORD" and value == "U":
                self.advance()
                a, b = self.parse_interval()
                left = Until(left, self.parse_unary(), a, b)
            else:
                return left

    def parse_unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "NOT":
            self.advance()
            return Not(self.parse_unary())
        if kind == "LPAREN":
            self.advance()
            node = self.parse_formula()
            self.expect("RPAREN", "')'")
            return node
        if kind == "WORD":
            self.advance()
            if value == "T":
                return TRUE
            if value in ("F", "G") and self.peek()[0] == "LBRACK":
                a, b = self.parse_interval()
                child = self.parse_unary()
                return Eventually(child, a, b) if value == "F" else Always(child, a, b)
            if value not in self.table:
                raise StlSyntaxError(f"unknown predicate name {value!r}", pos)
            return Pred(value, self.table[value])
        raise StlSyntaxError("expected a formula", pos)


# Words of the grammar, which no predicate may be named.
GRAMMAR_WORDS = ("T", "F", "G", "U")


def parse_stl(text: str, predicate_table: Mapping[str, Predicate]) -> Formula:
    """Parse the grammar `T | name | !f | (f & f) | (f | f) | (f U[a,b] f)
    | F[a,b] f | G[a,b] f` against a table of named predicates.  A table
    that names a word of the grammar raises StlError: the word would
    shadow the predicate."""
    for word in GRAMMAR_WORDS:
        if word in predicate_table:
            raise StlError(f"predicate name {word!r} is a word of the "
                           f"formula grammar")
    parser = _Parser(text, predicate_table)
    node = parser.parse_formula()
    kind, _, pos = parser.peek()
    if kind != "EOF":
        raise StlSyntaxError("unexpected trailing input", pos)
    return node


def bind_formula(f: Formula, c_matrix: np.ndarray) -> Formula:
    """Fold every output-space predicate in the tree into state space."""
    if isinstance(f, Pred) and isinstance(f.predicate, OutputPredicate):
        return Pred(f.name, f.predicate.bind(c_matrix))
    return _rebuild(f, [bind_formula(g, c_matrix) for g in _children(f)])


def to_nnf(f: Formula) -> Formula:
    """Push negations down to predicates.

    Negated temporal operators rewrite through the eventually/always duality;
    a negated until has no positive counterpart in this fragment and raises.
    """
    if not isinstance(f, Not):
        return _rebuild(f, [to_nnf(g) for g in _children(f)])
    g = f.child
    if isinstance(g, (TrueNode, Pred)):
        return f
    if isinstance(g, Not):
        return to_nnf(g.child)
    if isinstance(g, And):
        return Or(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    if isinstance(g, Or):
        return And(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    if isinstance(g, Eventually):
        return Always(to_nnf(Not(g.child)), g.a, g.b)
    if isinstance(g, Always):
        return Eventually(to_nnf(Not(g.child)), g.a, g.b)
    if isinstance(g, Until):
        raise StlError(
            "negated until has no negation-normal form in this fragment"
        )
    raise StlError(f"unknown formula node {g!r}")
