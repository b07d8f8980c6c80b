"""Robust feasibility of decomposed constraints and the parameter-space map.

`_leaf_geometry` is the one reduction of a leaf chance constraint to data
affine in theta: the predicate gradient v0 + J theta, the initial-state
term, the input map and the Gaussian noise margin sigma * Phi^-1(delta),
the product of the noise standard deviation from the Gram matrix
`noise_gram` and the normal quantile `gaussian_quantile`.  The quantile
comes from the standard library, so that importing the package loads numpy
and nothing heavier: it is `statistics.NormalDist.inv_cdf` (Wichura's
algorithm AS 241, accurate to double precision).  At a fixed parameter a
leaf is an affine inequality f.u + b >= 0 that must hold for every
admissible input trajectory; over the model's input box (a `Box`, defined
in `lti`) the worst case has the closed form b + sum_k min(f_k l_k, f_k u_k)
(`_input_min`), the one input term that the satisfaction map and
`classify_cells` share.  The tests answer the same question through the
Farkas dual of the robust linear program and require the routes to agree.

The satisfaction map theta -> {0, 1} is the conjunction of all leaf
feasibility checks, evaluated leaf by leaf on the rows that every earlier
leaf admitted, once per distinct leaf margin: with x0 = 0 and an input box
symmetric about 0 the two half-space leaves of a band are mirror twins.  A
leaf whose margin is a constant >= -FEAS_TOL (no state, input or noise
term, as at time 0 with x0 = 0) is not evaluated.
Over an axis-aligned parameter cell a leaf margin is an affine mean, plus a
concave input term, plus Phi^-1(delta_i) times the convex noise standard
deviation, so a lower bound and an upper bound on it are each extreme at a
vertex: the lower bound is the exact margin when Phi^-1(delta_i) <= 0, and
the standard deviation's tangent at the cell center, which lies below it
everywhere, serves in the other bound.  Cells are certified feasible or
infeasible by these vertex evaluations, with "unknown" for the remainder.
A partition is one `Cells` value, the array form of `Box`: the tensor grid
of its per-axis edges, with one label per cell.  `classify_cells` labels it
in one array pass per leaf over the cells that no earlier leaf has
certified infeasible, taking each distinct vertex once from the edges.
Given such labels, the satisfaction map reads each row's certified label
and evaluates the leaves only on the remaining rows.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from statistics import NormalDist
from typing import Optional

import numpy as np

from .chance import (
    AT_MOST,
    ChanceConstraint,
    DecompositionResult,
    WeightScheme,
    decompose,
)
from .lti import Box, ParametricLti
from .record import Record
from .stl import Formula, OutputPredicate, horizon

FEAS_TOL = 1e-9

FEASIBLE = "feasible"
INFEASIBLE_LABEL = "infeasible"
UNKNOWN = "unknown"


class Cells(Box):
    """The cells of a tensor grid, built from strictly increasing per-axis
    `edges` and optional labels, one per cell and unknown by default.  The
    bounds `lower` and `upper`, of shape (C, d), are the `_mesh` of the
    edges, the last axis fastest; iteration builds one labelled `Box` per
    cell."""

    def __init__(self, edges, label=None):
        edges = tuple(np.asarray(e, dtype=float) for e in edges)
        if not edges:
            raise ValueError("cells need at least one axis")
        for i, e in enumerate(edges):
            if e.ndim != 1 or e.size < 2 or not (np.diff(e) > 0).all():
                raise ValueError(f"the edges on axis {i} must be two or more "
                                 f"strictly increasing values")
        self._fill(edges, _mesh([e[:-1] for e in edges]),
                   _mesh([e[1:] for e in edges]), label)

    def _fill(self, edges, lower, upper, label) -> None:
        label = (np.full(lower.shape[0], UNKNOWN) if label is None
                 else np.asarray(label, dtype=str))
        if label.shape != (lower.shape[0],):
            raise ValueError("cells need one label each")
        vars(self).update(edges=edges, lower=lower, upper=upper, label=label)

    def _labelled(self, label) -> Cells:
        """A copy with `label`, sharing the edge and bound arrays."""
        cells = object.__new__(Cells)
        cells._fill(self.edges, self.lower, self.upper, label)
        return cells

    def __repr__(self) -> str:
        return f"Cells(edges={self.edges!r}, label={self.label!r})"

    def __len__(self) -> int:
        return self.lower.shape[0]

    def __iter__(self):
        # The rows were checked as arrays, so each Box is filled in without
        # `Box.__post_init__`'s checks.
        for lower, upper, label in zip(self.lower, self.upper,
                                       self.label.tolist()):
            box = object.__new__(Box)
            vars(box).update(lower=lower, upper=upper, label=label)
            yield box

    @cached_property
    def _codes(self) -> np.ndarray:
        """The int8 label codes in grid shape: 1 feasible, 0 infeasible, -1
        unknown."""
        codes = np.full(len(self), -1, dtype=np.int8)
        codes[self.label == FEASIBLE] = 1
        codes[self.label == INFEASIBLE_LABEL] = 0
        return codes.reshape([e.size - 1 for e in self.edges])

    @cached_property
    def _hull(self) -> tuple:
        """(lowest, highest) edge per axis of the cells not certified
        infeasible; +inf and -inf when every cell is."""
        kept = self.label != INFEASIBLE_LABEL
        if not kept.any():
            d = self.lower.shape[1]
            return np.full(d, np.inf), np.full(d, -np.inf)
        return self.lower[kept].min(axis=0), self.upper[kept].max(axis=0)

    def label_codes(self, thetas: np.ndarray) -> np.ndarray:
        """Per row of `thetas` (N, d): 1 in a feasible cell, 0 in an
        infeasible one, -1 in an unknown cell or in no cell.  A row on a
        shared edge may take either cell's code: labels hold on closed
        cells.

        A row inside the grid and strictly outside the hull of the cells
        not certified infeasible (`_hull`) lies only in infeasible cells,
        and gets 0 without being located.  Each coordinate of the other
        rows is located by an arithmetic index into its edges; where the
        exact edges do not contain it, the index moves by one edge toward
        it, and a row still not contained gets -1."""
        if thetas.shape[1] != self.lower.shape[1]:
            raise ValueError(f"thetas have {thetas.shape[1]} coordinates, "
                             f"cells have {self.lower.shape[1]}")
        # By contiguous columns: numpy compares a strided column several
        # times slower.
        columns = thetas.T.copy()
        in_grid = np.ones(thetas.shape[0], dtype=bool)
        off_hull = np.zeros(thetas.shape[0], dtype=bool)
        for x, e, lo, hi in zip(columns, self.edges, *self._hull):
            in_grid &= e[0] <= x  # False for NaN
            in_grid &= x <= e[-1]
            off_hull |= x < lo
            off_hull |= x > hi
        rows = np.flatnonzero(~(in_grid & off_hull))
        out = np.zeros(thetas.shape[0], dtype=np.int8)
        out[rows] = self._locate(columns[:, rows])
        return out

    def _locate(self, columns: np.ndarray) -> np.ndarray:
        """`label_codes` of the rows whose coordinates are `columns` (d, N),
        by the arithmetic index and the edge check."""
        flat = np.zeros(columns.shape[1], dtype=np.intp)
        found = np.ones(columns.shape[1], dtype=bool)
        for x, e in zip(columns, self.edges):
            n, lo, hi = e.size - 1, e[:-1], e[1:]
            t = x - e[0]
            t *= n / (e[-1] - e[0])
            with np.errstate(invalid="ignore"):  # NaN and inf cast anywhere
                i = t.astype(np.intp)
            np.clip(i, 0, n - 1, out=i)
            inside = lo[i] <= x  # False for NaN
            inside &= x <= hi[i]
            if not inside.all():
                r = np.flatnonzero(~inside)
                xr, ir = x[r], i[r]
                ir = np.clip(ir - (xr < lo[ir]) + (xr > hi[ir]), 0, n - 1)
                moved = (lo[ir] <= xr) & (xr <= hi[ir])
                i[r[moved]] = ir[moved]
                inside[r[moved]] = True
                found &= inside
            flat *= n
            flat += i
        out = self._codes.reshape(-1)[flat]
        out[~found] = -1
        return out


def _input_min(f: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """min of f . u over the stacked input box lo <= u <= hi, per row of f."""
    worst = np.minimum(f * lo, f * hi)
    if worst.shape[-1] >= 8:
        return worst.sum(axis=-1)
    # numpy adds fewer than 8 terms one by one from 0.0, so column adds
    # give the same bits without its per-row reduction.
    out = np.zeros(worst.shape[:-1])
    for j in range(worst.shape[-1]):
        out += worst[..., j]
    return out


# --- per-leaf geometry ------------------------------------------------------

class _LeafGeometry(Record):
    """One leaf, normalized to at-least form, as affine data in theta.

    The state-space predicate gradient is tilde(theta) = v0 + J theta (J = 0
    for a state predicate), and at theta the leaf is the input constraint
    f.u + b >= 0 with

        f = W' tilde,  b = offset + tilde.a_t + noise_coeff * sigma

    a_t = A^t x0, W = [A^{t-1} B, ..., A B, B], sigma^2 = tilde' V tilde and V
    the noise Gram matrix at the leaf's time.  Its margin adds the worst
    case of f.u over the model's input box, whose stacked bounds it keeps.
    a_t, W, V and the stacked bounds depend on the time alone (`_time_terms`).
    """

    time: int
    offset: float
    v0: np.ndarray
    J: np.ndarray
    a_t: np.ndarray
    W: np.ndarray
    V: np.ndarray
    noise_coeff: float
    lo_stack: np.ndarray
    hi_stack: np.ndarray

    def gradients(self, thetas) -> np.ndarray:
        """tilde(theta) for each row of `thetas`."""
        return self.v0 + np.atleast_2d(thetas) @ self.J.T

    def mean(self, tl: np.ndarray) -> np.ndarray:
        """offset + tilde.a_t for each row tilde of `tl`."""
        return self.offset + tl @ self.a_t

    def sigma(self, tl: np.ndarray) -> np.ndarray:
        """The noise standard deviation sqrt(tilde' V tilde) for each row
        tilde of `tl`."""
        var = np.clip(np.einsum("bi,bi->b", tl @ self.V, tl), 0.0, None)
        return np.sqrt(var)

    def noise(self, tl: np.ndarray) -> np.ndarray:
        """The noise margin for each row tilde of `tl`."""
        return self.noise_coeff * self.sigma(tl)

    def terms(self, tl: np.ndarray) -> tuple:
        """(mean, worst-case input term, noise margin) for each row tilde of
        `tl`; the margin is their sum, taken left to right."""
        return (self.mean(tl), _input_min(tl @ self.W, self.lo_stack,
                                          self.hi_stack), self.noise(tl))

    def margins(self, thetas) -> np.ndarray:
        mean, worst, noise = self.terms(self.gradients(thetas))
        return mean + worst + noise


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


def _time_terms(model: ParametricLti, x0, t: int) -> dict:
    """The `_LeafGeometry` fields that depend on the leaf's time alone:
    a_t, W, V and the stacked input bounds."""
    a_t = (np.linalg.matrix_power(model.A, t)
           @ np.asarray(x0, dtype=float).reshape(-1))
    W = np.zeros((model.n, model.m * t))
    Ak = np.eye(model.n)
    for k in range(t - 1, -1, -1):
        W[:, k * model.m:(k + 1) * model.m] = Ak @ model.B
        Ak = model.A @ Ak
    lo, hi = model.input_box.stacked(t)
    return dict(a_t=a_t, W=W, V=noise_gram(model, t), lo_stack=lo,
                hi_stack=hi)


def _leaf_geometry(leaf: ChanceConstraint, model: ParametricLti,
                   at_time: dict) -> _LeafGeometry:
    """The leaf's geometry, given `_time_terms` at its time."""
    pred = leaf.predicate
    threshold = leaf.threshold
    sign = 1.0
    if leaf.direction == AT_MOST:
        threshold = 1.0 - threshold
        sign = -1.0
    delta = 1.0 - threshold

    n, d = model.n, model.d
    if isinstance(pred, OutputPredicate):
        g = np.asarray(pred.gradient, dtype=float)
        v0 = sign * (model.C0.T @ g)
        J = sign * np.column_stack([Ci.T @ g for Ci in model.C_basis]) \
            if d else np.zeros((n, 0))
    else:
        v0 = sign * pred.gradient_array
        if v0.shape != (n,):
            raise ValueError(
                f"predicate {leaf.label!r} has gradient length {v0.size}, "
                f"expected the state dimension {n}")
        J = np.zeros((n, d))
    return _LeafGeometry(time=leaf.time, offset=sign * pred.offset, v0=v0,
                         J=J, noise_coeff=gaussian_quantile(delta), **at_time)


def _distinct_margins(order: list, at_time: dict) -> tuple:
    """The leaves of `order` that are no twin of an earlier one, and for
    each kept leaf whether a twin of it is its mirror; `at_time` holds the
    `_time_terms` by leaf time.

    Twins have equal margins at every theta: equal (time, offset,
    noise_coeff, v0, J), or, at a time whose margins are even in tilde
    (a_t = 0 and stacked input bounds with lo = -hi exactly), equal but for
    negated (v0, J), a mirror twin.  Negation is exact, so a mirror twin's
    gradients are the negated ones and its mean, worst-case input term and
    sigma are the same numbers.  Each leaf is keyed once, by a hash of
    Python floats, under which -0.0 and 0.0 are one key; where margins are
    even, (v0, J) is signed so that its first nonzero entry is positive."""
    even = {t: not terms["a_t"].any()
            and bool((terms["lo_stack"] == -terms["hi_stack"]).all())
            for t, terms in at_time.items()}
    kept, mirrored, first = [], [], {}
    for g in order:
        vec = g.v0.tolist() + g.J.ravel().tolist()
        flip = even[g.time] and next((x < 0.0 for x in vec if x != 0.0),
                                     False)
        if flip:
            vec = [-x for x in vec]
        i, i_flip = first.setdefault(
            (g.time, g.offset, g.noise_coeff, *vec), (len(kept), flip))
        if i == len(kept):
            kept.append(g)
            mirrored.append(False)
        elif i_flip != flip:
            mirrored[i] = True
    return kept, mirrored


# --- verification spec ------------------------------------------------------

class VerificationSpec:
    """Decomposed constraint system for one model and property.

    Bundles everything the parameter-space feasibility map needs: the
    decomposition of the probabilistic requirement and the initial state;
    the admissible inputs are the model's input box.
    """

    def __init__(self, model: ParametricLti, formula: Formula, delta: float,
                 x0=None, weights: Optional[WeightScheme] = None):
        self.model = model
        self.formula = formula
        self.delta = float(delta)
        self.weights = weights if weights is not None else WeightScheme()
        self.x0 = (np.zeros(model.n) if x0 is None
                   else np.asarray(x0, dtype=float).reshape(-1))
        if self.x0.shape != (model.n,):
            raise ValueError(f"x0 must have length {model.n}")
        self.decomposition: DecompositionResult = decompose(
            formula, self.delta, self.weights)
        leaves = self.decomposition.all_leaves()
        # One set of time terms per distinct leaf time, for this spec only.
        at_time = {t: _time_terms(model, self.x0, t)
                   for t in {leaf.time for leaf in leaves}}
        self._geometry = [_leaf_geometry(leaf, model, at_time[leaf.time])
                          for leaf in leaves]
        # The evaluation order: the latest leaf time first, ties kept in
        # decomposition order, one leaf per distinct margin.  The indicator
        # is a conjunction and the cell label does not depend on the order,
        # so only the work does.  At a time with a_t = 0, W empty or zero
        # and V = 0 a leaf's margin is its offset at every finite theta;
        # such a leaf with offset >= -FEAS_TOL admits every finite theta and
        # certifies no cell infeasible, so it is left out.
        constant = {t: not (terms["a_t"].any() or terms["W"].any()
                            or terms["V"].any())
                    for t, terms in at_time.items()}
        self._evaluation, self._mirrored = _distinct_margins(
            [g for g in sorted(self._geometry, key=lambda g: -g.time)
             if not (constant[g.time] and g.offset >= -FEAS_TOL)], at_time)

    @property
    def horizon(self) -> int:
        return horizon(self.formula)

    def leaves(self) -> tuple:
        return self.decomposition.all_leaves()

    def satisfaction_batch(self, thetas,
                           cells: Optional[Cells] = None) -> np.ndarray:
        """Vectorized satisfaction map over rows of `thetas`: one leaf per
        distinct margin runs, in evaluation order, latest time first, and
        each sees only the rows that every leaf before it admitted.

        With `cells` labelled by `classify_cells` for this spec, a row in a
        certified cell takes its label and only the rest reach the leaves.
        The indicator is the same: in a feasible cell every leaf margin has
        a lower bound >= -FEAS_TOL, and an infeasible cell has a leaf whose
        margin has an upper bound < -FEAS_TOL.  A row with a non-finite
        coordinate is 0, also when every leaf is a constant left out of the
        evaluation order."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if cells is None:
            ok = np.zeros(thetas.shape[0], dtype=np.uint8)
            rows = np.arange(thetas.shape[0])
        else:
            code = cells.label_codes(thetas)
            ok = (code == 1).astype(np.uint8)
            rows = np.flatnonzero(code < 0)
        finite = np.ones(rows.size, bool)
        for column in thetas.T:  # by column: a reduction over d is slow
            finite &= np.isfinite(column[rows])
        rows = rows[finite]
        for g in self._evaluation:
            if rows.size == 0:
                break
            rows = rows[g.margins(thetas[rows]) >= -FEAS_TOL]
        ok[rows] = 1
        return ok


# --- piecewise-affine relaxation over parameter cells ------------------------

def _mesh(axes) -> np.ndarray:
    """Rows of the Cartesian product of `axes`, the last axis fastest."""
    return np.column_stack([m.ravel()
                            for m in np.meshgrid(*axes, indexing="ij")])


def pwa_partition(region: Box, per_axis: int) -> Cells:
    """Uniform grid of per_axis^d cells exactly covering the region, the
    cell index running fastest along the last coordinate.  A region of zero
    width on some axis has no such grid."""
    if per_axis < 1:
        raise ValueError("per_axis must be at least 1")
    for i, (lo, hi) in enumerate(zip(region.lower, region.upper)):
        if lo == hi:
            raise ValueError(f"the region has zero width on axis {i}")
    return Cells(np.linspace(lo, hi, per_axis + 1)
                 for lo, hi in zip(region.lower, region.upper))


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x[c] for every row c of x (M one matrix or C of them), rounded as
    each one-row product is, so labels do not depend on batching."""
    return np.einsum("...ij,...j->...i", M, x)


def _dot(tl_v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """tl_v[v, c] . x[c] for every vertex v of every cell c, (2^d, C)."""
    return np.einsum("vcj,cj->vc", tl_v, x)


def _grid_vertices(edges):
    """The distinct vertices of the cells on strictly increasing per-axis
    `edges`, (P, d), and the index of each cell's vertices among them,
    vertex-major, (2^d, C), the last coordinate's bit fastest.  The vertices
    are `_mesh(edges)`, and a cell's vertex indices are the mixed-radix
    index of its lower corner plus one offset per corner."""
    sizes = [e.size for e in edges]
    strides = np.cumprod([1] + sizes[:0:-1], dtype=np.intp)[::-1]
    corner = np.zeros(1, dtype=np.intp)
    for size, stride in zip(sizes, strides):
        corner = (corner[:, None] + stride * np.arange(size - 1)).reshape(-1)
    offset = np.array(list(itertools.product((0, 1), repeat=len(edges))),
                      dtype=np.intp) @ strides
    return _mesh(edges), offset[:, None] + corner


def classify_cells(cells: Cells, spec: VerificationSpec) -> Cells:
    """A copy of `cells` with each cell labelled feasible, infeasible or
    unknown; the edge and bound arrays are shared, not copied.

    A leaf margin is mean + input + q * sigma with q = Phi^-1(delta_i): the
    mean is affine in theta, the worst-case input term is concave and sigma
    is convex.  So two bounds on it are each extreme at a vertex of a cell.
    The lower bound is the exact margin for q <= 0, and for q > 0 the margin
    with sigma replaced by its tangent at the cell center,
    tilde . V tilde_c / sigma_c (0 at the cone point sigma_c = 0), which is
    below sigma everywhere; either way it is concave, least at a vertex.
    The upper bound holds the input branch fixed at the center's worst case
    and takes the tangent for q <= 0 and the exact sigma for q > 0; it is
    convex, greatest at a vertex.  A cell is infeasible if some leaf's upper
    bound is below zero at every vertex, else feasible if every leaf's lower
    bound is nonnegative at every vertex, else unknown; for q <= 0 the
    vertex test is exact.  The upper bound is never below the lower one, so
    the label does not depend on the order of the leaves.

    The leaves are taken in the spec's evaluation order, latest time first
    and one per distinct margin, each in one array pass over the cells that
    no earlier leaf has certified infeasible: such a cell's label is
    settled.  A mirror twin has the same margin, lower bound and tangent
    term, and the same upper bound except where the center's input slope
    W' tilde_c has a zero entry: the twin's held branch breaks that tie the
    other way, so on the active cells with such a tie its upper bound is
    evaluated as well.  Each pass evaluates the terms that depend on the
    vertex alone (the exact margin, as `margins` gives it, among them) once
    per distinct vertex of those cells, and gathers them vertex-major, one
    row of cells per corner, so that a cell's bound over its vertices is an
    elementwise minimum or maximum of 2^d rows.  The distinct vertices are
    the grid's, and each cell's indices among them are arithmetic on the
    edges (`_grid_vertices`).  The held input branch and the tangent are
    linear in tilde, so each is one n-vector per cell, and each bound at a
    vertex is a vertex term plus one dot product (`_dot`).
    """
    centers = cells.center
    points, vertex = _grid_vertices(cells.edges)
    active = np.arange(len(cells))  # cells not yet certified infeasible
    feasible = np.ones(len(cells), bool)  # over the active cells
    for g, mirrored in zip(spec._evaluation, spec._mirrored):
        tl = g.gradients(points)
        mean, worst, noise = g.terms(tl)
        tl_c = g.v0 + _mv(g.J, centers)
        # The center's worst-case input branch, held fixed: affine, >= min.
        slope = _mv(g.W.T, tl_c)
        held = _mv(g.W, np.where(slope >= 0.0, g.lo_stack, g.hi_stack))
        vc = _mv(g.V, tl_c)
        sigma_c = np.sqrt(np.maximum(_mv(tl_c[:, None, :], vc)[:, 0], 0.0))
        tangent = np.divide(g.noise_coeff * vc, sigma_c[:, None],
                            out=np.zeros_like(vc),
                            where=sigma_c[:, None] > 0.0)
        tl_v = tl[vertex]  # (vertex, cell, n)
        # The upper bound is a vertex term plus tl_v . (held + tangent) for
        # q <= 0, plus tl_v . held for q > 0.
        if g.noise_coeff <= 0.0:
            lower = (mean + worst + noise)[vertex]
            at_vertex, slack = mean, tangent
        else:
            lower = (mean + worst)[vertex] + _dot(tl_v, tangent)
            at_vertex, slack = mean + noise, None
        upper = at_vertex[vertex] + _dot(
            tl_v, held if slack is None else held + slack)
        feasible &= np.minimum.reduce(lower) >= -FEAS_TOL
        # The cells that this leaf does not certify infeasible.
        keep = ~(np.maximum.reduce(upper) < -FEAS_TOL)
        if mirrored:
            # A mirror twin's held branch, taken in this leaf's terms, breaks
            # a tie slope_k = 0 toward hi, not lo; elsewhere it is this one.
            tie = np.flatnonzero(keep & (slope == 0.0).any(axis=1))
            if tie.size:
                held = _mv(g.W, np.where(slope[tie] > 0.0, g.lo_stack,
                                         g.hi_stack))
                if slack is not None:
                    held += slack[tie]
                upper = at_vertex[vertex[:, tie]] + _dot(tl_v[:, tie], held)
                keep[tie] = ~(np.maximum.reduce(upper) < -FEAS_TOL)
        if not keep.all():
            active, feasible = active[keep], feasible[keep]
            centers, vertex = centers[keep], vertex[:, keep]
            if active.size == 0:
                break
            used = np.zeros(len(points), bool)
            used[vertex] = True
            points, vertex = points[used], (np.cumsum(used) - 1)[vertex]
    label = np.full(len(cells), INFEASIBLE_LABEL)
    label[active] = np.where(feasible, FEASIBLE, UNKNOWN)
    return cells._labelled(label)


# --- search-region restriction ----------------------------------------------

def restrict_region(spec: VerificationSpec, region: Box,
                    per_axis: int) -> tuple[Optional[Box], Cells]:
    """Shrink a parameter box to a sound enclosure of the satisfying set.

    Classifies `pwa_partition(region, per_axis)`, shrinks the box to the
    hull of the cells not certified infeasible, and repeats until no side
    would move inward by more than 1% of the given region's span.  Every
    satisfying theta lies in a cell that is not certified infeasible, so
    none is ever cut off (successively refined gridding in the manner of
    Soudjani and Abate, SIAM J. Appl. Dyn. Syst. 12, 2013).

    Returns the restricted box and its labelled cells, which partition it;
    if every cell is certified infeasible, None and the first pass's cells,
    which partition `region`.

    The result is a fixed point only up to that tolerance, 1% of the span
    of the region given: a second call on the result takes 1% of the
    smaller span, so it may shrink the box further.
    """
    tol = 1e-2 * (region.upper - region.lower)
    first = cells = classify_cells(pwa_partition(region, per_axis), spec)
    while True:
        lower, upper = cells._hull
        if (lower > upper).any():  # every cell certified infeasible
            return None, first
        if not ((lower - region.lower > tol)
                | (region.upper - upper > tol)).any():
            return region, cells
        region = Box(lower, upper)
        cells = classify_cells(pwa_partition(region, per_axis), spec)
