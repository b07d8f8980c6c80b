"""Robust feasibility of decomposed constraints and the parameter-space map.

`_leaf_geometry` is the one reduction of a leaf chance constraint to data
affine in theta: the predicate gradient v0 + J theta, the initial-state
term, the input map and the Gaussian noise margin.  At a fixed parameter a
leaf is an affine inequality f.u + b >= 0 (`to_affine`) that must hold for
every admissible input trajectory; over the model's input box (a `Box`,
defined in `lti`) the worst case has the closed form
b + sum_k min(f_k l_k, f_k u_k), the one input term that `worst_case_margin`,
the satisfaction map and `classify_cells` share.  The same question is also
answered through the Farkas dual of the robust linear program, solved with
the internal simplex, and the two routes are required to agree.

The satisfaction map theta -> {0, 1} is the conjunction of all leaf
feasibility checks, evaluated leaf by leaf on the rows that every earlier
leaf admitted.  Over an axis-aligned parameter cell a leaf margin is an
affine mean, plus a concave input term, plus Phi^-1(delta_i) times the
convex noise standard deviation, so a lower bound and an upper bound on it
are each extreme at a vertex: the lower bound is the exact margin when
Phi^-1(delta_i) <= 0, and the standard deviation's tangent at the cell
center, which lies below it everywhere, serves in the other bound.  Cells
are certified feasible or infeasible by these vertex evaluations, with
"unknown" for the remainder.  A partition is one `Cells` value, the array
form of `Box` with bound and label arrays, which `classify_cells` labels in
one array pass per leaf over the cells that no earlier leaf has certified
infeasible.
Given such labels on a tensor grid, the satisfaction map reads each row's
certified label and evaluates the leaves only on the remaining rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .chance import (
    AT_MOST,
    AffineInputConstraint,
    ChanceConstraint,
    DecompositionResult,
    WeightScheme,
    decompose,
    gaussian_quantile,
    noise_gram,
)
from .lti import Box, ParametricLti
from .simplex import INFEASIBLE, OPTIMAL, solve_standard_lp
from .stl import Formula, OutputPredicate, StlError, horizon

FEAS_TOL = 1e-9

FEASIBLE = "feasible"
INFEASIBLE_LABEL = "infeasible"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Cells(Box):
    """The C cells of a partition: bounds of shape (C, d), labels of shape
    (C,), unknown by default; iteration builds one labelled `Box` per cell."""

    def __post_init__(self):
        super().__post_init__()
        label = (np.full(len(self), UNKNOWN) if self.label is None
                 else np.asarray(self.label, dtype=str))
        if label.shape != (len(self),):
            raise ValueError("cells need one label each")
        object.__setattr__(self, "label", label)

    @staticmethod
    def _bounds(values) -> np.ndarray:
        bounds = np.asarray(values, dtype=float)
        if bounds.ndim != 2:
            raise ValueError("cell bounds must have shape (C, d)")
        return bounds

    def __len__(self) -> int:
        return self.lower.shape[0]

    def __iter__(self):
        for row in zip(self.lower, self.upper, self.label.tolist()):
            yield Box(*row)

    @cached_property
    def _grid(self):
        """(per-axis edges, int8 label codes in grid shape) if the bounds are
        exactly the `_mesh` of strictly increasing per-axis edges, else None.

        Codes: 1 feasible, 0 infeasible, -1 unknown."""
        if len(self) == 0:
            return None
        edges = [np.append(np.unique(lo), hi.max())
                 for lo, hi in zip(self.lower.T, self.upper.T)]
        if not (all((np.diff(e) > 0).all() for e in edges)
                and np.array_equal(self.lower, _mesh([e[:-1] for e in edges]))
                and np.array_equal(self.upper, _mesh([e[1:] for e in edges]))):
            return None
        codes = np.full(len(self), -1, dtype=np.int8)
        codes[self.label == FEASIBLE] = 1
        codes[self.label == INFEASIBLE_LABEL] = 0
        return edges, codes.reshape([e.size - 1 for e in edges])

    def label_codes(self, thetas: np.ndarray) -> np.ndarray:
        """Per row of `thetas` (N, d): 1 in a feasible cell, 0 in an
        infeasible one, -1 in an unknown cell, in no cell, or everywhere if
        the cells are not a tensor grid.  A row on a shared edge may take
        either cell's code: labels hold on closed cells.

        Each coordinate is located by an arithmetic index into its edges;
        where the exact edges do not contain it, the index moves by one
        edge toward it, and a row still not contained gets -1."""
        if thetas.shape[1] != self.lower.shape[1]:
            raise ValueError(f"thetas have {thetas.shape[1]} coordinates, "
                             f"cells have {self.lower.shape[1]}")
        if self._grid is None:
            return np.full(thetas.shape[0], -1, dtype=np.int8)
        edges, codes = self._grid
        flat = np.zeros(thetas.shape[0], dtype=np.intp)
        found = np.ones(thetas.shape[0], dtype=bool)
        for x, e in zip(thetas.T, edges):
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
        out = codes.reshape(-1)[flat]
        out[~found] = -1
        return out


def _input_min(f: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """min of f . u over the stacked input box lo <= u <= hi, per row of f."""
    return np.minimum(f * lo, f * hi).sum(axis=-1)


def worst_case_margin(c: AffineInputConstraint, box: Box) -> float:
    """min over admissible stacked inputs of f.u + b (closed form)."""
    if box.lower.size != c.m:
        raise ValueError(f"box has {box.lower.size} input coordinates, "
                         f"constraint has {c.m}")
    lo, hi = box.stacked(c.time)
    return c.b + float(_input_min(c.f, lo, hi))


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative multipliers P with D^T P = -f and d.P <= b."""

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float).reshape(-1)
        if P.size and P.min() < -1e-9:
            raise ValueError("certificate multipliers must be nonnegative")
        object.__setattr__(self, "P", P)


def farkas_feasible(c: AffineInputConstraint, box: Box):
    """Robust feasibility via the Farkas dual of the box-constrained LP.

    The input polytope is written D u <= d with interleaved rows
    (+e_k, hi_k), (-e_k, -lo_k).  Robust feasibility of f.u + b >= 0 holds
    iff some P >= 0 satisfies D^T P = -f and d.P <= b; the minimum of d.P
    subject to the equalities is found by the two-phase simplex, so the
    certificate is the optimizer itself.
    """
    if box.lower.size != c.m:
        raise ValueError(f"box has {box.lower.size} input coordinates, "
                         f"constraint has {c.m}")
    t = c.time
    if t == 0:
        ok = c.b >= -FEAS_TOL
        return ok, (FarkasCertificate(np.zeros(0)) if ok else None)
    lo, hi = box.stacked(t)
    k = c.f.shape[0]
    d = np.empty(2 * k)
    d[0::2] = hi
    d[1::2] = -lo
    a_eq = np.zeros((k, 2 * k))
    idx = np.arange(k)
    a_eq[idx, 2 * idx] = 1.0
    a_eq[idx, 2 * idx + 1] = -1.0
    res = solve_standard_lp(d, a_eq, -c.f)
    if res.status == INFEASIBLE:
        return False, None
    if res.status != OPTIMAL:
        raise RuntimeError(f"unexpected LP status {res.status} in Farkas dual")
    if res.objective <= c.b + FEAS_TOL:
        return True, FarkasCertificate(res.x)
    return False, None


# --- per-leaf geometry ------------------------------------------------------

@dataclass(frozen=True)
class _LeafGeometry:
    """One leaf, normalized to at-least form, as affine data in theta.

    The state-space predicate gradient is tilde(theta) = v0 + J theta (J = 0
    for a state predicate), and at theta the leaf is the input constraint
    f.u + b >= 0 with

        f = W' tilde,  b = offset + tilde.a_t + noise_coeff * sigma

    a_t = A^t x0, W = [A^{t-1} B, ..., A B, B], sigma^2 = tilde' V tilde and V
    the noise Gram matrix at the leaf's time.  Its margin adds the worst
    case of f.u over the model's input box, whose stacked bounds it keeps.
    """

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

    def margins(self, thetas) -> np.ndarray:
        tl = self.gradients(thetas)
        return (self.mean(tl) + _input_min(tl @ self.W, self.lo_stack,
                                           self.hi_stack) + self.noise(tl))


def _leaf_geometry(leaf: ChanceConstraint, model: ParametricLti,
                   x0) -> _LeafGeometry:
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

    t = leaf.time
    a_t = np.linalg.matrix_power(model.A, t) @ np.asarray(x0, dtype=float).reshape(-1)
    W = np.zeros((n, model.m * t))
    Ak = np.eye(n)
    for k in range(t - 1, -1, -1):
        W[:, k * model.m:(k + 1) * model.m] = Ak @ model.B
        Ak = model.A @ Ak
    lo, hi = model.input_box.stacked(t)
    return _LeafGeometry(offset=sign * pred.offset, v0=v0, J=J, a_t=a_t, W=W,
                         V=noise_gram(model, t),
                         noise_coeff=gaussian_quantile(delta),
                         lo_stack=lo, hi_stack=hi)


def to_affine(leaf: ChanceConstraint, model: ParametricLti,
              x0) -> AffineInputConstraint:
    """Reduce one leaf chance constraint on a state predicate to an affine
    input constraint: its `_leaf_geometry` at the leaf's own gradient.

    An `at_most` leaf negates the predicate and complements the threshold
    first, and the noise margin uses delta = 1 - threshold.  The offset b
    collects the predicate offset, the mean contribution of the initial
    state, tilde^T A^t x0, and the noise margin; at time 0 the constraint
    has no input coefficients and reduces to a sign check.
    """
    if isinstance(leaf.predicate, OutputPredicate):
        raise StlError(
            "bind output predicates to a model parameter before the affine "
            "reduction")
    g = _leaf_geometry(leaf, model, x0)
    tl = g.v0[None]  # J = 0 for a state predicate
    return AffineInputConstraint(f=(tl @ g.W)[0],
                                 b=(g.mean(tl) + g.noise(tl))[0],
                                 time=leaf.time, m=model.m)


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
        self._geometry = [_leaf_geometry(leaf, model, self.x0)
                          for leaf in self.decomposition.all_leaves()]

    @property
    def horizon(self) -> int:
        return horizon(self.formula)

    def leaves(self) -> tuple:
        return self.decomposition.all_leaves()

    def affine_constraints(self, theta) -> list:
        """Per-leaf affine input constraints at a fixed parameter, each
        leaf bound to C(theta) first."""
        c = self.model.c_matrix(theta)
        return [to_affine(leaf.bind(c), self.model, self.x0)
                for leaf in self.leaves()]

    def leaf_margins(self, theta) -> np.ndarray:
        return np.array([g.margins(theta)[0] for g in self._geometry])

    def satisfaction_batch(self, thetas,
                           cells: Optional[Cells] = None) -> np.ndarray:
        """Vectorized satisfaction map over rows of `thetas`: each leaf sees
        only the rows that every earlier leaf admitted.

        With `cells` labelled by `classify_cells` for this spec, a row in a
        certified cell takes its label and only the rest reach the leaves.
        The indicator is the same: in a feasible cell every leaf margin has
        a lower bound >= -FEAS_TOL, and an infeasible cell has a leaf whose
        margin has an upper bound < -FEAS_TOL."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if cells is None:
            ok = np.zeros(thetas.shape[0], dtype=np.uint8)
            rows = np.arange(thetas.shape[0])
        else:
            code = cells.label_codes(thetas)
            ok = (code == 1).astype(np.uint8)
            rows = np.flatnonzero(code < 0)
        for g in self._geometry:
            if rows.size == 0:
                break
            rows = rows[g.margins(thetas[rows]) >= -FEAS_TOL]
        ok[rows] = 1
        return ok


def satisfaction_fn(theta, spec: VerificationSpec) -> int:
    """Indicator that every decomposed constraint holds robustly at theta."""
    return int(spec.satisfaction_batch(np.reshape(theta, (1, -1)))[0])


# --- piecewise-affine relaxation over parameter cells ------------------------

def _mesh(axes) -> np.ndarray:
    """Rows of the Cartesian product of `axes`, the last axis fastest."""
    return np.column_stack([m.ravel()
                            for m in np.meshgrid(*axes, indexing="ij")])


def pwa_partition(region: Box, per_axis: int) -> Cells:
    """Uniform grid of per_axis^d cells exactly covering the region, the
    cell index running fastest along the last coordinate."""
    if per_axis < 1:
        raise ValueError("per_axis must be at least 1")
    edges = [np.linspace(lo, hi, per_axis + 1)
             for lo, hi in zip(region.lower, region.upper)]
    return Cells(_mesh([e[:-1] for e in edges]), _mesh([e[1:] for e in edges]))


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x[c] for every row c of x (M one matrix or C of them), rounded as
    each one-row product is, so labels do not depend on batching."""
    return (M @ x[..., None])[..., 0]


def _cell_arrays(lower: np.ndarray, upper: np.ndarray):
    """Centers (C, d) and vertices (C, 2^d, d) of boxes."""
    d = lower.shape[1]
    upper_bit = np.array(list(itertools.product((False, True), repeat=d)),
                         dtype=bool).reshape(2 ** d, d)
    return (0.5 * (lower + upper),
            np.where(upper_bit, upper[:, None], lower[:, None]))


def pwa_classify(cell: Box, spec: VerificationSpec) -> str:
    """Label one cell feasible, infeasible or unknown (see `classify_cells`)."""
    return str(classify_cells(Cells(cell.lower[None], cell.upper[None]),
                              spec).label[0])


def classify_cells(cells: Cells, spec: VerificationSpec) -> Cells:
    """A copy of `cells` with each cell labelled feasible, infeasible or
    unknown; the bound arrays are shared, not copied.

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
    vertex test is exact.  The leaves are taken in turn, each in one array
    pass over the cells that no earlier leaf has certified infeasible: such
    a cell's label is settled.  The upper bound is never below the lower
    one, so the label does not depend on the order of the leaves.
    """
    if len(cells) == 0:
        return cells
    centers, verts = _cell_arrays(cells.lower, cells.upper)
    d = centers.shape[1]
    active = np.arange(len(cells))  # cells not yet certified infeasible
    feasible = np.ones(len(cells), bool)  # over the active cells
    for g in spec._geometry:
        shape = verts.shape[:2]  # (cell, vertex)
        tl_v = g.gradients(verts.reshape(-1, d))
        tl_c = g.v0 + _mv(g.J, centers)
        base = g.mean(tl_v).reshape(shape)
        f_v = tl_v @ g.W
        input_min = _input_min(f_v, g.lo_stack, g.hi_stack).reshape(shape)
        # The center's worst-case input branch, held fixed: affine, >= min.
        branch = np.where(_mv(g.W.T, tl_c) >= 0.0, g.lo_stack, g.hi_stack)
        input_ub = _mv(f_v.reshape(*shape, -1), branch)
        sigma_v = g.sigma(tl_v).reshape(shape)
        vc = _mv(g.V, tl_c)
        sigma_c = np.sqrt(np.maximum(_mv(tl_c[:, None, :], vc)[:, 0], 0.0))
        tangent_v = np.divide(_mv(tl_v.reshape(*shape, -1), vc),
                              sigma_c[:, None], out=np.zeros(shape),
                              where=sigma_c[:, None] > 0.0)
        q = g.noise_coeff
        below, above = ((sigma_v, tangent_v) if q <= 0.0
                        else (tangent_v, sigma_v))
        feasible &= (base + input_min + q * below).min(axis=1) >= -FEAS_TOL
        upper = base + input_ub + q * above
        keep = ~(upper.max(axis=1) < -FEAS_TOL)  # not certified infeasible
        if not keep.all():
            active, feasible = active[keep], feasible[keep]
            centers, verts = centers[keep], verts[keep]
            if active.size == 0:
                break
    label = np.full(len(cells), INFEASIBLE_LABEL)
    label[active] = np.where(feasible, FEASIBLE, UNKNOWN)
    return Cells(cells.lower, cells.upper, label)


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
    """
    tol = 1e-2 * (region.upper - region.lower)
    first = cells = classify_cells(pwa_partition(region, per_axis), spec)
    while True:
        keep = cells.label != INFEASIBLE_LABEL
        if not keep.any():
            return None, first
        lower = cells.lower[keep].min(axis=0)
        upper = cells.upper[keep].max(axis=0)
        if not ((lower - region.lower > tol)
                | (region.upper - upper > tol)).any():
            return region, cells
        region = Box(lower, upper)
        cells = classify_cells(pwa_partition(region, per_axis), spec)
