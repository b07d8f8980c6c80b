"""Reference implementations that only the tests and acceptance criteria use.

Each oracle computes by a second route a quantity that the package computes
in its pipeline, or checks an identity the pipeline relies on:

* the scalar STL evaluator `scalar_satisfies` and the robustness semantics
  (`robustness`), against `stl._evaluate`;
* the dense Gaussian route (`build_M`, `joint_distribution`,
  `gaussian_logpdf`, `log_likelihood`), against the Kalman filter
  `bayes._BatchLikelihood`;
* the per-leaf affine reduction (`to_affine`, `affine_constraints`), its
  closed-form worst case (`worst_case_margin`) and the Farkas dual of the
  robust linear program (`farkas_feasible`, solved by the two-phase simplex
  `solve_standard_lp`), against `feasibility._LeafGeometry`;
* the noise margin of one leaf and its gradient (`gamma`,
  `gamma_gradient`), and the normal cdf (`gaussian_cdf`) that inverts the
  package's quantile;
* the noise-free and the batch simulation of the state equation
  (`mean_trajectory`, `simulate_states_batch`);
* the unknown cells' uniform points drawn cell by cell, one fresh generator
  each (`cell_points`), against `confidence._cell_points`.

None of it is imported by the package, so a `verify` process never compiles
it.  The module is named `oracles`, not `reference`: the test run also
collects `bench/test_reference.py`, which imports `bench/reference.py` as
`reference`.
"""

from __future__ import annotations

import math

import numpy as np

from stlbayes.bayes import _LOG_2PI
from stlbayes.chance import ChanceConstraint
from stlbayes.feasibility import (
    FEAS_TOL,
    VerificationSpec,
    _leaf_geometry,
    _time_terms,
    gaussian_quantile,
    noise_gram,
)
from stlbayes.lti import Box, DataSet, ParametricLti, psd_factor
from stlbayes.record import Record
from stlbayes.rng import RngStream
from stlbayes.stl import (
    Always,
    And,
    Eventually,
    Formula,
    Not,
    Or,
    OutputPredicate,
    Pred,
    StlError,
    TrueNode,
    Until,
    _evaluate,
    _require_length,
    _state_predicate,
    as_trajectory,
)


# --- STL: the scalar evaluator and robustness --------------------------------

def scalar_satisfies(xi, f: Formula, t: int = 0) -> bool:
    """Boolean satisfaction by direct recursion on one trajectory, with
    short-circuit and/or: the reference for `stl._evaluate`."""
    xi = as_trajectory(xi)
    _require_length(xi.shape[0], f, t)
    return _satisfies(xi, f, t)


def _satisfies(xi: np.ndarray, f: Formula, t: int) -> bool:
    if isinstance(f, TrueNode):
        return True
    if isinstance(f, Pred):
        p = _state_predicate(f)
        return p.offset + float(p.gradient_array @ xi[t]) >= 0.0
    if isinstance(f, Not):
        return not _satisfies(xi, f.child, t)
    if isinstance(f, And):
        return _satisfies(xi, f.left, t) and _satisfies(xi, f.right, t)
    if isinstance(f, Or):
        return _satisfies(xi, f.left, t) or _satisfies(xi, f.right, t)
    if isinstance(f, Until):
        for tp in range(t + f.a, t + f.b + 1):
            if _satisfies(xi, f.right, tp) and all(
                _satisfies(xi, f.left, tpp) for tpp in range(t, tp + 1)
            ):
                return True
        return False
    if isinstance(f, Eventually):
        return any(_satisfies(xi, f.child, t + i) for i in range(f.a, f.b + 1))
    if isinstance(f, Always):
        return all(_satisfies(xi, f.child, t + i) for i in range(f.a, f.b + 1))
    raise StlError(f"unknown formula node {f!r}")


# The quantitative semantics of `stl._evaluate`: predicate values, min, max,
# negation and +inf for true.
_ROBUSTNESS = (lambda v: v, np.minimum, np.maximum, np.negative, math.inf)


def robustness(xi, f: Formula, t: int = 0) -> float:
    """Quantitative robustness margin; positive implies satisfaction."""
    xi = as_trajectory(xi)
    _require_length(xi.shape[0], f, t)
    return float(_evaluate(xi[None], f, t, _ROBUSTNESS)[0])


def gaussian_cdf(x: float) -> float:
    """Standard normal cdf Phi(x) = erfc(-x / sqrt 2) / 2.

    The erfc form keeps full relative accuracy in the lower tail, where
    (1 + erf(x / sqrt 2)) / 2 would cancel.
    """
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


# --- simulation --------------------------------------------------------------

def mean_trajectory(model: ParametricLti, x0, inputs) -> np.ndarray:
    """Noise-free state trajectory (the mean of the stochastic dynamics)."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    T = u.shape[0]
    states = np.empty((T + 1, model.n))
    states[0] = x0
    for t in range(T):
        states[t + 1] = model.A @ states[t] + model.B @ u[t]
    return states


def simulate_states_batch(model: ParametricLti, x0, inputs, n_paths: int,
                          rng: RngStream) -> np.ndarray:
    """Simulate `n_paths` independent noise realizations of the state equation.

    All paths share the same input sequence.  Returns shape (n_paths, T+1, n).
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    T = u.shape[0]
    gen = rng.generator()
    w = gen.standard_normal((n_paths, T, model.q)) @ psd_factor(model.Sigma_w).T
    states = np.empty((n_paths, T + 1, model.n))
    states[:, 0, :] = x0
    for t in range(T):
        states[:, t + 1, :] = (states[:, t, :] @ model.A.T
                               + model.B @ u[t] + w[:, t, :] @ model.G.T)
    return states


# --- the unknown cells' points ----------------------------------------------

def cell_points(cells, integrated: np.ndarray, n: int,
                rng: RngStream) -> np.ndarray:
    """(len(integrated), n, d) points, cell idx's uniform in its box: one
    fresh `rng.child("cell").generator()` per cell, advanced by idx * 2^64,
    its `random` block mapped into the box."""
    pts = np.empty((integrated.size, n, cells.lower.shape[1]))
    for k, idx in enumerate(integrated.tolist()):
        gen = rng.child("cell").generator()
        gen.bit_generator.advance(idx << 64)
        gen.random(out=pts[k])
    lower = cells.lower[integrated, None]
    pts *= cells.upper[integrated, None] - lower
    pts += lower
    return pts


# --- the dense Gaussian likelihood -------------------------------------------

def build_M(model: ParametricLti, theta, n_exp: int) -> np.ndarray:
    """Noise-to-output map: block (r, c) = C(theta) A^{r-c-1} G for r > c.

    Shape (p n_exp, q n_exp); the first block row is zero because y(0)
    precedes any process noise.
    """
    if n_exp < 1:
        raise ValueError("n_exp must be at least 1")
    c = model.c_matrix(theta)
    p, q, n = model.p, model.q, model.n
    blocks = []
    Ak = np.eye(n)
    for _ in range(n_exp - 1):
        blocks.append(c @ Ak @ model.G)
        Ak = model.A @ Ak
    M = np.zeros((p * n_exp, q * n_exp))
    for r in range(1, n_exp):
        for col in range(r):
            M[r * p:(r + 1) * p, col * q:(col + 1) * q] = blocks[r - col - 1]
    return M


class GaussianJoint(Record):
    """Mean and covariance of the stacked noisy outputs for one parameter."""

    mean: np.ndarray
    cov: np.ndarray
    singular: bool = False


def joint_distribution(model: ParametricLti, theta, x0, inputs) -> GaussianJoint:
    """Joint Gaussian of y(0 .. N-1) under process and measurement noise:
    mean the noise-free outputs, covariance M Sigma_W M^T + Sigma_E."""
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    n_exp = u.shape[0]
    c = model.c_matrix(theta)
    xbar = mean_trajectory(model, x0, u)
    mean = (xbar[:n_exp] @ c.T).reshape(-1)

    M = build_M(model, theta, n_exp)
    sigma_w_big = np.kron(np.eye(n_exp), model.Sigma_w)
    sigma_e_big = np.kron(np.eye(n_exp), model.Sigma_e)
    cov = M @ sigma_w_big @ M.T + sigma_e_big
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    return GaussianJoint(mean=mean, cov=cov, singular=bool(eigs.min() <= 1e-12))


def gaussian_logpdf(resid, cov) -> float:
    """Centered multivariate Gaussian log density via Cholesky (no inverse)."""
    resid = np.asarray(resid, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    L = np.linalg.cholesky(cov)
    half = np.linalg.solve(L, resid)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    k = resid.shape[0]
    return -0.5 * (float(half @ half) + logdet + k * _LOG_2PI)


def log_likelihood(theta, data: DataSet, model: ParametricLti) -> float:
    """Log density of the observed stacked outputs at one parameter value."""
    joint = joint_distribution(model, theta, data.x0, data.inputs)
    resid = data.outputs.reshape(-1) - joint.mean
    try:
        return gaussian_logpdf(resid, joint.cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"covariance factorization failed at theta={np.asarray(theta).tolist()}: "
            f"{exc}") from exc


# --- the noise margin of one leaf --------------------------------------------

def gamma(theta_tilde, delta: float, model: ParametricLti, t: int) -> float:
    """Noise margin added to the mean constraint for a predicate at time t.

    sigma^2 = theta_tilde^T V_t theta_tilde is the variance of alpha(x(t))
    due to the process noise, and the margin is sigma * Phi^{-1}(delta):
    `mean + gamma >= 0` is equivalent to Pr(alpha(x(t)) >= 0) >= 1 - delta
    for Gaussian states.
    """
    theta_tilde = np.asarray(theta_tilde, dtype=float).reshape(-1)
    if theta_tilde.shape != (model.n,):
        raise ValueError(
            f"theta_tilde must have length {model.n}, got {theta_tilde.shape}")
    var = max(float(theta_tilde @ noise_gram(model, t) @ theta_tilde), 0.0)
    return float(gaussian_quantile(delta) * np.sqrt(var))


def gamma_gradient(theta_tilde, delta: float, model: ParametricLti, t: int):
    """Analytic (d gamma / d theta_tilde, d gamma / d delta).

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


# --- one leaf as an affine input constraint ----------------------------------

class AffineInputConstraint(Record):
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


def bind_leaf(leaf: ChanceConstraint, c_matrix: np.ndarray) -> ChanceConstraint:
    """The leaf with an output-space predicate folded into state space
    using C(theta)."""
    if not isinstance(leaf.predicate, OutputPredicate):
        return leaf
    return ChanceConstraint(leaf.predicate.bind(c_matrix), leaf.time,
                            leaf.direction, leaf.threshold, leaf.label,
                            leaf.path)


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
    g = _leaf_geometry(leaf, model, _time_terms(model, x0, leaf.time))
    tl = g.v0[None]  # J = 0 for a state predicate
    return AffineInputConstraint(f=(tl @ g.W)[0],
                                 b=(g.mean(tl) + g.noise(tl))[0],
                                 time=leaf.time, m=model.m)


def affine_constraints(spec: VerificationSpec, theta) -> list:
    """Per-leaf affine input constraints of `spec` at a fixed parameter,
    each leaf bound to C(theta) first."""
    c = spec.model.c_matrix(theta)
    return [to_affine(bind_leaf(leaf, c), spec.model, spec.x0)
            for leaf in spec.leaves()]


def leaf_margins(spec: VerificationSpec, theta) -> np.ndarray:
    """Every leaf's margin at one parameter, in decomposition order."""
    return np.array([g.margins(theta)[0] for g in spec._geometry])


def satisfaction_fn(theta, spec: VerificationSpec) -> int:
    """Indicator that every decomposed constraint holds robustly at theta."""
    return int(spec.satisfaction_batch(np.reshape(theta, (1, -1)))[0])


def worst_case_margin(c: AffineInputConstraint, box: Box) -> float:
    """min over admissible stacked inputs of f.u + b in closed form: each
    input at the bound its coefficient's sign picks.  Written apart from
    `feasibility._input_min`, which criterion 3 checks beside it."""
    if box.lower.size != c.m:
        raise ValueError(f"box has {box.lower.size} input coordinates, "
                         f"constraint has {c.m}")
    lo, hi = box.stacked(c.time)
    return c.b + float(c.f @ np.where(c.f > 0, lo, hi))


# --- the Farkas route --------------------------------------------------------

class FarkasCertificate(Record):
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


# --- dense two-phase primal simplex ------------------------------------------
#
# Solves  min c.x  subject to  A x = b, x >= 0  with Bland's rule, which is
# all the robust-feasibility duals above need (a few dozen variables at
# most).

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9


class LpResult(Record):
    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _simplex_core(tableau: np.ndarray, basis: np.ndarray, n_vars: int) -> str:
    """Run Bland-rule pivots on a tableau whose last row is the objective."""
    m = tableau.shape[0] - 1
    while True:
        cost = tableau[-1, :n_vars]
        entering = -1
        for j in range(n_vars):
            if cost[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        ratios = []
        for i in range(m):
            a = tableau[i, entering]
            if a > _TOL:
                ratios.append((tableau[i, -1] / a, basis[i], i))
        if not ratios:
            return UNBOUNDED
        # Bland: smallest ratio, ties broken by smallest basis index.
        ratios.sort(key=lambda r: (r[0], r[1]))
        _pivot(tableau, basis, ratios[0][2], entering)


def solve_standard_lp(c, A, b) -> LpResult:
    """Minimize c.x subject to A x = b, x >= 0."""
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")

    A = A.copy()
    b = b.copy()
    flip = b < 0.0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial variables, minimize their sum.
    total = n + m
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n] = A
    tableau[:m, n:total] = np.eye(m)
    tableau[:m, -1] = b
    basis = np.arange(n, total)
    tableau[-1, n:total] = 1.0
    for i in range(m):
        tableau[-1] -= tableau[i]
    status = _simplex_core(tableau, basis, total)
    if status != OPTIMAL:
        # The phase-1 objective is bounded below by zero.
        raise RuntimeError("phase-1 simplex failed to terminate cleanly")
    # The objective row stores -z; a strictly positive artificial sum means
    # the equality system has no nonnegative solution.
    if tableau[-1, -1] < -1e-7:
        return LpResult(INFEASIBLE, None, None)

    # Drive any artificial variables that linger in the basis out of it.
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)
    keep = [i for i in range(m) if basis[i] < n]
    rows = keep + [m]
    tableau = tableau[rows][:, list(range(n)) + [total]]
    basis = basis[keep]
    m = len(keep)

    # Phase 2: original objective expressed over the current basis.
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i in range(m):
        tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    status = _simplex_core(tableau, basis, n)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = np.zeros(n)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    return LpResult(OPTIMAL, x, float(c @ x))
