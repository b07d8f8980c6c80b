"""Independent references for the benchmark's output checks.

Nothing here imports `stlbayes`.  Every reference is computed with numpy and
the standard library from the workload config and from the data the program
collected, so a fault in the program cannot hide in its own reference:

- `kalman_loglik`: the exact prediction-error log-likelihood of a record,
  by a Kalman filter run over a batch of parameters (x(0) known, P0 = 0);
- `safety_margin`: the closed-form Boole-split margin map of `G[a,b] (p1 &
  ... & pk)` over the input box, and with a per-leaf budget of delta its
  necessary superset;
- `GridPosterior`: midpoint quadrature of the posterior on a parameter box,
  and `CellSet`, which brackets the share of each grid cell inside a set;
- `until_reach_bound` / `until_feasible_radius`: the README's union bound on
  the reach probability of `(...) U[a,b] (band)` and the disc that holds
  every parameter able to meet it.
"""

from __future__ import annotations

import math
import re
from statistics import NormalDist

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


# --- model ------------------------------------------------------------------

def model_from_config(cfg: dict) -> dict:
    """Matrices of the config's model; only the Laguerre preset is needed.

    The preset is written out here from its definition (two states, pole a,
    process noise 0.5 I through G = I, output noise 0.5, inputs in
    [-0.2, 0.2], C(theta) = [theta_1, theta_2]) together with the overrides
    the config format allows.
    """
    section = cfg["model"]
    if section.get("preset") != "laguerre":
        raise ValueError("the references cover the laguerre preset only")
    a = float(section["a"])
    r = math.sqrt(1.0 - a * a)
    model = {
        "A": np.array([[a, 0.0], [1.0 - a * a, a]]),
        "B": np.array([[r], [-a * r]]),
        "G": np.eye(2),
        "C0": np.zeros((1, 2)),
        "C_basis": np.array([[[1.0, 0.0]], [[0.0, 1.0]]]),
        "Sigma_w": 0.5 * np.eye(2),
        "Sigma_e": np.array([[0.5]]),
        "input_lower": np.array([-0.2]),
        "input_upper": np.array([0.2]),
    }
    for key in ("Sigma_w", "Sigma_e", "G"):
        if key in section:
            model[key] = np.asarray(section[key], dtype=float)
    if "input_box" in section:
        model["input_lower"] = np.asarray(section["input_box"][0], dtype=float)
        model["input_upper"] = np.asarray(section["input_box"][1], dtype=float)
    return model


def c_matrices(model: dict, thetas: np.ndarray) -> np.ndarray:
    """C(theta) = C0 + sum_i theta_i C_i for each row of `thetas`: (B, p, n)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    return model["C0"][None] + np.einsum("bd,dpn->bpn", thetas,
                                         model["C_basis"])


# --- likelihood -------------------------------------------------------------

def kalman_loglik(model: dict, thetas, x0, inputs, outputs) -> np.ndarray:
    """Prediction-error log-likelihood of one record at each parameter row.

    The pair (u(t), y(t)) is measured at step t, before u(t) acts, so the
    first prediction is x(0) itself with zero covariance.  Each step adds
    -(p log 2 pi + log det S + v' S^-1 v) / 2 for the innovation v and its
    covariance S = C P C' + Sigma_e.
    """
    C = c_matrices(model, thetas)
    nb, p, n = C.shape
    A, Bm = model["A"], model["B"]
    Q = (model["G"] @ model["Sigma_w"] @ model["G"].T).reshape(-1)
    # Row-major vec(A P A') = kron(A, A) vec(P): one product for the batch.
    AA = np.kron(A, A).T
    u = np.asarray(inputs, dtype=float).reshape(len(inputs), -1)
    y = np.asarray(outputs, dtype=float).reshape(len(outputs), -1)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (nb, n)).copy()
    P = np.zeros((nb, n, n))
    ll = np.zeros(nb)
    for t in range(y.shape[0]):
        v = y[t] - np.einsum("bpn,bn->bp", C, x)
        PCt = np.einsum("bij,bpj->bip", P, C)
        S = np.einsum("bpi,biq->bpq", C, PCt) + model["Sigma_e"]
        if p == 1:
            s = S[:, 0, 0]
            ll -= 0.5 * (_LOG_2PI + np.log(s) + v[:, 0] * v[:, 0] / s)
            K = PCt / s[:, None, None]
        else:
            L = np.linalg.cholesky(S)
            white = np.linalg.solve(L, v[:, :, None])[:, :, 0]
            logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
            ll -= 0.5 * (p * _LOG_2PI + logdet + (white * white).sum(axis=1))
            K = np.swapaxes(np.linalg.solve(S, np.swapaxes(PCt, 1, 2)), 1, 2)
        x = x + np.einsum("bnp,bp->bn", K, v)
        P = P - np.einsum("bip,bjp->bij", K, PCt)
        P = 0.5 * (P + np.swapaxes(P, 1, 2))
        x = x @ A.T + Bm @ u[t]
        P = (P.reshape(nb, n * n) @ AA + Q).reshape(nb, n, n)
    return ll


# --- Boole-split margin map -------------------------------------------------

_ALWAYS = re.compile(r"^\s*G\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*\((.*)\)\s*$")


def parse_always(formula: str):
    """(a, b, names) of `G[a,b] (n1 & ... & nk)`; ValueError for other shapes."""
    match = _ALWAYS.match(formula)
    if not match:
        raise ValueError(f"the margin map covers G[a,b] (p1 & ... & pk) only, "
                         f"not {formula!r}")
    names = [s.strip() for s in match.group(3).split("&")]
    if not all(re.fullmatch(r"\w+", s) for s in names):
        raise ValueError(f"conjunction of predicate names expected: {formula!r}")
    return int(match.group(1)), int(match.group(2)), names


def noise_grams(model: dict, horizon: int) -> list:
    """V_t, the covariance of x(t) due to process noise, for t = 0..horizon."""
    Q = model["G"] @ model["Sigma_w"] @ model["G"].T
    grams = [np.zeros_like(Q)]
    for _ in range(horizon):
        grams.append(model["A"] @ grams[-1] @ model["A"].T + Q)
    return grams


def leaf_margin(model: dict, thetas, x0, offset: float, gradient, t: int,
                z: float) -> np.ndarray:
    """Worst-case margin of Pr(offset + g.y(t) >= 0) >= Phi(z) over the box.

    y(t) = C(theta) x(t) is Gaussian with mean C(theta) (A^t x0 + sum_k
    A^(t-1-k) B u_k) and variance h' V_t h for h = C(theta)' g.  The linear
    input term is smallest at a box vertex, coordinate by coordinate.
    """
    C = c_matrices(model, thetas)
    h = np.einsum("bpn,p->bn", C, np.asarray(gradient, dtype=float))
    A, Bm = model["A"], model["B"]
    lo, hi = model["input_lower"], model["input_upper"]
    out = offset + h @ (np.linalg.matrix_power(A, t) @ np.asarray(x0, float))
    Ak = np.eye(A.shape[0])
    for _ in range(t):
        coeff = h @ (Ak @ Bm)
        out = out + np.minimum(coeff * lo, coeff * hi).sum(axis=1)
        Ak = A @ Ak
    var = np.einsum("bi,ij,bj->b", h, noise_grams(model, t)[t], h)
    return out - z * np.sqrt(np.clip(var, 0.0, None))


def safety_margin(cfg: dict, model: dict, thetas, superset=False) -> np.ndarray:
    """Smallest leaf margin of the config's `G[a,b] (p1 & ... & pk)` property.

    The Boole split gives each of the (b - a + 1) k leaves the budget
    delta / ((b - a + 1) k); satisfaction is margin >= 0.  With
    `superset=True` every leaf gets the whole delta: each single event must
    then hold with probability 1 - delta, which any parameter meeting the
    property does, so the resulting set contains the exact feasible set.
    """
    a, b, names = parse_always(cfg["formula"])
    delta = float(cfg["delta"])
    share = 1.0 if superset else 1.0 / ((b - a + 1) * len(names))
    z = NormalDist().inv_cdf(1.0 - delta * share)
    x0 = cfg.get("x0", [0.0] * model["A"].shape[0])
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    margin = np.full(thetas.shape[0], np.inf)
    for t in range(a, b + 1):
        for name in names:
            pred = cfg["predicates"][name]
            margin = np.minimum(margin, leaf_margin(
                model, thetas, x0, float(pred["offset"]),
                pred["output_gradient"], t, z))
    return margin


# --- quadrature -------------------------------------------------------------

class GridPosterior:
    """Midpoint quadrature of a log-density on a 2-D box of K x K cells.

    `log_f` maps (B, 2) parameters to log values.  Cell masses are kept
    relative to the largest one, with its log offset `log_scale`, so that
    masses far below the mode neither underflow nor lose the total.
    """

    def __init__(self, log_f, lower, upper, cells: int, batch: int = 40000):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.cells = int(cells)
        self.h = (self.upper - self.lower) / self.cells
        axes = [self.lower[i] + self.h[i] * (np.arange(self.cells) + 0.5)
                for i in range(2)]
        g1, g2 = np.meshgrid(*axes, indexing="ij")
        self.mid = np.column_stack([g1.ravel(), g2.ravel()])
        logs = np.concatenate([log_f(self.mid[i:i + batch])
                               for i in range(0, len(self.mid), batch)])
        self.log_scale = float(logs.max()) + math.log(float(np.prod(self.h)))
        self.weights = np.exp(logs - logs.max())

    @property
    def log_total(self) -> float:
        """log of the integral over the box."""
        return self.log_scale + math.log(float(self.weights.sum()))

    def mass(self, cells: "CellSet") -> tuple:
        """(log_lo, log_hi): log integral over a set, bracketed by `cells`."""
        def log_sum(frac):
            total = float((self.weights * frac).sum())
            return self.log_scale + math.log(total) if total > 0 else -math.inf
        return log_sum(cells.lo_frac), log_sum(cells.hi_frac)

    def disc_mass(self, radius: float) -> float:
        """log integral over the cells that meet the disc |theta| <= radius."""
        near = np.maximum(np.abs(self.mid) - 0.5 * self.h, 0.0)
        meets = (near * near).sum(axis=1) <= radius * radius
        total = float(self.weights[meets].sum())
        return self.log_scale + math.log(total) if total > 0 else -math.inf


class CellSet:
    """Share of each cell of a K x K grid that lies in {theta: member >= 0}.

    A cell counts as inside if its four corners are, outside if none is.
    Each cell with mixed corners is split `sub` x `sub` times, and its share
    is bracketed by the sub-cells with all corners in (`lo_frac`) and with
    any corner in (`hi_frac`).  The set does not depend on the data, so one
    CellSet serves every posterior on the same grid.
    """

    def __init__(self, member, lower, upper, cells: int, sub: int = 8):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        h = (upper - lower) / cells

        def corner_shares(inside, n):
            """(all-in, any-in) shares of the cells of each corner grid."""
            quad = np.stack([inside[:, :-1, :-1], inside[:, 1:, :-1],
                             inside[:, :-1, 1:], inside[:, 1:, 1:]])
            return (quad.all(axis=0).reshape(n, -1).mean(axis=1),
                    quad.any(axis=0).reshape(n, -1).mean(axis=1))

        axes = [np.linspace(lower[i], upper[i], cells + 1) for i in range(2)]
        g1, g2 = np.meshgrid(*axes, indexing="ij")
        inside = member(np.column_stack([g1.ravel(), g2.ravel()])) >= 0.0
        self.lo_frac, self.hi_frac = corner_shares(
            inside.reshape(1, cells + 1, cells + 1), cells * cells)
        mixed = np.flatnonzero(self.hi_frac != self.lo_frac)
        if mixed.size:
            i, j = np.divmod(mixed, cells)
            t = np.linspace(0.0, 1.0, sub + 1)
            s1, s2 = np.meshgrid(t, t, indexing="ij")
            pts = np.stack([lower[0] + h[0] * (i[:, None] + s1.ravel()),
                            lower[1] + h[1] * (j[:, None] + s2.ravel())],
                           axis=-1).reshape(-1, 2)
            sub_in = (member(pts) >= 0.0).reshape(mixed.size, sub + 1, sub + 1)
            self.lo_frac[mixed], self.hi_frac[mixed] = corner_shares(
                sub_in, mixed.size)
        self.mixed_cells = int(mixed.size)


def loglik_fn(model: dict, dataset: dict):
    """log likelihood of a record as a function of parameter rows."""
    def log_f(thetas):
        return kalman_loglik(model, thetas, dataset["x0"], dataset["inputs"],
                             dataset["outputs"])
    return log_f


# --- the until reach bound --------------------------------------------------

_UNTIL = re.compile(r"U\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*\((.*)\)\s*$")


def parse_until_band(cfg: dict):
    """(band, window) of `... U[a,b] (p & q)` whose goal is |y| <= band.

    The goal must be two output predicates band + y >= 0 and band - y >= 0.
    """
    match = _UNTIL.search(cfg["formula"])
    if not match:
        raise ValueError(f"no until window in {cfg['formula']!r}")
    goal = [cfg["predicates"][s.strip()] for s in match.group(3).split("&")]
    grads = sorted(tuple(p["output_gradient"]) for p in goal)
    offsets = {float(p["offset"]) for p in goal}
    if grads != [(-1.0,), (1.0,)] or len(offsets) != 1:
        raise ValueError("the until goal must be a symmetric output band")
    return offsets.pop(), range(int(match.group(1)), int(match.group(2)) + 1)


def until_reach_bound(model: dict, theta, band: float, window) -> float:
    """Upper bound on Pr(psi) at theta, for every input, of a reach property.

    `psi` must reach |y(j)| <= band at some j in `window`.  y(j) is Gaussian
    with variance theta' V_j theta whatever the input, and a Gaussian puts at
    most 2 Phi(band / sigma) - 1 in a band, so a union bound over the window
    gives sum_j (2 Phi(band / sigma_j) - 1).
    """
    theta = np.asarray(theta, dtype=float)
    grams = noise_grams(model, max(window))
    return sum(2.0 * NormalDist().cdf(band / math.sqrt(theta @ grams[j] @ theta))
               - 1.0 for j in window)


def until_feasible_radius(model: dict, delta: float, band: float,
                          window) -> float:
    """Radius of a disc that holds every theta with Pr(psi) >= 1 - delta.

    sigma_j >= sqrt(lam) |theta| for the smallest eigenvalue lam of the V_j,
    so `until_reach_bound` stays below 1 - delta outside this radius.
    """
    grams = noise_grams(model, max(window))
    lam = min(np.linalg.eigvalsh(grams[j])[0] for j in window)
    z = NormalDist().inv_cdf((1.0 + (1.0 - delta) / len(window)) / 2.0)
    return band / (math.sqrt(lam) * z)
