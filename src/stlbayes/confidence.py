"""Monte Carlo and piecewise-affine estimates of the satisfaction confidence.

The confidence is the posterior mass of the parameter set whose models meet
the probabilistic requirement.  The Monte Carlo route samples the search
region uniformly and averages satisfaction * posterior density; Chebyshev's
inequality turns the sample variance into a coverage statement.  Given the
certified PWA cells, its satisfaction indicator reads each sample's cell
label and evaluates the leaves only for samples in unknown cells.  The PWA
route integrates the posterior over cells certified feasible by an adaptive
tensor Gauss-Legendre rule, and reports the mass of undecided cells, from
uniform draws in each, as a bracket instead of a point value.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .bayes import PosteriorDensity
from .feasibility import FEASIBLE, UNKNOWN, Box, Cells, _mesh
from .lti import _into_boxes
from .record import Record
from .rng import RngStream


class ConfidenceEstimate(Record, eq=True):
    """Point estimate with its error diagnostics.

    `value` is clamped to [0, 1] for reporting; `raw_value` keeps the
    unclamped estimator output.  `samples` counts the posterior densities
    the estimate rests on.  `std_error` is the Monte Carlo standard error,
    or for PWA the rule's error estimate, and `variance_estimate` its
    square.  `chebyshev_probability` is Chebyshev's lower bound on
    Pr(|Q - E Q| < eps) for the reported epsilon, max(0, 1 - Var/eps^2): 0
    when Var exceeds eps^2.
    """

    value: float
    raw_value: float
    method: str
    samples: int
    variance_estimate: float
    std_error: float
    chebyshev_epsilon: float
    chebyshev_probability: float
    interval: Optional[tuple] = None
    per_cell: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        """The fields that are set, tuples as lists."""
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in zip(self._fields, self._values())
                if value is not None}


def _chebyshev_fields(var_est: float, epsilon: Optional[float]):
    if epsilon is None:
        if var_est <= 0.0:
            return 0.0, 1.0
        eps = 3.0 * math.sqrt(var_est)
        return eps, 1.0 - 1.0 / 9.0
    if var_est <= 0.0:
        return float(epsilon), 1.0
    return float(epsilon), max(0.0, 1.0 - var_est / (epsilon * epsilon))


def mc_draws(sat, region: Box, n: int, rng: RngStream,
             cells: Optional[Cells] = None) -> tuple:
    """The n uniform draws of `mc_confidence` and which satisfy the
    property: (indicator over all n draws, the satisfying draws' rows).

    The draws are `region.uniform`, the doubles of `Generator.uniform`.
    The indicator is one `sat.satisfaction_batch(thetas, cells)` call
    (`sat` is a `VerificationSpec`): with `cells`, a partition labelled by
    `classify_cells`, draws in certified cells take the cell's label and
    only the others are checked leaf by leaf, with the same indicator
    either way."""
    if n < 1:
        raise ValueError("sample count must be positive")
    thetas = region.uniform(rng.generator(), n)
    hit = sat.satisfaction_batch(thetas, cells) > 0
    return hit, thetas[hit]


def mc_confidence(post: PosteriorDensity, region: Box, draws: tuple,
                  epsilon: Optional[float] = None) -> ConfidenceEstimate:
    """Uniform Monte Carlo estimate of the confidence over a region.

    Q = (V / N) sum_i sat(theta_i) * posterior(theta_i) over the N draws
    `draws = mc_draws(sat, region, N, rng, cells)`; the density is only
    evaluated where the satisfaction indicator fires, which never touches
    the sample stream, so results are reproducible bit for bit from the rng
    stream value regardless of how many densities get evaluated.
    """
    hit, rows = draws
    n = hit.size
    volume = region.volume
    k = np.zeros(n)
    if hit.any():
        k[hit] = post.density(rows)
    raw = volume * float(k.mean())
    var_est = (volume * volume * float(k.var(ddof=1)) / n) if n > 1 else 0.0
    eps, prob = _chebyshev_fields(var_est, epsilon)
    return ConfidenceEstimate(
        value=float(min(max(raw, 0.0), 1.0)),
        raw_value=raw,
        method="monte_carlo",
        samples=int(n),
        variance_estimate=var_est,
        std_error=math.sqrt(var_est),
        chebyshev_epsilon=eps,
        chebyshev_probability=prob,
    )


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right sum, as a loop adds up (np.sum adds pairwise)."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


# Gauss-Legendre rules on [-1, 1] in closed form (Davis & Rabinowitz,
# 1984): (nodes, weights) of the 4- and 5-point rules.
_A4, _B4 = (math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
            math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5)))
_GL4 = ((-_B4, -_A4, _A4, _B4),
        ((18 - math.sqrt(30)) / 36, (18 + math.sqrt(30)) / 36,
         (18 + math.sqrt(30)) / 36, (18 - math.sqrt(30)) / 36))
_A5, _B5 = (math.sqrt(5 - 2 * math.sqrt(10 / 7)) / 3,
            math.sqrt(5 + 2 * math.sqrt(10 / 7)) / 3)
_GL5 = ((-_B5, -_A5, 0.0, _A5, _B5),
        ((322 - 13 * math.sqrt(70)) / 900, (322 + 13 * math.sqrt(70)) / 900,
         128 / 225,
         (322 + 13 * math.sqrt(70)) / 900, (322 - 13 * math.sqrt(70)) / 900))
# The rule's target: its summed error estimate stays below about RULE_TOL
# in posterior probability.  RULE_ROUNDS caps the density rounds.
RULE_TOL = 1e-6
RULE_ROUNDS = 12


def _tensor_rule(rule, d: int):
    """Nodes (k^d, d) and weights (k^d,) of a 1-D rule's tensor product on
    the unit cube."""
    nodes, weights = rule
    return (_mesh([0.5 + 0.5 * np.array(nodes)] * d),
            np.prod(_mesh([0.5 * np.array(weights)] * d), axis=1))


@functools.lru_cache(maxsize=None)
def _gl45(d: int) -> tuple:
    """The GL4 then the GL5 tensor nodes on the unit cube, (4^d + 5^d, d),
    and the two weight vectors, read-only; built once per dimension."""
    (x4, w4), (x5, w5) = _tensor_rule(_GL4, d), _tensor_rule(_GL5, d)
    rule = (np.vstack([x4, x5]), w4, w5)
    for array in rule:
        array.setflags(write=False)
    return rule


def _rule_nodes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The GL4 then the GL5 tensor nodes of every box, box by box."""
    m, d = lower.shape
    unit = _gl45(d)[0]
    return _into_boxes(unit, lower, upper,
                       np.empty((m, unit.shape[0], d))).reshape(-1, d)


def _rule_boxes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Indices of the boxes of positive volume, the ones the rule
    integrates."""
    return np.flatnonzero(np.prod(upper - lower, axis=1) > 0.0)


def _rule_masses(post: PosteriorDensity, lower: np.ndarray,
                 upper: np.ndarray, points: np.ndarray) -> tuple:
    """Posterior mass and error estimate of each box, by adaptive tensor
    Gauss-Legendre 4/5, and the number of densities evaluated.

    A box's mass is its GL5 value and its error |GL5 - GL4|.  A box is
    split into 2^d children, integrated in the next round, while its error
    exceeds RULE_TOL times its share of the boxes' total volume, or while
    the two rules differ by more than half the GL5 value at a node density
    that is not negligible (a peak or a tail the nodes do not resolve, whose
    small error estimate would otherwise be trusted).  Every round is one
    density call over the boxes still open; the last of RULE_ROUNDS rounds
    accepts them all.  `points` are the first round's nodes, `_rule_nodes`
    of the boxes `_rule_boxes` picks, made ahead so that the posterior
    could score them.  Boxes should lie inside the prior box, where the
    density is smooth.

    The error is an estimate, not a bound: a box whose nodes see only the
    far tail of a peak beyond its edge is accepted as negligible, and may
    miss up to its share of RULE_TOL.
    """
    m, d = lower.shape
    mass, error, evaluations = np.zeros(m), np.zeros(m), 0
    owner = _rule_boxes(lower, upper)
    if owner.size == 0:
        return mass, error, evaluations
    tol = RULE_TOL / float(np.prod(upper - lower, axis=1).sum())
    lower, upper = lower[owner], upper[owner]
    _, w4, w5 = _gl45(d)
    n4 = w4.size
    halves = _mesh([[False, True]] * d)
    for last in [False] * (RULE_ROUNDS - 1) + [True]:
        if owner.size == 0:
            break
        vol = np.prod(upper - lower, axis=1)
        dens = post.density(points).reshape(owner.size, -1)
        evaluations += dens.size
        g4, g5 = vol * (dens[:, :n4] @ w4), vol * (dens[:, n4:] @ w5)
        err = np.abs(g5 - g4)
        done = (err <= tol * vol) & ((err <= 0.5 * g5)
                                     | (dens.max(axis=1) <= tol)) | last
        mass += np.bincount(owner[done], g5[done], m)
        error += np.bincount(owner[done], err[done], m)
        # Children of every open box, in order: each takes the lower or the
        # upper half along every axis.
        lo, hi = lower[~done, None], upper[~done, None]
        mid = 0.5 * (lo + hi)
        lower = np.where(halves, mid, lo).reshape(-1, d)
        upper = np.where(halves, hi, mid).reshape(-1, d)
        owner = np.repeat(owner[~done], halves.shape[0])
        points = _rule_nodes(lower, upper)
    return mass, error, evaluations


def _cell_points(cells: Cells, integrated: np.ndarray, n: int,
                 rng: RngStream) -> np.ndarray:
    """(len(integrated), n, d) points, cell idx's uniform in its box: the
    `random` block of stream ("cell",) advanced by idx * 2^64, mapped into
    the box as `uniform(lower, upper, (n, d))` maps it.  A cell's points
    depend on the stream and its index alone, not on the other cells."""
    pts = np.empty((integrated.size, n, cells.lower.shape[1]))
    gen = rng.child("cell").generator()
    bits = gen.bit_generator
    start = bits.state
    for k, idx in enumerate(integrated.tolist()):
        bits.state = start
        bits.advance(idx << 64)
        gen.random(out=pts[k])
    return _into_boxes(pts, cells.lower[integrated], cells.upper[integrated],
                       pts)


def _feasible_boxes(prior: Box, cells: Cells) -> tuple:
    """(lower, upper) of the feasible cells clipped to the box `prior`."""
    feasible = cells.label == FEASIBLE
    lo = np.maximum(cells.lower[feasible], prior.lower)
    return lo, np.maximum(np.minimum(cells.upper[feasible], prior.upper), lo)


def pwa_draws(prior: Box, cells: Cells, per_cell_samples: int,
              rng: RngStream) -> tuple:
    """The rows `pwa_confidence` scores first: the rule's first-round nodes
    in the feasible cells clipped to the prior box `prior`, and the unknown
    cells' uniform points, cell by cell."""
    if per_cell_samples < 1:
        raise ValueError("per_cell_samples must be positive")
    lo, hi = _feasible_boxes(prior, cells)
    integrated = _rule_boxes(lo, hi)
    pts = _cell_points(cells, np.flatnonzero(cells.label == UNKNOWN),
                       int(per_cell_samples), rng)
    return (_rule_nodes(lo[integrated], hi[integrated]),
            pts.reshape(-1, cells.lower.shape[1]))


def pwa_confidence(post: PosteriorDensity, cells: Cells, draws: tuple,
                   epsilon: Optional[float] = None) -> ConfidenceEstimate:
    """Posterior mass of the feasible-labeled cells, bracketed by the mass
    of the unknown ones.

    Each feasible cell, clipped to the prior box `post.prior`, is
    integrated by adaptive tensor Gauss-Legendre 4/5 (`_rule_masses`):
    `value` is the sum of the rule masses and `std_error` the sum of their
    error estimates |GL5 - GL4|, not a sampling standard error, and an
    estimate rather than a bound (a far-tail box accepted as negligible may
    miss up to its share of RULE_TOL).  `draws` is `pwa_draws(post.prior,
    cells, per_cell_samples, rng)`: the rule's first-round nodes, and the
    uniform points of each unknown cell, from its own block of the stream
    (`_cell_points`), so its mass does not depend on the other cells'
    labels.  Unknown cells do not enter the point estimate; their masses
    widen the attached interval [value, value + unknown mass].  `samples`
    counts the densities evaluated, rule nodes and draws.  `per_cell` has
    one entry per cell that carries mass, the feasible and unknown ones in
    partition order; infeasible cells have mass 0 and are left out.
    """
    first, pts = draws
    feasible, unknown = cells.label == FEASIBLE, cells.label == UNKNOWN
    drawn = np.flatnonzero(unknown)
    mass, se = np.zeros(len(cells)), np.zeros(len(cells))
    mass[feasible], se[feasible], evaluations = _rule_masses(
        post, *_feasible_boxes(post.prior, cells), first)
    if drawn.size:
        # One density call for every unknown cell's points, split by cell.
        dens = post.density(pts).reshape(drawn.size, -1)
        n, vol = dens.shape[1], cells.volume[drawn]
        mass[drawn] = vol * dens.mean(axis=1)
        if n > 1:
            se[drawn] = np.sqrt(vol * vol * dens.var(ddof=1, axis=1) / n)
    value, error = _running_sum(mass[feasible]), _running_sum(se[feasible])
    unknown_mass = _running_sum(mass[unknown])
    kept = np.flatnonzero(feasible | unknown)
    per_cell = tuple(
        {"lower": lower, "upper": upper, "label": label, "mass": m,
         "std_error": e}
        for lower, upper, label, m, e in zip(
            cells.lower[kept].tolist(), cells.upper[kept].tolist(),
            cells.label[kept].tolist(), mass[kept].tolist(),
            se[kept].tolist()))
    var_est = error * error
    eps, prob = _chebyshev_fields(var_est, epsilon)
    return ConfidenceEstimate(
        value=float(min(max(value, 0.0), 1.0)),
        raw_value=value,
        method="pwa",
        samples=evaluations + len(pts),
        variance_estimate=var_est,
        std_error=error,
        chebyshev_epsilon=eps,
        chebyshev_probability=prob,
        interval=(float(min(max(value, 0.0), 1.0)),
                  float(min(max(value + unknown_mass, 0.0), 1.0))),
        per_cell=per_cell,
    )


def chebyshev_sample_size(epsilon: float, confidence_floor: float,
                          var_k: float, volume: float) -> int:
    """Smallest N with V^2 Var[K] / (eps^2 N) <= 1 - confidence_floor."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < confidence_floor < 1.0:
        raise ValueError("confidence_floor must lie in (0, 1)")
    if var_k <= 0.0:
        return 1
    n = volume * volume * var_k / (epsilon * epsilon * (1.0 - confidence_floor))
    return max(1, int(math.ceil(n - 1e-12)))
