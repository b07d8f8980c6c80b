"""Monte Carlo and piecewise-affine estimates of the satisfaction confidence.

The confidence is the posterior mass of the parameter set whose models meet
the probabilistic requirement.  The Monte Carlo route samples the search
region uniformly and averages satisfaction * posterior density; Chebyshev's
inequality turns the sample variance into a coverage statement.  Given the
certified PWA cells, its satisfaction indicator reads each sample's cell
label and evaluates the leaves only for samples in unknown cells.  The PWA
route integrates the posterior over cells certified feasible, reporting the
mass of undecided cells as a bracket instead of a point value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import PosteriorDensity
from .feasibility import FEASIBLE, UNKNOWN, Box, Cells
from .rng import RngStream


@dataclass(frozen=True)
class ConfidenceEstimate:
    """Point estimate with sampling diagnostics.

    `value` is clamped to [0, 1] for reporting; `raw_value` keeps the
    unclamped estimator output.  `chebyshev_probability` is the Eq.-(16)-style
    lower bound 1 - Var/eps^2 for the reported epsilon.
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
        out = {
            "value": self.value,
            "raw_value": self.raw_value,
            "method": self.method,
            "samples": self.samples,
            "variance_estimate": self.variance_estimate,
            "std_error": self.std_error,
            "chebyshev_epsilon": self.chebyshev_epsilon,
            "chebyshev_probability": self.chebyshev_probability,
        }
        if self.interval is not None:
            out["interval"] = list(self.interval)
        if self.per_cell is not None:
            out["per_cell"] = [dict(c) for c in self.per_cell]
        return out


def _evaluate_sat(sat, thetas: np.ndarray,
                  cells: Optional[Cells]) -> np.ndarray:
    if hasattr(sat, "satisfaction_batch"):
        return np.asarray(sat.satisfaction_batch(thetas) if cells is None
                          else sat.satisfaction_batch(thetas, cells),
                          dtype=float)
    return np.array([float(sat(t)) for t in thetas])


def _chebyshev_fields(var_est: float, epsilon: Optional[float]):
    if epsilon is None:
        if var_est <= 0.0:
            return 0.0, 1.0
        eps = 3.0 * math.sqrt(var_est)
        return eps, 1.0 - 1.0 / 9.0
    if var_est <= 0.0:
        return float(epsilon), 1.0
    return float(epsilon), 1.0 - var_est / (epsilon * epsilon)


def mc_confidence(post: PosteriorDensity, sat, region: Box, n: int,
                  rng: RngStream, epsilon: Optional[float] = None,
                  cells: Optional[Cells] = None) -> ConfidenceEstimate:
    """Uniform Monte Carlo estimate of the confidence over a region.

    Q = (V / N) sum_i sat(theta_i) * posterior(theta_i); the density is only
    evaluated where the satisfaction indicator fires, which never touches
    the sample stream, so results are reproducible bit for bit from the rng
    stream value regardless of how many densities get evaluated.  `cells`,
    a partition labelled by `classify_cells`, is handed to
    `sat.satisfaction_batch`: samples in certified cells take the cell's
    label and only the others are checked leaf by leaf, with the same
    indicator either way.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    d = region.lower.shape[0]
    gen = rng.generator()
    thetas = gen.uniform(region.lower, region.upper, (int(n), d))
    volume = region.volume
    sat_vals = _evaluate_sat(sat, thetas, cells)
    k = np.zeros(n)
    mask = sat_vals > 0.0
    if mask.any():
        k[mask] = sat_vals[mask] * post.density(thetas[mask])
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


def pwa_confidence(post: PosteriorDensity, cells: Cells,
                   per_cell_samples: int, rng: RngStream,
                   epsilon: Optional[float] = None) -> ConfidenceEstimate:
    """Posterior mass of feasible-labeled cells, by per-cell Monte Carlo.

    Unknown cells do not enter the point estimate; their mass widens the
    attached interval [value, value + unknown mass].  Every cell draws its
    points from its own named substream, so the estimate is independent of
    evaluation order; the densities of all cells come from one call.
    """
    if per_cell_samples < 1:
        raise ValueError("per_cell_samples must be positive")
    n, d = int(per_cell_samples), cells.lower.shape[1]
    feasible, unknown = cells.label == FEASIBLE, cells.label == UNKNOWN
    integrated = np.flatnonzero(feasible | unknown)
    mass, var = np.zeros(len(cells)), np.zeros(len(cells))
    if integrated.size:
        pts = np.empty((integrated.size, n, d))
        for k, idx in enumerate(integrated.tolist()):
            pts[k] = rng.child("cell", idx).generator().uniform(
                cells.lower[idx], cells.upper[idx], (n, d))
        # One density call for every cell's points, split back by cell.
        dens = post.density(pts.reshape(-1, d)).reshape(-1, n)
        vol = cells.volume[integrated]
        mass[integrated] = vol * dens.mean(axis=1)
        if n > 1:
            var[integrated] = vol * vol * dens.var(ddof=1, axis=1) / n
    value, var_est = _running_sum(mass[feasible]), _running_sum(var[feasible])
    unknown_mass = _running_sum(mass[unknown])
    per_cell = tuple(
        {"lower": lower, "upper": upper, "label": label, "mass": m,
         "std_error": se}
        for lower, upper, label, m, se in zip(
            cells.lower.tolist(), cells.upper.tolist(), cells.label.tolist(),
            mass.tolist(), np.sqrt(var).tolist()))
    eps, prob = _chebyshev_fields(var_est, epsilon)
    return ConfidenceEstimate(
        value=float(min(max(value, 0.0), 1.0)),
        raw_value=value,
        method="pwa",
        samples=n * integrated.size,
        variance_estimate=var_est,
        std_error=math.sqrt(var_est),
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
