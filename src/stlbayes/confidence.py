"""Monte Carlo and piecewise-affine estimates of the satisfaction confidence.

The confidence is the posterior mass of the parameter set whose models meet
the probabilistic requirement.  The Monte Carlo route samples the search
region uniformly and averages satisfaction * posterior density; Chebyshev's
inequality turns the sample variance into a coverage statement.  The PWA
route integrates the posterior over cells certified feasible, reporting the
mass of undecided cells as a bracket instead of a point value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import PosteriorDensity
from .feasibility import FEASIBLE, Region, UNKNOWN
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


def _evaluate_sat(sat, thetas: np.ndarray) -> np.ndarray:
    if hasattr(sat, "satisfaction_batch"):
        return np.asarray(sat.satisfaction_batch(thetas), dtype=float)
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


def mc_confidence(post: PosteriorDensity, sat, region: Region, n: int,
                  rng: RngStream, epsilon: Optional[float] = None
                  ) -> ConfidenceEstimate:
    """Uniform Monte Carlo estimate of the confidence over a region.

    Q = (V / N) sum_i sat(theta_i) * posterior(theta_i); the density is only
    evaluated where the satisfaction indicator fires, which never touches
    the sample stream, so results are reproducible bit for bit from the rng
    stream value regardless of how many densities get evaluated.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    d = region.lower.shape[0]
    gen = rng.generator()
    thetas = gen.uniform(region.lower, region.upper, (int(n), d))
    volume = region.volume
    sat_vals = _evaluate_sat(sat, thetas)
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


def pwa_confidence(post: PosteriorDensity, cells, per_cell_samples: int,
                   rng: RngStream, epsilon: Optional[float] = None
                   ) -> ConfidenceEstimate:
    """Posterior mass of feasible-labeled cells, by per-cell Monte Carlo.

    Unknown cells do not enter the point estimate; their mass widens the
    attached interval [value, value + unknown mass].  Every cell draws its
    points from its own named substream, so the estimate is independent of
    evaluation order; the densities of all cells come from one call.
    """
    if per_cell_samples < 1:
        raise ValueError("per_cell_samples must be positive")
    cells = list(cells)
    n = int(per_cell_samples)
    integrated = [idx for idx, cell in enumerate(cells)
                  if cell.label in (FEASIBLE, UNKNOWN)]
    dens = None
    if integrated:
        # One density call for every cell's points, split back by cell below.
        pts = np.empty((n * len(integrated), cells[integrated[0]].lower.size))
        for k, idx in enumerate(integrated):
            gen = rng.child("cell", idx).generator()
            pts[k * n:(k + 1) * n] = gen.uniform(
                cells[idx].lower, cells[idx].upper, (n, pts.shape[1]))
        dens = post.density(pts)
    value = 0.0
    var_est = 0.0
    unknown_mass = 0.0
    per_cell = [{"lower": cell.lower.tolist(), "upper": cell.upper.tolist(),
                 "label": cell.label, "mass": 0.0, "std_error": 0.0}
                for cell in cells]
    for k, idx in enumerate(integrated):
        cell, cell_dens = cells[idx], dens[k * n:(k + 1) * n]
        vol = cell.volume
        mass = vol * float(cell_dens.mean())
        cell_var = vol * vol * float(cell_dens.var(ddof=1)) / n if n > 1 else 0.0
        per_cell[idx]["mass"] = mass
        per_cell[idx]["std_error"] = math.sqrt(cell_var)
        if cell.label == FEASIBLE:
            value += mass
            var_est += cell_var
        else:
            unknown_mass += mass
    total = n * len(integrated)
    eps, prob = _chebyshev_fields(var_est, epsilon)
    return ConfidenceEstimate(
        value=float(min(max(value, 0.0), 1.0)),
        raw_value=value,
        method="pwa",
        samples=total,
        variance_estimate=var_est,
        std_error=math.sqrt(var_est),
        chebyshev_epsilon=eps,
        chebyshev_probability=prob,
        interval=(float(min(max(value, 0.0), 1.0)),
                  float(min(max(value + unknown_mass, 0.0), 1.0))),
        per_cell=tuple(per_cell),
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
