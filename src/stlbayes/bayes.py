"""Exact Gaussian likelihood of correlated noisy measurements and the
Bayesian posterior over the output-map parameter.

Process noise makes successive measurements dependent, so the likelihood of a
dataset is a single multivariate Gaussian over the stacked outputs.  Its mean
stacks the noise-free responses ybar(0 .. N-1) and its covariance is
M Sigma_W M^T + Sigma_E with M the block lower-triangular impulse map from
stacked process noise to stacked outputs (first block row zero).
`log_likelihood` factors that dense covariance and is the reference; the
posterior evaluates the same density at many parameters with a Kalman
filter (`_BatchLikelihood`), in O(N) instead of O(N^3) per parameter.

All likelihood arithmetic stays in log space; the posterior normalizer is a
plain uniform Monte Carlo estimate over the prior support whose standard
error and relative error are reported alongside the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .feasibility import Box
from .lti import DataSet, ParametricLti, mean_trajectory
from .rng import RngStream

_LOG_2PI = float(np.log(2.0 * np.pi))
# Most parameters per likelihood batch; the bundled configs' normalizers
# (at most 8192 samples) stay one batch.
_LIKELIHOOD_CHUNK = 8192


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


@dataclass(frozen=True)
class GaussianJoint:
    """Mean and covariance of the stacked noisy outputs for one parameter."""

    mean: np.ndarray
    cov: np.ndarray
    singular: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).reshape(-1))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))


def joint_distribution(model: ParametricLti, theta, x0, inputs) -> GaussianJoint:
    """Joint Gaussian of y(0 .. N-1) under process and measurement noise."""
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


class _BatchLikelihood:
    """Log likelihood of one record at many parameters, by a Kalman filter.

    The prediction-error decomposition sums log N(v(t); 0, S(t)) over the
    innovations v(t) = y(t) - C x(t|t-1), S(t) = C P(t|t-1) C' + Sigma_e;
    x(0) = x0 is known, so P(0|-1) = 0 as in the first block row of `build_M`.
    All parameters of a call share one pass over the record, the batch on
    the last axis: states (n, B), covariances (n*n, B), innovations (p, B).
    Time is O(N n^3) per parameter and memory does not grow with N.
    """

    def __init__(self, model: ParametricLti, data: DataSet):
        self.model, self.y, self.x0 = model, data.outputs, data.x0
        self.drive = data.inputs @ model.B.T
        # Row-major vec(A P A') = kron(A, A) vec(P).
        self.AA = np.kron(model.A, model.A)
        self.Q = (model.G @ model.Sigma_w @ model.G.T).reshape(-1, 1)
        self.c_basis = np.reshape(model.C_basis, (model.d, model.p, model.n))

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        model = self.model
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        nb, n, p, n_exp = thetas.shape[0], model.n, model.p, self.y.shape[0]
        C = model.C0[:, :, None] + np.einsum("dpn,bd->pnb", self.c_basis,
                                             thetas)
        x = np.repeat(self.x0[:, None], nb, axis=1)
        P = np.zeros((n * n, nb))
        total = np.zeros(nb)
        for t in range(n_exp):
            CP = np.einsum("pib,ijb->pjb", C, P.reshape(n, n, nb))
            S = np.einsum("pjb,qjb->pqb", CP, C) + model.Sigma_e[:, :, None]
            v = self.y[t][:, None] - np.einsum("pnb,nb->pb", C, x)
            if p == 1:
                s = S[0, 0]
                if not np.all(s > 0.0):
                    raise ValueError("innovation variance is not positive "
                                     f"inside a likelihood batch at step {t}")
                total += np.log(s) + v[0] * v[0] / s
                gain = CP[0] / s
                x += gain * v[0]
                P -= (gain[:, None] * CP[0][None]).reshape(n * n, nb)
            else:
                try:
                    L = np.linalg.cholesky(np.moveaxis(S, 2, 0))
                except np.linalg.LinAlgError as exc:
                    raise ValueError("innovation covariance factorization "
                                     "failed inside a likelihood batch at "
                                     f"step {t}: {exc}") from exc
                # With W = L^-1 C P: gain * v = W' white, gain * C P = W' W.
                white = np.linalg.solve(L, v.T[:, :, None])[:, :, 0]
                W = np.linalg.solve(L, np.moveaxis(CP, 2, 0))
                total += (2.0 * np.log(np.diagonal(L, axis1=1, axis2=2))
                          + white * white).sum(axis=1)
                x += np.einsum("bpn,bp->nb", W, white)
                P -= np.einsum("bpi,bpj->ijb", W, W).reshape(n * n, nb)
            if t + 1 < n_exp:
                x = model.A @ x + self.drive[t][:, None]
                P = self.AA @ P + self.Q
        return -0.5 * (total + n_exp * p * _LOG_2PI)


@dataclass(frozen=True)
class PriorSpec:
    """Prior over the parameter box; uniform or tabulated density."""

    kind: str
    lower: np.ndarray
    upper: np.ndarray
    density_fn: Optional[Callable] = None

    def __post_init__(self):
        support = Box(self.lower, self.upper)
        if not support.volume > 0.0:
            raise ValueError("prior support must have positive volume")
        if self.kind not in ("uniform_box", "tabulated"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "tabulated" and self.density_fn is None:
            raise ValueError("tabulated priors need a density evaluator")
        object.__setattr__(self, "lower", support.lower)
        object.__setattr__(self, "upper", support.upper)

    @staticmethod
    def uniform_box(lower, upper) -> "PriorSpec":
        return PriorSpec("uniform_box", lower, upper)

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def log_density(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        inside = np.all((thetas >= self.lower) & (thetas <= self.upper), axis=1)
        out = np.full(thetas.shape[0], -np.inf)
        if self.kind == "uniform_box":
            out[inside] = -np.log(self.volume)
        else:
            vals = np.asarray(
                [float(self.density_fn(t)) for t in thetas[inside]])
            with np.errstate(divide="ignore"):
                out[inside] = np.log(np.clip(vals, 0.0, None))
        return out


@dataclass
class PosteriorDensity:
    """Unnormalized log posterior plus a Monte Carlo normalizer estimate.

    `z_rel_error` = `z_std_error` / `z` stays finite when `z` underflows.
    """

    prior: PriorSpec
    log_unnormalized: Callable
    log_z: float
    z: float
    z_std_error: float
    z_rel_error: float
    mc_samples: int

    def log_density(self, thetas) -> np.ndarray:
        return self.log_unnormalized(thetas) - self.log_z

    def density(self, thetas) -> np.ndarray:
        return np.exp(self.log_density(thetas))


def posterior(data: Optional[DataSet], model: ParametricLti, prior: PriorSpec,
              mc_samples: int, rng: RngStream) -> PosteriorDensity:
    """Posterior over theta given a dataset (or the prior itself if none).

    The normalizer Z = integral of likelihood * prior is estimated by
    uniform Monte Carlo over the prior support with the importance weight
    prior density * support volume; the estimate and its standard error are
    attached to the returned density.  With concentrated likelihoods the
    plain uniform estimate needs many samples; check `z_std_error`.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")

    if data is None or getattr(data, "n_exp", 0) == 0:
        # Likelihood identically one: Z = integral of the prior = 1 exactly.
        return PosteriorDensity(prior=prior, log_unnormalized=prior.log_density,
                                log_z=0.0, z=1.0, z_std_error=0.0,
                                z_rel_error=0.0, mc_samples=0)

    batch = _BatchLikelihood(model, data)

    def log_un(thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        out = prior.log_density(thetas)
        inside = np.flatnonzero(np.isfinite(out))
        # Chunks keep the filter's working memory flat in the batch size.
        for start in range(0, inside.size, _LIKELIHOOD_CHUNK):
            rows = inside[start:start + _LIKELIHOOD_CHUNK]
            out[rows] += batch(thetas[rows])
        return out

    gen = rng.generator()
    samples = gen.uniform(prior.lower, prior.upper,
                          (int(mc_samples), prior.lower.shape[0]))
    logs = log_un(samples)
    finite = np.isfinite(logs)
    if not finite.any():
        raise ValueError(
            "normalizer estimate underflowed: every sampled log density is "
            "-inf even in log space; enlarge mc_samples or shrink the prior "
            "support")
    lmax = float(logs[finite].max())
    w = np.exp(np.where(finite, logs - lmax, -np.inf))
    mean_w = float(w.mean())
    std_w = float(w.std(ddof=1)) if mc_samples > 1 else 0.0
    vol = prior.volume
    log_z = lmax + np.log(mean_w) + np.log(vol)
    z = float(np.exp(log_z))
    # From the weights scaled by exp(-lmax): finite even where z underflows.
    z_rel = float(std_w / (mean_w * np.sqrt(mc_samples)))
    return PosteriorDensity(prior=prior, log_unnormalized=log_un,
                            log_z=float(log_z), z=z, z_std_error=z * z_rel,
                            z_rel_error=z_rel, mc_samples=int(mc_samples))
