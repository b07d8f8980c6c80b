"""Exact Gaussian likelihood of correlated noisy measurements and the
Bayesian posterior over the output-map parameter.

Process noise makes successive measurements dependent, so the likelihood of a
dataset is a single multivariate Gaussian over the stacked outputs.  Its mean
stacks the noise-free responses ybar(0 .. N-1) and its covariance is
M Sigma_W M^T + Sigma_E with M the block lower-triangular impulse map from
stacked process noise to stacked outputs (first block row zero).
`log_likelihood` factors that dense covariance and is the reference; the
posterior evaluates the same density at many parameters with a Kalman
filter (`_BatchLikelihood`), in O(N) instead of O(N^3) per parameter.  The
filter has one loop for every output dimension: in the eigenbasis of
Sigma_e the measurement noises are independent, so each output is one
scalar update.

The prior is uniform over a box of parameters, a `Box` of positive volume.
All likelihood arithmetic stays in log space; the posterior normalizer is a
plain uniform Monte Carlo estimate over the prior box whose standard error
and relative error are reported alongside the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lti import Box, DataSet, ParametricLti, mean_trajectory
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

    The prediction-error decomposition sums log N(v; 0, s) over the scalar
    innovations of the record; x(0) = x0 is known, so P(0|-1) = 0 as in the
    first block row of `build_M`.  The outputs are first rotated into the
    eigenbasis of Sigma_e = U diag(D) U', where their noises are independent
    with variances D, so each step takes one scalar measurement update per
    rotated output and then one time update (the univariate treatment of
    Koopman and Durbin, exact for any p).  U is orthogonal, so the density
    is unchanged; for p == 1, U = [[1]] and the rotation changes no bit.
    All parameters of a call share one pass over the record, the batch on
    the last axis: states (n, B), covariances (n*n, B).  The covariance
    predict is one product with kron(A, A), so time is O(N n^4) per
    parameter; every step writes into work arrays allocated once per call,
    so memory does not grow with N.
    """

    def __init__(self, model: ParametricLti, data: DataSet):
        self.model, self.x0 = model, data.x0
        self.drive = data.inputs @ model.B.T
        # Row-major vec(A P A') = kron(A, A) vec(P).
        self.AA = np.kron(model.A, model.A)
        self.Q = (model.G @ model.Sigma_w @ model.G.T).reshape(-1, 1)
        self.noise_var, U = np.linalg.eigh(model.Sigma_e)
        self.y = data.outputs @ U
        self.c0 = U.T @ model.C0
        self.c_basis = U.T @ np.reshape(model.C_basis,
                                        (model.d, model.p, model.n))

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        """Sum log s + v^2 / s over every scalar innovation, for each row.

        The sums run over the same index in the same order as per-step
        einsums would, so a scalar-output result is the same to the bit.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        C = self.c0[:, :, None] + np.einsum("dpn,bd->pnb", self.c_basis,
                                            thetas)
        # A non-finite C(theta) makes s NaN at step 0; raise before the
        # products below would warn about inf * 0.
        if not np.isfinite(C).all():
            raise ValueError("innovation variance is not positive inside a "
                             "likelihood batch at step 0")
        p, n, nb = C.shape
        A, AA, Q, y = self.model.A, self.AA, self.Q, self.y
        x = np.repeat(self.x0[:, None], nb, axis=1)
        P, total = np.zeros((n * n, nb)), np.zeros(nb)
        cp, gain = np.empty((n, nb)), np.empty((n, nb))
        prod = np.empty((n, n, nb))
        s, v, w, u = np.empty(nb), np.empty(nb), np.empty(nb), np.empty(nb)
        x2, P2 = np.empty_like(x), np.empty_like(P)
        for t in range(y.shape[0]):
            for k, c in enumerate(C):
                # cp_j = sum_i c_i P_ij, s = sum_j cp_j c_j + D_k,
                # v = y_k - sum_i c_i x_i.
                np.multiply(c[:, None], P.reshape(n, n, nb), out=prod)
                np.add.reduce(prod, axis=0, out=cp)
                np.multiply(cp, c, out=gain)
                np.add.reduce(gain, axis=0, out=s)
                s += self.noise_var[k]
                np.multiply(c, x, out=gain)
                np.add.reduce(gain, axis=0, out=w)
                np.subtract(y[t, k], w, out=v)
                # NaN fails the comparison; `initial` lets an empty batch pass.
                if not s.min(initial=np.inf) > 0.0:
                    raise ValueError("innovation variance is not positive "
                                     f"inside a likelihood batch at step {t}")
                np.log(s, out=w)
                np.multiply(v, v, out=u)
                u /= s
                w += u
                total += w
                # x += gain v and P -= gain (x) cp, with gain = cp / s.
                np.divide(cp, s, out=gain)
                np.multiply(gain, v, out=prod[0])
                x += prod[0]
                np.multiply(gain[:, None], cp, out=prod)
                P -= prod.reshape(n * n, nb)
            if t + 1 < y.shape[0]:
                np.matmul(A, x, out=x2)
                x2 += self.drive[t][:, None]
                np.matmul(AA, P, out=P2)
                P2 += Q
                x, x2, P, P2 = x2, x, P2, P
        return -0.5 * (total + y.size * _LOG_2PI)


def _log_prior(prior: Box, thetas) -> np.ndarray:
    """Uniform log density on the box `prior`, one value per row of `thetas`:
    -log(volume) inside (boundary included), -inf outside."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    inside = np.all((thetas >= prior.lower) & (thetas <= prior.upper), axis=1)
    out = np.full(thetas.shape[0], -np.inf)
    out[inside] = -np.log(prior.volume)
    return out


@dataclass
class PosteriorDensity:
    """Unnormalized log posterior plus a Monte Carlo normalizer estimate.

    `z_rel_error` = `z_std_error` / `z` stays finite when `z` underflows.
    """

    prior: Box
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


def posterior(data: Optional[DataSet], model: ParametricLti, prior: Box,
              mc_samples: int, rng: RngStream) -> PosteriorDensity:
    """Posterior over theta given a dataset (or the prior itself if none),
    under the uniform prior over the box `prior`.

    The normalizer Z = integral of likelihood * prior is estimated by
    uniform Monte Carlo over the prior support with the importance weight
    prior density * support volume; the estimate and its standard error are
    attached to the returned density.  With concentrated likelihoods the
    plain uniform estimate needs many samples; check `z_std_error`.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    if not prior.volume > 0.0:
        raise ValueError("prior support must have positive volume")

    if data is None or getattr(data, "n_exp", 0) == 0:
        # Likelihood identically one: Z = integral of the prior = 1 exactly.
        return PosteriorDensity(
            prior=prior, log_unnormalized=lambda t: _log_prior(prior, t),
            log_z=0.0, z=1.0, z_std_error=0.0, z_rel_error=0.0, mc_samples=0)

    batch = _BatchLikelihood(model, data)

    def log_un(thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        out = _log_prior(prior, thetas)
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
