"""Exact Gaussian likelihood of correlated noisy measurements and the
Bayesian posterior over the output-map parameter.

Process noise makes successive measurements dependent, so the likelihood of a
dataset is a single multivariate Gaussian over the stacked outputs.  Its mean
stacks the noise-free responses ybar(0 .. N-1) and its covariance is
M Sigma_W M^T + Sigma_E with M the block lower-triangular impulse map from
stacked process noise to stacked outputs (first block row zero).  The
posterior evaluates that density at many parameters with a Kalman filter
(`_BatchLikelihood`), in O(N) instead of the O(N^3) of factoring the dense
covariance, which the tests keep as its reference.  The
filter has one loop for every output dimension: in the eigenbasis of
Sigma_e the measurement noises are independent, so each output is one
scalar update.

The prior is uniform over a box of parameters, a `Box` of positive volume.
All likelihood arithmetic stays in log space; the posterior normalizer is a
plain uniform Monte Carlo estimate over the prior box whose standard error
and relative error are reported alongside the value.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np

from .lti import Box, DataSet, ParametricLti
from .record import Record
from .rng import RngStream

_LOG_2PI = float(np.log(2.0 * np.pi))
# Most parameters per likelihood batch; a call on more rows is split into
# near-equal chunks.
_LIKELIHOOD_CHUNK = 8192


class _BatchLikelihood:
    """Log likelihood of records at many parameters, by a Kalman filter.

    The prediction-error decomposition sums log N(v; 0, s) over the scalar
    innovations of the record; x(0) = x0 is known, so P(0|-1) = 0: y(0)
    precedes any process noise.  The outputs are first rotated into the
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

    `data` is one record, or a sequence of K records of one length whose
    log likelihoods come out on a first axis of K.  The innovation
    variances, gains and covariances do not depend on the record, so each
    step computes them once for all K, and only the innovations, states
    (K, n, B) and totals carry the record axis; each record's values are
    the bits of a call on that record alone.
    """

    def __init__(self, model: ParametricLti, data):
        records = [data] if isinstance(data, DataSet) else data
        self.shape = () if isinstance(data, DataSet) else (len(records),)
        # The record axis leads the data arrays, and one record has none:
        # it keeps the shapes and the ops of a filter without that axis.
        self.lead = (len(records),) if len(records) > 1 else ()
        self.model = model
        # Row-major vec(A P A') = kron(A, A) vec(P).
        self.AA = np.kron(model.A, model.A)
        self.Q = (model.G @ model.Sigma_w @ model.G.T).reshape(-1, 1)
        self.noise_var, U = np.linalg.eigh(model.Sigma_e)
        # x0 (K, n, 1), drive (N, K, n, 1) and y (N, p, K, 1), so that x0,
        # drive[t] and y[t, k] broadcast over the rows.
        self.x0 = np.stack([r.x0 for r in records]).reshape(
            self.lead + (model.n, 1))
        self.drive = np.stack([r.inputs @ model.B.T for r in records],
                              axis=1).reshape((-1,) + self.lead + (model.n, 1))
        self.y = np.stack([r.outputs @ U for r in records], axis=-1).reshape(
            (-1, model.p) + self.lead + (1,))
        self.c0 = U.T @ model.C0
        self.c_basis = U.T @ np.reshape(model.C_basis,
                                        (model.d, model.p, model.n))

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        """Sum log s + v^2 / s over every scalar innovation, for each row.

        The sums run over the same index in the same order as per-step
        einsums would, so a scalar-output result is the same to the bit.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        # One row would take numpy's matrix-vector products, which can round
        # differently from the same row in a batch: score it as a pair.
        single = thetas.shape[0] == 1
        if single:
            thetas = np.repeat(thetas, 2, axis=0)
        C = self.c0[:, :, None] + np.einsum("dpn,bd->pnb", self.c_basis,
                                            thetas)
        # A non-finite C(theta) makes s NaN at step 0; raise before the
        # products below would warn about inf * 0.
        if not np.isfinite(C).all():
            raise ValueError("innovation variance is not positive inside a "
                             "likelihood batch at step 0")
        p, n, nb = C.shape
        A, AA, y, D = self.model.A, self.AA, self.y, self.noise_var
        lead, last = self.lead, y.shape[0] - 1
        K = lead[0] if lead else 1
        # A full-width Q: numpy buffers a broadcast operand, which at up to
        # 4096 rows costs each step's add more than this copy.
        Q = np.repeat(self.Q, nb, axis=1)
        # P(0|-1) = 0, so step 0 has s = D and changes neither x nor P, and
        # P(1|0) = Q.
        x, P = np.repeat(self.x0, nb, axis=-1), Q.copy()
        vec = lead + (nb,)
        total = np.zeros(vec)
        cp, gain = np.empty((n, nb)), np.empty((n, nb))
        # Work space for (n, n, B) products and for (K, n, B) ones.
        prod = np.empty((max(n, K), n, nb))
        prod_p, prod_x = prod[:n], prod[:K].reshape(x.shape)
        s = np.empty(nb)
        v, w, u = np.empty(vec), np.empty(vec), np.empty(vec)
        log_s = w.reshape(-1)[:nb]  # w's first row, free once v is made
        v_col = v[..., None, :]
        x2, P2 = np.empty_like(x), np.empty_like(P)
        for t in range(last + 1):
            for k, c in enumerate(C):
                # cp_j = sum_i c_i P_ij, s = sum_j cp_j c_j + D_k,
                # v = y_k - sum_i c_i x_i.
                if t:
                    np.multiply(c[:, None], P.reshape(n, n, nb), out=prod_p)
                    np.add.reduce(prod_p, axis=0, out=cp)
                    np.multiply(cp, c, out=gain)
                    np.add.reduce(gain, axis=0, out=s)
                    s += D[k]
                else:
                    s.fill(D[k])
                np.multiply(c, x, out=prod_x)
                np.add.reduce(prod_x, axis=-2, out=w)
                np.subtract(y[t, k], w, out=v)
                # NaN fails the comparison; `initial` lets an empty batch pass.
                if not s.min(initial=np.inf) > 0.0:
                    raise ValueError("innovation variance is not positive "
                                     f"inside a likelihood batch at step {t}")
                np.log(s, out=log_s)
                np.multiply(v, v, out=u)
                u /= s
                u += log_s
                total += u
                if t == 0 or t == last and k == p - 1:
                    continue  # a zero gain, or no innovation left
                # x += gain v and P -= gain (x) cp, with gain = cp / s.
                np.divide(cp, s, out=gain)
                np.multiply(gain, v_col, out=prod_x)
                x += prod_x
                np.multiply(gain[:, None], cp, out=prod_p)
                P -= prod_p.reshape(n * n, nb)
            if t < last:
                np.matmul(A, x, out=x2)
                x2 += self.drive[t]
                x, x2 = x2, x
                if t:
                    np.matmul(AA, P, out=P2)
                    P2 += Q
                    P, P2 = P2, P
        out = -0.5 * (total + y.shape[0] * p * _LOG_2PI)
        if single:
            out = out[..., :1]
        return out.reshape(self.shape + out.shape[-1:])


def _in_prior(prior: Box, thetas: np.ndarray) -> np.ndarray:
    """Per row of `thetas` (N, d): inside the box `prior`, boundary included
    and a NaN coordinate outside, tested one axis at a time."""
    inside = np.ones(thetas.shape[0], dtype=bool)
    # Contiguous columns: numpy compares a strided one several times slower.
    for x, lo, hi in zip(thetas.T.copy(), prior.lower, prior.upper):
        inside &= x >= lo
        inside &= x <= hi
    return inside


class PosteriorDensity(Record):
    """Unnormalized log posterior plus a Monte Carlo normalizer estimate.

    `z_rel_error` = `z_std_error` / `z` stays finite when `z` underflows.
    `prefetched` holds (rows, log_unnormalized(rows)) for arrays scored in
    the normalizer's pass; `log_density` of one of those very arrays reads
    its values from there.
    """

    prior: Box
    log_unnormalized: Callable
    log_z: float
    z: float
    z_std_error: float
    z_rel_error: float
    mc_samples: int
    prefetched: tuple = ()

    def log_density(self, thetas) -> np.ndarray:
        for rows, logs in self.prefetched:
            if thetas is rows:
                return logs - self.log_z
        return self.log_unnormalized(thetas) - self.log_z

    def __repr__(self) -> str:
        # `prefetched` holds whole arrays of rows and their scores.
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields if name != "prefetched")
        return f"PosteriorDensity({fields})"

    def density(self, thetas) -> np.ndarray:
        return np.exp(self.log_density(thetas))


def _log_unnormalized(prior: Box, batch: Optional[_BatchLikelihood],
                      thetas) -> np.ndarray:
    """Log prior plus, given `batch`, its records' log likelihoods at the
    rows of `thetas`: (m,), or (K, m) for a batch of K records."""
    # Contiguous, as the gathered rows are, so a slice gives the same bits.
    thetas = np.atleast_2d(np.ascontiguousarray(thetas, dtype=float))
    inside = _in_prior(prior, thetas)
    shape = () if batch is None else batch.shape
    out = np.where(inside, np.full(shape + (1,), -np.log(prior.volume)),
                   -np.inf)
    m = int(np.count_nonzero(inside))
    if batch is None or m == 0:
        return out
    # Near-equal chunks of at most _LIKELIHOOD_CHUNK rows keep the
    # filter's working memory flat in the batch size, and leave no call a
    # small tail.
    chunks = -(-m // _LIKELIHOOD_CHUNK)
    if m == inside.size:
        # Every row inside the prior: score the chunks in place.
        for rows, part in zip(np.array_split(thetas, chunks),
                              np.array_split(out, chunks, axis=-1)):
            part += batch(rows)
    else:
        for rows in np.array_split(np.flatnonzero(inside), chunks):
            out[..., rows] += batch(thetas[rows])
    return out


def likelihood_pass(data, model: ParametricLti, prior: Box, mc_samples: int,
                    rng: RngStream, prefetch: tuple = ()) -> np.ndarray:
    """The log unnormalized posterior at the normalizer's samples, then at
    the rows of every array in `prefetch`: (m,) for one record `data`, or
    (K, m) for a sequence of K records of one length.

    This is the only place that builds a pass's rows and scores them; every
    posterior with data reads its normalizer from one.  The samples are
    `mc_samples` uniform draws of `rng` over the box `prior`.  All records
    share one filter pass, whose work that does not depend on the record
    runs once (see `_BatchLikelihood`); record k's row has the bits of a
    pass on it alone, and is the `scores` that
    `posterior(data[k], model, prior, mc_samples, rng, prefetch)` takes.
    """
    return _log_unnormalized(prior, _BatchLikelihood(model, data), np.vstack(
        [prior.uniform(rng.generator(), mc_samples), *prefetch]))


def posterior(data: Optional[DataSet], model: ParametricLti, prior: Box,
              mc_samples: int, rng: RngStream, prefetch: tuple = (),
              scores: Optional[np.ndarray] = None) -> PosteriorDensity:
    """Posterior over theta given a dataset (or the prior itself if none),
    under the uniform prior over the box `prior`.

    The normalizer Z = integral of likelihood * prior is estimated by
    uniform Monte Carlo over the prior support with the importance weight
    prior density * support volume; the estimate and its standard error are
    attached to the returned density.  With concentrated likelihoods the
    plain uniform estimate needs many samples; check `z_std_error`.

    Given data, the likelihood runs once over the normalizer's samples and
    the rows of every (m, d) array in `prefetch`, which the returned
    density then reads (see `PosteriorDensity`): `scores` is the record's
    row of a `likelihood_pass` with the same arguments, and without it
    `posterior` runs that pass on `data` itself.  On some models a row's
    log likelihood can change in its last bit with the batch it is in, so
    the rows should depend only on the caller's config and seed.  When
    every row lies inside the prior, the chunks are slices of the rows and
    of the result, so nothing is gathered or scattered.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    if not prior.volume > 0.0:
        raise ValueError("prior support must have positive volume")

    batch = None if data is None else _BatchLikelihood(model, data)
    log_un = functools.partial(_log_unnormalized, prior, batch)
    if data is None:
        # Likelihood identically one: Z = integral of the prior = 1 exactly.
        return PosteriorDensity(
            prior=prior, log_unnormalized=log_un, log_z=0.0, z=1.0,
            z_std_error=0.0, z_rel_error=0.0, mc_samples=0)
    if scores is None:
        scores = likelihood_pass(data, model, prior, mc_samples, rng, prefetch)
    logs, *scored = np.split(
        scores,
        np.cumsum([mc_samples] + [len(rows) for rows in prefetch[:-1]]))
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
                            z_rel_error=z_rel, mc_samples=int(mc_samples),
                            prefetched=tuple(zip(prefetch, scored)))
