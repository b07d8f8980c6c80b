import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import stlbayes as sb
from stlbayes import cli
from stlbayes.bayes import _LOG_2PI, _BatchLikelihood, likelihood_pass
from stlbayes.rng import RngStream

from oracles import (
    build_M,
    gaussian_logpdf,
    joint_distribution,
    log_likelihood,
    simulate_states_batch,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def model():
    return sb.laguerre_model(0.4)


@pytest.fixture(scope="module")
def dataset(model):
    return sb.collect_data(model, [-0.5, 1.0],
                           sb.InputSampler("uniform", low=-2, high=2),
                           12, [0, 0], RngStream(100))


class TestBuildM:
    def test_single_measurement_is_zero(self, model):
        M = build_M(model, [1.0, 0.0], 1)
        assert M.shape == (1, 2)
        assert not M.any()

    def test_identity_dynamics_repeat_blocks(self):
        m = sb.ParametricLti(A=np.eye(2), B=[[1.0], [0.0]], G=np.eye(2),
                             C0=np.zeros((1, 2)),
                             C_basis=([[1.0, 0.0]], [[0.0, 1.0]]),
                             Sigma_w=np.eye(2), Sigma_e=[[1.0]],
                             input_box=sb.Box([-1], [1]))
        M = build_M(m, [2.0, 3.0], 3)
        cg = np.array([[2.0, 3.0]])
        for r in range(1, 3):
            for c in range(r):
                assert np.allclose(M[r:r + 1, 2 * c:2 * c + 2], cg)
        assert not M[0].any()
        assert not M[0:1, 2:].any()

    def test_strictly_lower_triangular(self, model):
        M = build_M(model, [0.3, -0.2], 5)
        assert M.shape == (5, 10)
        for r in range(5):
            assert not M[r, 2 * r:].any()


class TestJointDistribution:
    def test_zero_noise_limits(self, model):
        quiet = model.with_overrides(Sigma_w=np.zeros((2, 2)),
                                     Sigma_e=np.eye(1) * 1e-4)
        u = np.linspace(-1, 1, 6)[:, None]
        joint = joint_distribution(quiet, [0.5, 0.5], [0, 0], u)
        assert np.allclose(joint.cov, 1e-4 * np.eye(6))
        _, clean, _ = sb.simulate(quiet, [0.5, 0.5], [0, 0], u, RngStream(0))
        assert joint.mean == pytest.approx(clean[:6].ravel())

    def test_cov_dominates_measurement_noise(self, model, dataset):
        joint = joint_distribution(model, [1.0, -1.0], dataset.x0,
                                      dataset.inputs)
        eigs = np.linalg.eigvalsh(joint.cov)
        assert eigs.min() >= 0.5 - 1e-9
        assert np.allclose(joint.cov, joint.cov.T)

    def test_singular_flag(self, model):
        silent = model.with_overrides(Sigma_w=np.zeros((2, 2)),
                                      Sigma_e=np.zeros((1, 1)))
        joint = joint_distribution(silent, [1.0, 0.0], [0, 0],
                                      np.zeros((3, 1)))
        assert joint.singular

    def test_empirical_covariance(self, model):
        # Analytic stacked covariance vs 10^5 simulated replications.
        theta = np.array([-0.5, 1.0])
        n_exp = 10
        gen = np.random.default_rng(55)
        u = gen.uniform(-2, 2, size=(n_exp, 1))
        joint = joint_distribution(model, theta, [0, 0], u)
        reps = 10 ** 5
        states = simulate_states_batch(model, [0, 0], u, reps,
                                       RngStream(56).child("emp"))
        c = model.c_matrix(theta)
        ys = (states[:, :n_exp, :] @ c.T)[:, :, 0]
        ys = ys + RngStream(57).generator().standard_normal(ys.shape) * np.sqrt(0.5)
        emp = np.cov(ys.T)
        rel = (np.linalg.norm(emp - joint.cov, "fro")
               / np.linalg.norm(joint.cov, "fro"))
        assert rel < 0.10


class TestLogLikelihood:
    def test_maximal_at_zero_residual(self, model, dataset):
        joint = joint_distribution(model, [-0.5, 1.0], dataset.x0,
                                      dataset.inputs)
        peak = gaussian_logpdf(np.zeros(joint.mean.size), joint.cov)
        sign, logdet = np.linalg.slogdet(joint.cov)
        assert sign > 0
        k = joint.mean.size
        assert peak == pytest.approx(-0.5 * (logdet + k * np.log(2 * np.pi)))
        shifted = gaussian_logpdf(np.full(k, 0.3), joint.cov)
        assert shifted < peak

    def test_scalar_case(self):
        # 1-D, unit variance, residual 2 -> -(4 + log 2 pi) / 2
        val = gaussian_logpdf([2.0], [[1.0]])
        assert val == pytest.approx(-0.5 * (4.0 + np.log(2 * np.pi)))

    def test_consistency_prefers_truth(self, model):
        wins = 0
        for trial in range(100):
            data = sb.collect_data(model, [-0.5, 1.0],
                                   sb.InputSampler("uniform", low=-2, high=2),
                                   50, [0, 0], RngStream(200).child(trial))
            good = log_likelihood([-0.5, 1.0], data, model)
            bad = log_likelihood([2.0, -2.0], data, model)
            wins += int(good > bad)
        assert wins >= 95

    def test_permutation_invariance(self, model, dataset):
        joint = joint_distribution(model, [0.2, 0.4], dataset.x0,
                                      dataset.inputs)
        resid = dataset.outputs.ravel() - joint.mean
        base = gaussian_logpdf(resid, joint.cov)
        gen = np.random.default_rng(58)
        for _ in range(5):
            perm = gen.permutation(resid.size)
            permuted = gaussian_logpdf(resid[perm],
                                       joint.cov[np.ix_(perm, perm)])
            assert permuted == pytest.approx(base, abs=1e-9)

    def test_batch_matches_scalar(self, model, dataset):
        batch = _BatchLikelihood(model, dataset)
        gen = np.random.default_rng(59)
        thetas = gen.uniform(-2, 2, size=(20, 2))
        vec = batch(thetas)
        ref = np.array([log_likelihood(t, dataset, model) for t in thetas])
        assert vec == pytest.approx(ref, abs=1e-8)

    def test_factorization_failure_reports_theta(self, model):
        silent = model.with_overrides(Sigma_w=np.zeros((2, 2)),
                                      Sigma_e=np.zeros((1, 1)))
        data = sb.DataSet(inputs=np.zeros((3, 1)), outputs=np.zeros((3, 1)),
                          x0=[0, 0])
        with pytest.raises(ValueError, match="theta"):
            log_likelihood([1.0, 0.0], data, silent)


def _random_model(seed, n, p, q, d, rank_w=None, zero_c0=False):
    """Stable random model; Sigma_w has rank `rank_w` (full if None)."""
    gen = np.random.default_rng(seed)
    A = gen.standard_normal((n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    F = gen.standard_normal((q, q if rank_w is None else rank_w))
    E = gen.standard_normal((p, p))
    return sb.ParametricLti(
        A=A, B=gen.standard_normal((n, 1)), G=gen.standard_normal((n, q)),
        C0=np.zeros((p, n)) if zero_c0 else gen.standard_normal((p, n)),
        C_basis=tuple(gen.standard_normal((p, n)) for _ in range(d)),
        Sigma_w=F @ F.T, Sigma_e=E @ E.T + 0.1 * np.eye(p),
        input_box=sb.Box([-1], [1]))


def _record(model, seed, n_exp):
    gen = np.random.default_rng(seed)
    return sb.collect_data(model, gen.uniform(-1, 1, model.d),
                           sb.InputSampler("uniform", low=-1, high=1), n_exp,
                           gen.uniform(-1, 1, model.n), RngStream(seed))


def _assert_matches_oracle(model, data, thetas):
    vec = _BatchLikelihood(model, data)(thetas)
    ref = np.array([log_likelihood(t, data, model) for t in thetas])
    np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=0.0)


def _einsum_scalar_loglik(batch, thetas):
    """The scalar-output filter as per-step einsums: the bit-level reference.

    Same operations in the same order as `_BatchLikelihood` for p == 1, with
    a fresh array for every intermediate.
    """
    model = batch.model
    y, drive, x0 = batch.y[..., 0], batch.drive[..., 0], batch.x0[..., 0]
    nb, n, n_exp = thetas.shape[0], model.n, y.shape[0]
    C = model.C0[:, :, None] + np.einsum("dpn,bd->pnb", batch.c_basis,
                                         thetas)
    x = np.repeat(x0[:, None], nb, axis=1)
    P = np.zeros((n * n, nb))
    total = np.zeros(nb)
    for t in range(n_exp):
        CP = np.einsum("pib,ijb->pjb", C, P.reshape(n, n, nb))
        S = np.einsum("pjb,qjb->pqb", CP, C) + model.Sigma_e[:, :, None]
        s = S[0, 0]
        v = y[t][:, None] - np.einsum("pnb,nb->pb", C, x)
        total += np.log(s) + v[0] * v[0] / s
        gain = CP[0] / s
        x += gain * v[0]
        P -= (gain[:, None] * CP[0][None]).reshape(n * n, nb)
        if t + 1 < n_exp:
            x = model.A @ x + drive[t][:, None]
            P = batch.AA @ P + batch.Q
    return -0.5 * (total + n_exp * _LOG_2PI)


def _as_scored(thetas):
    """The rows the filter scores for `thetas`: a single row as a pair."""
    return np.repeat(thetas, 2, axis=0) if len(thetas) == 1 else thetas


_P1_SHAPES = {
    "singular_w_p1": dict(n=3, p=1, q=3, d=2, rank_w=2),
    "c0_p1": dict(n=3, p=1, q=2, d=1),
    "zero_c0": dict(n=2, p=1, q=2, d=2, zero_c0=True),
    "d0_p1": dict(n=3, p=1, q=1, d=0),
    "n5_d3": dict(n=5, p=1, q=2, d=3),
}


class TestBatchFilter:
    """The Kalman batch against the dense joint Gaussian oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", [
        dict(n=3, p=2, q=2, d=2),
        dict(n=3, p=2, q=3, d=2, rank_w=1),
        dict(n=3, p=1, q=3, d=2, rank_w=2),
        dict(n=3, p=1, q=2, d=1),
        dict(n=2, p=1, q=2, d=2, zero_c0=True),
        dict(n=3, p=2, q=2, d=0),
        dict(n=3, p=1, q=1, d=0),
    ], ids=["general_p2", "singular_w_p2", "singular_w_p1", "c0_p1",
            "zero_c0", "d0_p2", "d0_p1"])
    def test_random_models(self, shape, seed):
        model = _random_model(seed, **shape)
        data = _record(model, 100 + seed, 15)
        thetas = np.random.default_rng(200 + seed).uniform(
            -2, 2, (12, model.d))
        _assert_matches_oracle(model, data, thetas)

    @pytest.mark.parametrize("n_exp", [1, 2, 50])
    def test_laguerre(self, model, n_exp):
        data = sb.collect_data(model, [-0.5, 1.0],
                               sb.InputSampler("uniform", low=-2, high=2),
                               n_exp, [0, 0], RngStream(70))
        thetas = np.random.default_rng(71).uniform(-3, 3, (16, 2))
        _assert_matches_oracle(model, data, thetas)

    @pytest.mark.parametrize("general", [False, True], ids=["p1", "p2"])
    def test_zero_noise_raises_without_warning(self, model, general):
        if general:
            model = _random_model(3, n=3, p=2, q=2, d=2)
        silent = model.with_overrides(Sigma_w=np.zeros((model.q, model.q)),
                                      Sigma_e=np.zeros((model.p, model.p)))
        data = sb.DataSet(inputs=np.zeros((3, 1)),
                          outputs=np.ones((3, model.p)), x0=np.zeros(model.n))
        batch = _BatchLikelihood(silent, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="likelihood batch"):
                batch(np.ones((4, model.d)))

    @pytest.mark.parametrize("nb", [1, 7, 4096])
    @pytest.mark.parametrize("n_exp", [1, 2, 8, 50])
    def test_laguerre_bits_match_einsum_loop(self, model, n_exp, nb):
        data = sb.collect_data(model, [-0.5, 1.0],
                               sb.InputSampler("uniform", low=-2, high=2),
                               n_exp, [0, 0], RngStream(77))
        thetas = np.random.default_rng(78).uniform(-3, 3, (nb, 2))
        batch = _BatchLikelihood(model, data)
        assert np.array_equal(batch(thetas), _einsum_scalar_loglik(
            batch, _as_scored(thetas))[:nb])

    @pytest.mark.parametrize("nb", [1, 7, 4096])
    @pytest.mark.parametrize("shape", list(_P1_SHAPES.values()),
                             ids=list(_P1_SHAPES))
    def test_random_bits_match_einsum_loop(self, shape, nb):
        model = _random_model(4, **shape)
        data = _record(model, 104, 15)
        thetas = np.random.default_rng(204).uniform(-2, 2, (nb, model.d))
        batch = _BatchLikelihood(model, data)
        assert np.array_equal(batch(thetas), _einsum_scalar_loglik(
            batch, _as_scored(thetas))[:nb])

    @pytest.mark.parametrize("general", [False, True], ids=["p1", "p2"])
    def test_empty_batch(self, model, general):
        if general:
            model = _random_model(5, n=3, p=2, q=2, d=2)
        data = _record(model, 105, 6)
        out = _BatchLikelihood(model, data)(np.empty((0, model.d)))
        assert out.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [
        dict(p=1), dict(p=1, zero_c0=True), dict(p=2),
    ], ids=["c0", "zero_c0", "p2"])
    def test_non_finite_theta_raises_without_warning(self, bad, shape):
        model = _random_model(6, n=3, q=2, d=2, **shape)
        data = _record(model, 106, 6)
        thetas = np.random.default_rng(206).uniform(-2, 2, (5, 2))
        thetas[3, 1] = bad
        batch = _BatchLikelihood(model, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="batch at step 0"):
                batch(thetas)

    def test_peak_memory_independent_of_record_length(self, model):
        thetas = np.random.default_rng(72).uniform(-3, 3, (4096, 2))
        peaks = {}
        for n_exp in (50, 400):
            data = sb.collect_data(model, [-0.5, 1.0],
                                   sb.InputSampler("uniform", low=-2, high=2),
                                   n_exp, [0, 0], RngStream(73))
            batch = _BatchLikelihood(model, data)
            tracemalloc.start()
            try:
                batch(thetas)
                peaks[n_exp] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] <= 1.25 * peaks[50]

    def test_peak_memory_flat_in_batch_size(self, model):
        # The posterior runs the filter in chunks, so one call on many rows
        # holds little more than its inputs and outputs.
        prior = sb.Box([-2, -2], [2, 2])
        data = sb.collect_data(model, [0.3, 0.3],
                               sb.InputSampler("uniform", low=-2, high=2),
                               8, [0, 0], RngStream(74))
        post = sb.posterior(data, model, prior, 1024, RngStream(75))
        thetas = RngStream(76).generator().uniform(-2, 2, size=(131072, 2))
        tracemalloc.start()
        try:
            dens = post.density(thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        # Chunk boundaries do not change a value.
        parts = [post.density(t) for t in np.array_split(thetas, 48)]
        assert np.array_equal(dens, np.concatenate(parts))


class TestPosterior:
    def test_no_data_returns_prior(self, model):
        prior = sb.Box([-2, -2], [2, 2])
        post = sb.posterior(None, model, prior, 1000, RngStream(60))
        assert post.z == 1.0 and post.z_std_error == 0.0
        pts = np.array([[0.0, 0.0], [1.9, -1.9], [2.1, 0.0]])
        assert post.density(pts) == pytest.approx([1 / 16, 1 / 16, 0.0])

    def test_normalizes_to_one(self, model):
        prior = sb.Box([-2, -2], [2, 2])
        data = sb.collect_data(model, [0.3, 0.3],
                               sb.InputSampler("uniform", low=-2, high=2),
                               8, [0, 0], RngStream(61))
        post = sb.posterior(data, model, prior, 16384, RngStream(62))
        # Independent uniform integration of the normalized density.
        gen = RngStream(63).generator()
        pts = gen.uniform(-2, 2, size=(16384, 2))
        vals = post.density(pts)
        integral = 16.0 * vals.mean()
        se = 16.0 * vals.std(ddof=1) / np.sqrt(vals.size)
        z_rel = post.z_std_error / post.z
        assert post.z_rel_error == pytest.approx(z_rel, rel=1e-12)
        assert abs(integral - 1.0) <= 3.0 * (se + z_rel)

    def test_concentrates_near_truth(self, model):
        # Mode of the unnormalized posterior lands near theta_true, most seeds.
        prior = sb.Box([-10, -10], [10, 10])
        xs = np.linspace(-2.5, 2.5, 41)
        grid = np.array(np.meshgrid(xs, xs)).reshape(2, -1).T
        hits = 0
        runs = 20
        for trial in range(runs):
            data = sb.collect_data(model, [-0.5, 1.0],
                                   sb.InputSampler("uniform", low=-2, high=2),
                                   50, [0, 0], RngStream(300).child(trial))
            batch = _BatchLikelihood(model, data)
            mode = grid[int(np.argmax(batch(grid)))]
            hits += int(np.linalg.norm(mode - [-0.5, 1.0]) <= 0.5)
        assert hits >= int(0.9 * runs)

    def test_log_space_never_overflows(self, model):
        prior = sb.Box([-10, -10], [10, 10])
        data = sb.collect_data(model, [-0.5, 1.0],
                               sb.InputSampler("uniform", low=-2, high=2),
                               50, [0, 0], RngStream(64))
        post = sb.posterior(data, model, prior, 4096, RngStream(65))
        gen = RngStream(66).generator()
        pts = gen.uniform(-10, 10, size=(500, 2))
        vals = post.log_density(pts)
        assert np.isfinite(vals).any()
        assert not np.isnan(vals).any()
        assert np.isfinite(post.density(pts)).all()

    def test_all_underflow_raises(self, model, monkeypatch):
        monkeypatch.setattr(_BatchLikelihood, "__call__", lambda self, thetas:
                            np.full(np.atleast_2d(thetas).shape[0], -np.inf))
        prior = sb.Box([-1, -1], [1, 1])
        data = sb.collect_data(model, [0.0, 0.0],
                               sb.InputSampler("uniform", low=-1, high=1),
                               3, [0, 0], RngStream(67))
        with pytest.raises(ValueError, match="log space"):
            sb.posterior(data, model, prior, 1000, RngStream(68))

    @pytest.mark.parametrize("n_exp", [None, 3])
    def test_prior_without_volume_raises(self, model, n_exp):
        data = None if n_exp is None else sb.collect_data(
            model, [0.0, 0.0], sb.InputSampler("uniform", low=-1, high=1),
            n_exp, [0, 0], RngStream(70))
        with pytest.raises(ValueError, match="positive volume"):
            sb.posterior(data, model, sb.Box([-1, 1], [1, 1]), 100,
                         RngStream(71))

    def test_empty_dataset_equivalence(self, model):
        # n_exp = 0 handled through the None path; DataSet itself requires
        # at least one row, so the CLI passes None when no data is planned.
        prior = sb.Box([-1, -1], [1, 1])
        post = sb.posterior(None, model, prior, 1000, RngStream(69))
        assert post.mc_samples == 0

    def test_relative_error_survives_underflow(self, model):
        # At 450 records z = exp(log_z) underflows to 0 in linear space;
        # log_z and the relative error come from scaled weights and stay finite.
        prior = sb.Box([-10, -10], [10, 10])
        data = sb.collect_data(model, [-0.5, 1.0],
                               sb.InputSampler("uniform", low=-2, high=2),
                               450, [0, 0], RngStream(74))
        post = sb.posterior(data, model, prior, 64, RngStream(75))
        assert post.z == 0.0 and post.z_std_error == 0.0
        assert np.isfinite(post.log_z)
        assert np.isfinite(post.z_rel_error) and post.z_rel_error >= 0.0


def _laguerre_record(model, n_exp):
    return sb.collect_data(model, [-0.5, 1.0],
                           sb.InputSampler("uniform", low=-2, high=2),
                           n_exp, [0, 0], RngStream(80))


class TestSharedPass:
    """The normalizer's pass also scores the rows the estimators ask for."""

    @pytest.mark.parametrize("n_exp", [8, 50])
    def test_row_bits_do_not_depend_on_its_batch(self, model, n_exp):
        # The merged pass relies on this: a row keeps its bits in any batch,
        # whatever the others are; a single row is scored as a pair.
        batch = _BatchLikelihood(model, _laguerre_record(model, n_exp))
        thetas = np.random.default_rng(81).uniform(-10, 10, (700, 2))
        whole = batch(thetas)
        sizes = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 93]
        parts = np.split(thetas, np.cumsum(sizes)[:-1])
        assert np.array_equal(np.concatenate([batch(p) for p in parts]),
                              whole)
        picked = np.random.default_rng(82).permutation(len(thetas))[:333]
        assert np.array_equal(batch(thetas[picked]), whole[picked])
        pairs = thetas[:20].reshape(10, 2, 2)
        assert np.array_equal(np.concatenate([batch(p) for p in pairs]),
                              whole[:20])
        singles = np.concatenate([batch(t) for t in thetas[:429, None]])
        assert np.array_equal(singles, whole[:429])

    def test_prefetched_rows_read_the_pass(self, model, request):
        """One call scores the normalizer's samples and every row inside the
        prior, and the density reads them to the bit."""
        data = _laguerre_record(model, 50)
        prior = sb.Box([-10, -10], [10, 10])
        gen = np.random.default_rng(83)
        rows = (gen.uniform(-3, 3, (300, 2)), gen.uniform(-12, 12, (41, 2)),
                np.empty((0, 2)))
        plain = sb.posterior(data, model, prior, 4096, RngStream(84))
        expected = [plain.density(r) for r in rows]
        # Rows outside the prior box have density 0 and are not scored.
        inside = 300 + int(np.all(np.abs(rows[1]) <= 10, axis=1).sum())
        assert inside < 341
        calls = request.getfixturevalue("filter_calls")
        merged = sb.posterior(data, model, prior, 4096, RngStream(84),
                              prefetch=rows)
        assert calls == [4096 + inside]
        assert merged.log_z == plain.log_z
        assert merged.z_std_error == plain.z_std_error
        for r, dens in zip(rows, expected):
            assert np.array_equal(merged.density(r), dens)
        assert calls == [4096 + inside]
        # An equal array that is not one of the rows is evaluated anew.
        assert np.array_equal(merged.density(rows[0].copy()), expected[0])
        assert calls == [4096 + inside, 300]

    def test_passes_split_into_near_equal_chunks(self, model, filter_calls):
        data = _laguerre_record(model, 8)
        prior = sb.Box([-10, -10], [10, 10])
        extra = np.random.default_rng(85).uniform(-10, 10, (4000, 2))
        sb.posterior(data, model, prior, 8192, RngStream(86),
                     prefetch=(extra,))
        assert filter_calls == [6096, 6096]  # not 8192 and a 4000-row tail
        filter_calls.clear()
        sb.posterior(data, model, prior, 8192, RngStream(86))
        assert filter_calls == [8192]

    def test_empty_request_makes_no_call(self, model, request):
        data = _laguerre_record(model, 8)
        prior = sb.Box([-1, -1], [1, 1])
        post = sb.posterior(data, model, prior, 256, RngStream(87),
                            prefetch=(np.empty((0, 2)),))
        calls = request.getfixturevalue("filter_calls")
        empty = post.prefetched[0][0]
        assert post.density(empty).shape == (0,)
        assert post.density(np.empty((0, 2))).shape == (0,)
        # Every row outside the prior: no row to score, no chunk.
        assert np.array_equal(post.density(np.full((3, 2), 5.0)), np.zeros(3))
        assert calls == []

    def test_prior_mask_per_axis(self, model):
        prior = sb.Box([-1.0, 2.0], [0.5, 3.0])
        column = [np.nextafter(-1.0, -np.inf), -1.0, 0.0, 0.5,
                  np.nextafter(0.5, np.inf), np.nan, np.inf, -np.inf]
        other = [np.nextafter(2.0, -np.inf), 2.0, 2.5, 3.0,
                 np.nextafter(3.0, np.inf), np.nan, np.inf, -np.inf]
        thetas = sb.feasibility._mesh([column, other])
        old = np.full(len(thetas), -np.inf)
        old[np.all((thetas >= prior.lower) & (thetas <= prior.upper),
                   axis=1)] = -np.log(prior.volume)
        new = sb.posterior(None, model, prior, 1,
                           RngStream(0)).log_unnormalized(thetas)
        assert np.array_equal(new, old)
        assert np.isfinite(new).sum() == 3 * 3  # the boundary is inside

    def test_rows_inside_score_as_slices(self, model, filter_calls,
                                         monkeypatch):
        """A pass with every row inside the prior scores slices of the rows
        in place, in the chunks and to the bits of a pass that gathers."""
        post = sb.posterior(_laguerre_record(model, 8), model,
                            sb.Box([-10, -10], [10, 10]), 64, RngStream(88))
        filter_calls.clear()
        seen, spied = [], _BatchLikelihood.__call__  # the fixture's spy

        def spy(self, thetas):
            seen.append(thetas)
            return spied(self, thetas)

        monkeypatch.setattr(_BatchLikelihood, "__call__", spy)
        rows = np.random.default_rng(89).uniform(-10, 10, (9000, 2))
        inside = post.log_unnormalized(rows)
        mixed = np.insert(rows, 1234, [11.0, 0.0], axis=0)
        gathered = post.log_unnormalized(mixed)
        assert filter_calls == [4500] * 4
        assert all(np.shares_memory(t, rows) for t in seen[:2])
        assert not any(np.shares_memory(t, mixed) for t in seen[2:])
        assert gathered[1234] == -np.inf
        assert np.array_equal(np.delete(gathered, 1234), inside)


@pytest.mark.parametrize("config", ["safety_demo.json", "case_study.json"])
def test_posterior_runs_the_pass_of_its_record(config):
    """Without `scores`, `posterior` gives the bits of the posterior that
    reads its record's row of a one-record `likelihood_pass`."""
    problem = cli._problem(json.loads((CONFIG_DIR / config).read_text()))
    root, data = RngStream(problem.seed), problem.data
    record = sb.collect_data(problem.model, data.theta_true, data.sampler,
                             data.n_exp, problem.spec.x0, root.child("data"))
    # Inside the prior (the contour) and partly outside it.
    rows = (cli._contour_points(problem.region, 21),
            np.random.default_rng(93).uniform(-3, 3, (200, 2)))
    args = (problem.model, problem.prior, problem.posterior_samples,
            root.child("posterior"))
    alone = sb.posterior(record, *args, prefetch=rows)
    [scores] = likelihood_pass([record], *args, rows)
    shared = sb.posterior(record, *args, prefetch=rows, scores=scores)
    for name in alone._fields:
        if name not in ("log_unnormalized", "prefetched"):
            assert getattr(shared, name) == getattr(alone, name), name
    for (rows_a, logs_a), (rows_s, logs_s), r in zip(
            alone.prefetched, shared.prefetched, rows):
        assert rows_a is r and rows_s is r
        assert np.array_equal(logs_s, logs_a)
        assert np.array_equal(shared.log_density(r), alone.log_density(r))
    draws = problem.prior.uniform(np.random.default_rng(94), 500)
    assert np.array_equal(shared.log_unnormalized(draws),
                          alone.log_unnormalized(draws))


class TestRecordAxis:
    """A batch of K records of one length: the work that does not depend on
    the record runs once, and each record keeps the bits of a batch on it
    alone."""

    @pytest.mark.parametrize("nb", [1, 300])
    @pytest.mark.parametrize("n_exp", [1, 8, 50])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("general", [False, True], ids=["laguerre", "p2"])
    def test_each_record_has_the_bits_of_its_own_batch(self, model, general,
                                                       k, n_exp, nb):
        if general:
            model = _random_model(7, n=3, p=2, q=2, d=2)
            assert model.Sigma_e[0, 1] != 0.0
        records = [_record(model, 110 + i, n_exp) for i in range(k)]
        thetas = np.random.default_rng(210).uniform(-2, 2, (nb, model.d))
        scores = _BatchLikelihood(model, records)(thetas)
        assert scores.shape == (k, nb)
        for data, row in zip(records, scores):
            assert np.array_equal(row, _BatchLikelihood(model, data)(thetas))

    def test_records_of_other_lengths_raise(self, model):
        with pytest.raises(ValueError):
            _BatchLikelihood(model, [_record(model, 120, 8),
                                     _record(model, 121, 9)])

    def test_pass_rows_are_each_posteriors_scores(self, model, filter_calls):
        """One filter call scores the normalizer's samples and the prefetch
        rows for three records; each record's row gives the posterior of a
        pass on it alone."""
        prior = sb.Box([-10, -10], [10, 10])
        records = [sb.collect_data(model, theta,
                                   sb.InputSampler("uniform", low=-2, high=2),
                                   8, [0, 0], RngStream(90).child(i))
                   for i, theta in enumerate([[0.3, 0.3], [1, 0.5], [-2, 1]])]
        rows = (np.random.default_rng(91).uniform(-3, 3, (300, 2)),)
        scores = likelihood_pass(records, model, prior, 4096, RngStream(92),
                                 rows)
        assert scores.shape == (3, 4396) and filter_calls == [4396]
        for data, row in zip(records, scores):
            shared = sb.posterior(data, model, prior, 4096, RngStream(92),
                                  prefetch=rows, scores=row)
            alone = sb.posterior(data, model, prior, 4096, RngStream(92),
                                 prefetch=rows)
            assert shared.log_z == alone.log_z
            assert shared.z_std_error == alone.z_std_error
            assert np.array_equal(shared.density(rows[0]),
                                  alone.density(rows[0]))
        assert filter_calls == [4396] * 4
