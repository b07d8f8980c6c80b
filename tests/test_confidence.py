import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stlbayes as sb
from oracles import cell_points
from stlbayes import confidence
from stlbayes.rng import RngStream


class _ConstSat:
    def __init__(self, value):
        self.value = value

    def satisfaction_batch(self, thetas, cells=None):
        return np.full(len(np.atleast_2d(thetas)), self.value, dtype=np.uint8)


class _BoxSat:
    """Indicator of an axis-aligned box, for volume-fraction checks."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)

    def satisfaction_batch(self, thetas, cells=None):
        thetas = np.atleast_2d(thetas)
        ok = np.all((thetas >= self.lower) & (thetas <= self.upper), axis=1)
        return ok.astype(np.uint8)


def _mc(post, sat, region, n, rng, epsilon=None):
    """`mc_confidence` on the draws of `mc_draws`."""
    return sb.mc_confidence(post, region, sb.mc_draws(sat, region, n, rng),
                            epsilon)


def _pwa(post, cells, n, rng, epsilon=None):
    """`pwa_confidence` on the draws of `pwa_draws`."""
    return sb.pwa_confidence(post, cells,
                             sb.pwa_draws(post.prior, cells, n, rng), epsilon)


@pytest.fixture(scope="module")
def uniform_post():
    prior = sb.Box([-2, -2], [2, 2])
    return sb.posterior(None, sb.laguerre_model(0.4), prior, 1000,
                        RngStream(1))


@pytest.fixture(scope="module")
def region():
    return sb.Box([-2, -2], [2, 2])


class TestMcConfidence:
    def test_empty_feasible_set(self, uniform_post, region):
        est = _mc(uniform_post, _ConstSat(0), region, 500, RngStream(2))
        assert est.value == 0.0
        assert est.variance_estimate == 0.0
        assert est.chebyshev_probability == 1.0

    def test_full_mass(self, uniform_post, region):
        est = _mc(uniform_post, _ConstSat(1), region, 500, RngStream(3))
        assert est.value == pytest.approx(1.0)
        assert est.variance_estimate == pytest.approx(0.0, abs=1e-20)

    def test_volume_fraction(self, uniform_post, region):
        sat = _BoxSat([-1, -1], [1, 1])
        est = _mc(uniform_post, sat, region, 20000, RngStream(4))
        # Posterior is uniform: the confidence is the volume fraction 1/4.
        assert abs(est.raw_value - 0.25) <= 3 * est.std_error

    def test_bitwise_determinism(self, uniform_post, region):
        a = _mc(uniform_post, _BoxSat([-1, 0], [2, 2]), region,
                4096, RngStream(5, ("mc",)))
        b = _mc(uniform_post, _BoxSat([-1, 0], [2, 2]), region,
                4096, RngStream(5, ("mc",)))
        assert a == b

    def test_explicit_epsilon(self, uniform_post, region):
        est = _mc(uniform_post, _BoxSat([-1, -1], [0, 0]), region,
                  2000, RngStream(6), epsilon=0.05)
        assert est.chebyshev_epsilon == 0.05
        assert est.chebyshev_probability == pytest.approx(
            1 - est.variance_estimate / 0.05 ** 2)

    def test_tiny_epsilon_gives_a_zero_bound(self, uniform_post, region):
        # Var / eps^2 far above 1: Chebyshev's bound max(0, 1 - Var/eps^2).
        est = _mc(uniform_post, _BoxSat([-1, -1], [0, 0]), region,
                  2000, RngStream(6), epsilon=1e-6)
        assert est.variance_estimate > 1e-12
        assert est.chebyshev_probability == 0.0


def _uniform_cell_points(cells, integrated, n, rng):
    """The per-cell `uniform` loop: the bit-level reference for
    `confidence._cell_points`."""
    d = cells.lower.shape[1]
    pts = np.empty((integrated.size, n, d))
    for k, idx in enumerate(integrated.tolist()):
        gen = rng.child("cell").generator()
        gen.bit_generator.advance(idx << 64)
        pts[k] = gen.uniform(cells.lower[idx], cells.upper[idx], (n, d))
    return pts


class TestPwaConfidence:
    def test_no_feasible_cells(self, uniform_post, region):
        cells = sb.pwa_partition(region, 3)
        labeled = sb.Cells(cells.edges, ["infeasible"] * 9)
        est = _pwa(uniform_post, labeled, 100, RngStream(8))
        assert est.value == 0.0
        assert est.interval == (0.0, 0.0)

    def test_uniform_mass_adds_up(self, uniform_post, region):
        cells = sb.pwa_partition(region, 4)
        labeled = sb.Cells(cells.edges, ["feasible"] * 16)
        est = _pwa(uniform_post, labeled, 200, RngStream(9))
        assert est.value == pytest.approx(1.0)

    def test_unknown_cells_widen_interval(self, uniform_post, region):
        cells = sb.pwa_partition(region, 2)
        labeled = sb.Cells(cells.edges, ["feasible"] + ["unknown"] * 3)
        est = _pwa(uniform_post, labeled, 400, RngStream(10))
        assert est.value == pytest.approx(0.25)
        assert est.interval[0] == pytest.approx(0.25)
        assert est.interval[1] == pytest.approx(1.0)
        assert len(est.per_cell) == 4

    def test_draws_match_per_cell_uniform(self, uniform_post, monkeypatch):
        grid = sb.pwa_partition(sb.Box([-2.0, -1.0], [1.5, 2.5]), 3)
        cells = sb.Cells(grid.edges, ["feasible", "unknown", "infeasible"] * 3)
        integrated = np.flatnonzero(cells.label != "infeasible")
        rng = RngStream(22, ("pwa",))
        assert np.array_equal(
            confidence._cell_points(cells, integrated, 40, rng),
            _uniform_cell_points(cells, integrated, 40, rng))
        est = _pwa(uniform_post, cells, 40, rng, epsilon=0.01)
        monkeypatch.setattr(confidence, "_cell_points", _uniform_cell_points)
        assert _pwa(uniform_post, cells, 40, rng, epsilon=0.01) == est

    @pytest.mark.parametrize("count", [0, 1, 26, 88])
    @pytest.mark.parametrize("n", [300, 500])
    def test_cell_points_match_one_generator_per_cell(self, count, n):
        cells = sb.pwa_partition(sb.Box([-2.0, -1.0], [1.5, 2.5]), 10)
        integrated = np.sort(np.random.default_rng(count).choice(
            len(cells), count, replace=False))
        rng = RngStream(7311, ("pwa",))
        assert np.array_equal(
            confidence._cell_points(cells, integrated, n, rng),
            cell_points(cells, integrated, n, rng))

    def test_cell_points_do_not_depend_on_the_other_cells(self):
        cells = sb.pwa_partition(sb.Box([-2.0, -1.0], [1.5, 2.5]), 10)
        integrated = np.array([3, 17, 42, 99])
        rng = RngStream(7311, ("pwa",))
        among = confidence._cell_points(cells, integrated, 50, rng)
        for k, idx in enumerate(integrated):
            alone = confidence._cell_points(cells, np.array([idx]), 50, rng)
            assert np.array_equal(alone[0], among[k])

    def test_deterministic(self, uniform_post, region):
        grid = sb.pwa_partition(region, 3)
        cells = sb.Cells(grid.edges, ["feasible"] * 9)
        a = _pwa(uniform_post, cells, 128, RngStream(11))
        b = _pwa(uniform_post, cells, 128, RngStream(11))
        assert a == b


    def test_batched_density_matches_per_cell_loop(self, safety_spec,
                                                   safety_region):
        model = safety_spec.model
        prior = sb.Box([-2, -2], [2, 2])
        data = sb.collect_data(model, [0.3, 0.3],
                               sb.InputSampler("uniform", low=-2, high=2),
                               8, [0, 0], RngStream(19))
        post = sb.posterior(data, model, prior, 1024, RngStream(20))
        cells = sb.classify_cells(sb.pwa_partition(safety_region, 16),
                                  safety_spec)
        rng = RngStream(21, ("pwa",))
        est = _pwa(post, cells, 50, rng)
        feasible = cells.label == "feasible"
        lower, upper = cells.lower[feasible], cells.upper[feasible]
        masses, errors, evaluations = confidence._rule_masses(
            post, lower, upper, confidence._rule_nodes(lower, upper))
        rule = iter(zip(masses.tolist(), errors.tolist()))
        records = iter(est.per_cell)  # the cells not certified infeasible
        value = 0.0
        for idx, cell in enumerate(cells):
            if cell.label == "infeasible":
                continue
            record = next(records)
            if cell.label == "feasible":
                mass, se = next(rule)
                value += mass
            else:  # unknown
                gen = rng.child("cell").generator()
                gen.bit_generator.advance(idx << 64)
                pts = gen.uniform(cell.lower, cell.upper, (50, 2))
                dens = post.density(pts)
                mass = cell.volume * float(dens.mean())
                se = np.sqrt(cell.volume ** 2 * float(dens.var(ddof=1)) / 50)
            assert (record["label"], record["mass"], record["std_error"]) == \
                (cell.label, mass, se)
        assert next(records, None) is None
        assert est.raw_value == value
        assert est.std_error == pytest.approx(errors.sum(), rel=1e-12)
        assert est.samples == evaluations + 50 * sum(
            c.label == "unknown" for c in cells)

    def test_per_cell_lists_the_cells_that_carry_mass(self, safety_spec,
                                                      safety_region):
        """per_cell holds the feasible and unknown cells, in partition
        order; infeasible cells are left to feasible_cells.csv.  The unknown
        entries' masses, added left to right, give the interval's width."""
        model = safety_spec.model
        data = sb.collect_data(model, [1.0, 1.0],
                               sb.InputSampler("uniform", low=-2, high=2),
                               8, [0, 0], RngStream(19))
        post = sb.posterior(data, model, safety_region, 1024, RngStream(20))
        cells = sb.classify_cells(sb.pwa_partition(safety_region, 16),
                                  safety_spec)
        assert set(cells.label.tolist()) == {"feasible", "infeasible",
                                             "unknown"}
        est = _pwa(post, cells, 30, RngStream(21))
        kept = cells.label != "infeasible"
        assert [(c["lower"], c["upper"], c["label"]) for c in est.per_cell] \
            == list(zip(cells.lower[kept].tolist(),
                        cells.upper[kept].tolist(),
                        cells.label[kept].tolist()))
        assert all(c.keys() == {"lower", "upper", "label", "mass",
                                "std_error"} for c in est.per_cell)
        assert est.to_json_dict()["per_cell"] == list(est.per_cell)
        unknown = 0.0
        for c in est.per_cell:
            if c["label"] == "unknown":
                unknown += c["mass"]
        assert 0.0 < est.interval[0] and est.interval[1] < 1.0
        assert est.raw_value + unknown == est.interval[1]
        assert unknown == pytest.approx(est.interval[1] - est.interval[0],
                                        rel=1e-12)


_GL10 = np.polynomial.legendre.leggauss(10)


def _reference_masses(post, lower, upper, k):
    """Per-box posterior mass by a 10-point Gauss-Legendre rule on each of
    k x k sub-boxes: the fine reference for the rule masses."""
    x, w = _GL10
    sub = np.stack(np.meshgrid(np.arange(k), np.arange(k), indexing="ij"),
                   -1).reshape(-1, 2)
    node = np.stack(np.meshgrid(x, x, indexing="ij"), -1).reshape(-1, 2)
    span = ((upper - lower) / k)[:, None, None, :]
    pts = lower[:, None, None, :] + span * (
        sub[None, :, None, :] + 0.5 + 0.5 * node[None, None])
    weights = np.outer(w, w).ravel() / 4 * np.prod(span, axis=-1)
    dens = post.density(pts.reshape(-1, 2)).reshape(len(lower), k * k, -1)
    return (dens * weights).sum(axis=(1, 2))


class TestRuleMasses:
    """Feasible cells are integrated by adaptive tensor Gauss-Legendre 4/5."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_nodes_match_the_broadcast_form(self, d):
        gen = np.random.default_rng(d)
        lower = gen.uniform(-2.0, 1.0, (330, d))
        upper = lower + gen.uniform(0.0, 1.0, (330, d))
        want = (lower[:, None] + (upper - lower)[:, None]
                * confidence._gl45(d)[0]).reshape(-1, d)
        got = confidence._rule_nodes(lower, upper)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_exp,refined", [(8, False), (400, True)])
    def test_mass_within_the_reported_error(self, safety_spec, safety_region,
                                            n_exp, refined):
        model = safety_spec.model
        data = sb.collect_data(model, [0.3, 0.3],
                               sb.InputSampler("uniform", low=-2, high=2),
                               n_exp, [0, 0], RngStream(19))
        post = sb.posterior(data, model, safety_region, 1024, RngStream(20))
        cells = sb.classify_cells(sb.pwa_partition(safety_region, 16),
                                  safety_spec)
        feasible = cells.label == "feasible"
        est = _pwa(post, cells, 20, RngStream(21))
        reference = _reference_masses(post, cells.lower[feasible],
                                      cells.upper[feasible], 4)
        # per_cell lists the cells not certified infeasible, in order.
        rule = [c for c in est.per_cell if c["label"] == "feasible"]
        masses = np.array([c["mass"] for c in rule])
        errors = np.array([c["std_error"] for c in rule])
        assert abs(est.raw_value - reference.sum()) <= est.std_error
        assert est.std_error <= confidence.RULE_TOL
        # A cell's masses in far tails, accepted as negligible, may miss by
        # more than their error estimate, but not by more than their share
        # of the tolerance.
        share = cells.volume[feasible] / cells.volume[feasible].sum()
        assert np.all(np.abs(masses - reference)
                      <= errors + confidence.RULE_TOL * share)
        # One round is 41 nodes per feasible cell; a sharp posterior needs
        # more.
        rule_nodes = est.samples - 20 * np.count_nonzero(
            cells.label == "unknown")
        assert (rule_nodes > 41 * feasible.sum()) == refined

    def test_cells_are_clipped_to_the_prior(self, safety_spec):
        """Cells straddling the prior's edge integrate only its inside: no
        refinement at the density's jump, and every mass is the reference
        mass of the clipped cell."""
        prior = sb.Box([-2, -2], [2, 2])
        grid = sb.pwa_partition(sb.Box([-3, -3], [3, 3]), 3)
        cells = sb.Cells(grid.edges, ["feasible"] * 9)
        lower = np.maximum(cells.lower, prior.lower)
        upper = np.minimum(cells.upper, prior.upper)
        flat = sb.posterior(None, safety_spec.model, prior, 1, RngStream(0))
        est = _pwa(flat, cells, 10, RngStream(1))
        share = np.prod(upper - lower, axis=1) / prior.volume
        assert [c["mass"] for c in est.per_cell] == pytest.approx(
            share.tolist(), abs=1e-15)
        assert est.samples == 9 * 41
        data = sb.collect_data(safety_spec.model, [0.3, 0.3],
                               sb.InputSampler("uniform", low=-2, high=2),
                               8, [0, 0], RngStream(2))
        post = sb.posterior(data, safety_spec.model, prior, 1024,
                            RngStream(3))
        est = _pwa(post, cells, 10, RngStream(1))
        reference = _reference_masses(post, lower, upper, 4)
        errors = np.array([c["std_error"] for c in est.per_cell])
        masses = np.array([c["mass"] for c in est.per_cell])
        assert np.all(np.abs(masses - reference) <= errors + 1e-15)

    def test_prior_only_mass_is_the_volume_share(self, safety_spec,
                                                 safety_region):
        flat = sb.posterior(None, safety_spec.model, safety_region, 1,
                            RngStream(0))
        cells = sb.classify_cells(sb.pwa_partition(safety_region, 16),
                                  safety_spec)
        est = _pwa(flat, cells, 10, RngStream(1))
        share = np.count_nonzero(cells.label == "feasible") / 256
        assert share > 0
        assert est.raw_value == pytest.approx(share, abs=1e-15)

    def test_rule_loads_no_numpy_polynomial(self):
        """The rule's nodes are closed forms: importing `numpy.polynomial`
        would add to every process's set-up.  Checked in a fresh
        interpreter, because this test module loads it."""
        script = (
            "import sys\n"
            "import stlbayes as sb\n"
            "from stlbayes.rng import RngStream\n"
            "prior = sb.Box([-2, -2], [2, 2])\n"
            "post = sb.posterior(None, sb.laguerre_model(0.4), prior, 1,\n"
            "                    RngStream(0))\n"
            "grid = sb.pwa_partition(prior, 2)\n"
            "labels = ['feasible', 'unknown', 'infeasible', 'feasible']\n"
            "cells = sb.Cells(grid.edges, labels)\n"
            "draws = sb.pwa_draws(prior, cells, 10, RngStream(1))\n"
            "est = sb.pwa_confidence(post, cells, draws)\n"
            "assert est.value > 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('numpy.polynomial')))\n")
        src = Path(sb.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestUnderApproximation:
    def test_pwa_below_mc_on_posterior(self, safety_spec, safety_region):
        model = safety_spec.model
        prior = sb.Box([-2, -2], [2, 2])
        data = sb.collect_data(model, [0.3, 0.3],
                               sb.InputSampler("uniform", low=-2, high=2),
                               8, [0, 0], RngStream(12))
        post = sb.posterior(data, model, prior, 8192, RngStream(13))
        mc = _mc(post, safety_spec, safety_region, 20000, RngStream(14))
        cells = sb.classify_cells(sb.pwa_partition(safety_region, 16),
                                  safety_spec)
        pwa = _pwa(post, cells, 300, RngStream(15))
        combined = 3 * (mc.std_error + pwa.std_error)
        assert pwa.value <= mc.value + combined
        # Refining the partition narrows the undecided bracket.
        finer = sb.classify_cells(sb.pwa_partition(safety_region, 32),
                                  safety_spec)
        pwa2 = _pwa(post, finer, 300, RngStream(16))
        assert (pwa2.interval[1] - pwa2.interval[0]) < \
            (pwa.interval[1] - pwa.interval[0])

    def test_monotone_in_delta(self, safety_model, safety_formula,
                               safety_region):
        prior = sb.Box([-2, -2], [2, 2])
        post = sb.posterior(None, safety_model, prior, 1000, RngStream(17))
        values = []
        for delta in (0.02, 0.1, 0.3):
            spec = sb.VerificationSpec(safety_model, safety_formula, delta)
            est = _mc(post, spec, safety_region, 20000,
                      RngStream(18, ("delta",)))
            values.append((est.value, est.std_error))
        for (lo, lo_se), (hi, hi_se) in zip(values, values[1:]):
            assert hi >= lo - 3 * (lo_se + hi_se)


class TestChebyshevSampleSize:
    def test_zero_variance(self):
        assert sb.chebyshev_sample_size(0.01, 0.9, 0.0, 49.0) == 1

    def test_epsilon_scaling(self):
        n1 = sb.chebyshev_sample_size(0.005, 0.9, 1e-5, 49.0)
        n2 = sb.chebyshev_sample_size(0.01, 0.9, 1e-5, 49.0)
        assert abs(n1 - 4 * n2) <= 1  # quartering up to integer rounding

    def test_benchmark_scale(self):
        # Per-sample variance 0.058 at epsilon 0.005 and a 0.9 floor lands in
        # the expected range for the bundled benchmark's sample count.
        n = sb.chebyshev_sample_size(0.005, 0.9, 0.058, 1.0)
        assert 10 ** 4 <= n <= 10 ** 5

    def test_validation(self):
        with pytest.raises(ValueError):
            sb.chebyshev_sample_size(0.0, 0.9, 1.0, 1.0)
        with pytest.raises(ValueError):
            sb.chebyshev_sample_size(0.1, 1.0, 1.0, 1.0)
