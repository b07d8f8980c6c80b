import numpy as np
import pytest

import stlbayes as sb
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
        est = sb.mc_confidence(uniform_post, _ConstSat(0), region, 500,
                               RngStream(2))
        assert est.value == 0.0
        assert est.variance_estimate == 0.0
        assert est.chebyshev_probability == 1.0

    def test_full_mass(self, uniform_post, region):
        est = sb.mc_confidence(uniform_post, _ConstSat(1), region, 500,
                               RngStream(3))
        assert est.value == pytest.approx(1.0)
        assert est.variance_estimate == pytest.approx(0.0, abs=1e-20)

    def test_volume_fraction(self, uniform_post, region):
        sat = _BoxSat([-1, -1], [1, 1])
        est = sb.mc_confidence(uniform_post, sat, region, 20000, RngStream(4))
        # Posterior is uniform: the confidence is the volume fraction 1/4.
        assert abs(est.raw_value - 0.25) <= 3 * est.std_error

    def test_bitwise_determinism(self, uniform_post, region):
        a = sb.mc_confidence(uniform_post, _BoxSat([-1, 0], [2, 2]), region,
                             4096, RngStream(5, ("mc",)))
        b = sb.mc_confidence(uniform_post, _BoxSat([-1, 0], [2, 2]), region,
                             4096, RngStream(5, ("mc",)))
        assert a == b

    def test_explicit_epsilon(self, uniform_post, region):
        est = sb.mc_confidence(uniform_post, _BoxSat([-1, -1], [0, 0]), region,
                               2000, RngStream(6), epsilon=0.05)
        assert est.chebyshev_epsilon == 0.05
        assert est.chebyshev_probability == pytest.approx(
            1 - est.variance_estimate / 0.05 ** 2)


class TestPwaConfidence:
    def test_no_feasible_cells(self, uniform_post, region):
        cells = sb.pwa_partition(region, 3)
        labeled = sb.Cells(cells.lower, cells.upper, ["infeasible"] * 9)
        est = sb.pwa_confidence(uniform_post, labeled, 100, RngStream(8))
        assert est.value == 0.0
        assert est.interval == (0.0, 0.0)

    def test_uniform_mass_adds_up(self, uniform_post, region):
        cells = sb.pwa_partition(region, 4)
        labeled = sb.Cells(cells.lower, cells.upper, ["feasible"] * 16)
        est = sb.pwa_confidence(uniform_post, labeled, 200, RngStream(9))
        assert est.value == pytest.approx(1.0)

    def test_unknown_cells_widen_interval(self, uniform_post, region):
        cells = sb.pwa_partition(region, 2)
        labeled = sb.Cells(cells.lower, cells.upper,
                           ["feasible"] + ["unknown"] * 3)
        est = sb.pwa_confidence(uniform_post, labeled, 400, RngStream(10))
        assert est.value == pytest.approx(0.25)
        assert est.interval[0] == pytest.approx(0.25)
        assert est.interval[1] == pytest.approx(1.0)
        assert len(est.per_cell) == 4

    def test_deterministic(self, uniform_post, region):
        grid = sb.pwa_partition(region, 3)
        cells = sb.Cells(grid.lower, grid.upper, ["feasible"] * 9)
        a = sb.pwa_confidence(uniform_post, cells, 128, RngStream(11))
        b = sb.pwa_confidence(uniform_post, cells, 128, RngStream(11))
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
        est = sb.pwa_confidence(post, cells, 50, rng)
        value = 0.0
        for idx, (cell, record) in enumerate(zip(cells, est.per_cell)):
            mass = se = 0.0
            if cell.label != "infeasible":
                pts = rng.child("cell", idx).generator().uniform(
                    cell.lower, cell.upper, (50, 2))
                dens = post.density(pts)
                mass = cell.volume * float(dens.mean())
                se = np.sqrt(cell.volume ** 2 * float(dens.var(ddof=1)) / 50)
            assert (record["label"], record["mass"], record["std_error"]) == \
                (cell.label, mass, se)
            if cell.label == "feasible":
                value += mass
        assert est.raw_value == value
        assert est.samples == 50 * sum(c.label != "infeasible" for c in cells)


class TestUnderApproximation:
    def test_pwa_below_mc_on_posterior(self, safety_spec, safety_region):
        model = safety_spec.model
        prior = sb.Box([-2, -2], [2, 2])
        data = sb.collect_data(model, [0.3, 0.3],
                               sb.InputSampler("uniform", low=-2, high=2),
                               8, [0, 0], RngStream(12))
        post = sb.posterior(data, model, prior, 8192, RngStream(13))
        mc = sb.mc_confidence(post, safety_spec, safety_region, 20000,
                              RngStream(14))
        cells = sb.classify_cells(sb.pwa_partition(safety_region, 16),
                                  safety_spec)
        pwa = sb.pwa_confidence(post, cells, 300, RngStream(15))
        combined = 3 * (mc.std_error + pwa.std_error)
        assert pwa.value <= mc.value + combined
        # Refining the partition narrows the undecided bracket.
        finer = sb.classify_cells(sb.pwa_partition(safety_region, 32),
                                  safety_spec)
        pwa2 = sb.pwa_confidence(post, finer, 300, RngStream(16))
        assert (pwa2.interval[1] - pwa2.interval[0]) < \
            (pwa.interval[1] - pwa.interval[0])

    def test_monotone_in_delta(self, safety_model, safety_formula,
                               safety_region):
        prior = sb.Box([-2, -2], [2, 2])
        post = sb.posterior(None, safety_model, prior, 1000, RngStream(17))
        values = []
        for delta in (0.02, 0.1, 0.3):
            spec = sb.VerificationSpec(safety_model, safety_formula, delta)
            est = sb.mc_confidence(post, spec, safety_region, 20000,
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
