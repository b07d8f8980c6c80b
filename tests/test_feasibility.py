import itertools
import time
import warnings

import numpy as np
import pytest

import stlbayes as sb
from stlbayes.chance import AffineInputConstraint
from stlbayes.feasibility import (
    FEAS_TOL,
    FEASIBLE,
    INFEASIBLE_LABEL,
    UNKNOWN,
    _LeafGeometry,
)


def random_constraint(gen, max_m=3, max_t=4):
    m = int(gen.integers(1, max_m + 1))
    t = int(gen.integers(0, max_t + 1))
    f = gen.normal(size=m * t)
    b = float(gen.normal() * 2)
    lo = -gen.uniform(0.1, 2.0, size=m)
    hi = gen.uniform(0.1, 2.0, size=m)
    return (AffineInputConstraint(f=f, b=b, time=t, m=m),
            sb.InputBox(lo, hi))


class TestWorstCaseMargin:
    def test_constant_constraint(self):
        c = AffineInputConstraint(f=np.zeros(0), b=0.7, time=0, m=1)
        assert sb.worst_case_margin(c, sb.InputBox([-1], [1])) == 0.7

    def test_symmetric_box(self):
        c = AffineInputConstraint(f=[1.0, -2.0], b=0.0, time=2, m=1)
        assert sb.worst_case_margin(c, sb.InputBox([-1], [1])) == pytest.approx(-3.0)

    def test_corner_enumeration_oracle(self):
        gen = np.random.default_rng(1)
        for _ in range(200):
            c, box = random_constraint(gen, max_m=2, max_t=3)
            k = c.f.size
            if k == 0:
                continue
            lo, hi = box.stacked(c.time)
            best = min(c.b + float(c.f @ np.array(corner))
                       for corner in itertools.product(
                           *[(lo[i], hi[i]) for i in range(k)]))
            assert sb.worst_case_margin(c, box) == pytest.approx(best)


class TestFarkas:
    def test_oracle_equivalence(self):
        gen = np.random.default_rng(2)
        for _ in range(400):
            c, box = random_constraint(gen)
            margin = sb.worst_case_margin(c, box)
            ok, cert = sb.farkas_feasible(c, box)
            if margin > 1e-9:
                assert ok
            elif margin < -1e-9:
                assert not ok

    def test_certificate_structure(self):
        gen = np.random.default_rng(3)
        found = 0
        while found < 50:
            c, box = random_constraint(gen)
            if c.time == 0:
                continue
            ok, cert = sb.farkas_feasible(c, box)
            if not ok:
                continue
            found += 1
            P = cert.P
            assert np.all(P >= -1e-12)
            k = c.f.size
            lo, hi = box.stacked(c.time)
            d = np.empty(2 * k)
            d[0::2] = hi
            d[1::2] = -lo
            # D^T P = -f and d.P <= b.
            dtp = P[0::2] - P[1::2]
            assert dtp == pytest.approx(-c.f, abs=1e-8)
            assert float(d @ P) <= c.b + 1e-8

    def test_constant_boundaries(self):
        box = sb.InputBox([-1], [1])
        bad = AffineInputConstraint(f=np.zeros(0), b=-1.0, time=0, m=1)
        good = AffineInputConstraint(f=np.zeros(0), b=0.0, time=0, m=1)
        assert sb.farkas_feasible(bad, box)[0] is False
        assert sb.farkas_feasible(good, box)[0] is True


@pytest.fixture(params=[(kind, form) for kind in ("output", "state")
                        for form in ("stddev", "variance_literal")],
                ids="-".join)
def route_spec(request, safety_model, safety_formula):
    """The safety spec, or G[0,3] of a state predicate (J = 0) from a
    nonzero x0, under either noise-margin form."""
    kind, form = request.param
    if kind == "output":
        return sb.VerificationSpec(safety_model, safety_formula, 0.05,
                                   gamma_form=form)
    state = sb.Always(sb.Pred("s", sb.LinearPredicate(0.5, (1.0, -0.3))),
                      0, 3)
    return sb.VerificationSpec(safety_model, state, 0.05, x0=[0.3, -0.2],
                               gamma_form=form)


def _rows_seen(monkeypatch, method: str) -> list:
    """Patch `_LeafGeometry.<method>` to record the number of rows of each
    call's theta argument; returns the (growing) list of counts."""
    seen = []
    original = getattr(_LeafGeometry, method)

    def counted(self, thetas):
        seen.append(np.atleast_2d(thetas).shape[0])
        return original(self, thetas)

    monkeypatch.setattr(_LeafGeometry, method, counted)
    return seen


def _assert_rowwise_satisfaction(spec, thetas):
    """satisfaction_batch agrees with every leaf's margin taken row by row,
    on the whole batch, on single rows and on an empty batch."""
    sat = spec.satisfaction_batch(thetas)
    assert sat.dtype == np.uint8 and sat.shape == (len(thetas),)
    assert sat.tolist() == [int(np.all(spec.leaf_margins(t) >= -FEAS_TOL))
                            for t in thetas]
    for i in range(3):
        assert spec.satisfaction_batch(thetas[i:i + 1]).tolist() == [sat[i]]
    empty = spec.satisfaction_batch(thetas[:0])
    assert empty.shape == (0,) and empty.dtype == np.uint8


class TestSatisfactionFn:
    def test_dominating_noise_kills_feasibility(self, case_model, case_formula):
        loud = case_model.with_overrides(Sigma_w=50.0 * np.eye(2))
        spec = sb.VerificationSpec(loud, case_formula, 0.01)
        gen = np.random.default_rng(4)
        thetas = gen.uniform(-3, 3, size=(50, 2))
        thetas = thetas[np.linalg.norm(thetas, axis=1) > 0.5]
        assert not spec.satisfaction_batch(thetas).any()

    def test_matches_per_leaf_affine_route(self, route_spec):
        # The vectorized margins agree exactly with the per-leaf reduction
        # checked by the closed-form box oracle.
        gen = np.random.default_rng(5)
        box = route_spec.input_box
        for theta in gen.uniform(-2, 2, size=(25, 2)):
            margins = route_spec.leaf_margins(theta)
            ref = np.array([sb.worst_case_margin(c, box)
                            for c in route_spec.affine_constraints(theta)])
            assert margins == pytest.approx(ref, abs=1e-10)
            expected = int(np.all(ref >= -1e-9))
            assert sb.satisfaction_fn(theta, route_spec) == expected

    def test_farkas_agrees_on_spec_leaves(self, route_spec):
        gen = np.random.default_rng(6)
        box = route_spec.input_box
        for theta in gen.uniform(-1.5, 1.5, size=(10, 2)):
            for c in route_spec.affine_constraints(theta):
                margin = sb.worst_case_margin(c, box)
                if abs(margin) > 1e-9:
                    assert sb.farkas_feasible(c, box)[0] == (margin >= 0)

    def test_batch_matches_rowwise_margins(self, route_spec):
        _assert_rowwise_satisfaction(
            route_spec, np.random.default_rng(13).uniform(-2, 2, (500, 2)))

    def test_batch_matches_rowwise_margins_on_until(self, case_spec):
        _assert_rowwise_satisfaction(
            case_spec, np.random.default_rng(14).uniform(-3.5, 3.5, (500, 2)))

    @pytest.mark.parametrize("low", [1.5, 0.6])
    def test_leaves_see_only_rows_still_satisfied(self, low, safety_spec,
                                                  monkeypatch):
        # On [1.5, 2]^2 the third leaf rejects the whole batch; on [0.6, 2]^2
        # it rejects all but a few rows, which a later leaf rejects.  Each
        # leaf sees the rows that all earlier leaves admitted, and no leaf
        # is evaluated once none is left.
        thetas = np.random.default_rng(15).uniform(low, 2.0, size=(50, 2))
        passed = np.cumprod([safety_spec.leaf_margins(t) >= -FEAS_TOL
                             for t in thetas], axis=1).sum(axis=0)
        last = int(np.argmin(passed))  # the first leaf that no row survives
        assert passed[last] == 0 and 0 < last < len(safety_spec.leaves()) - 1
        seen = _rows_seen(monkeypatch, "margins")
        sat = safety_spec.satisfaction_batch(thetas)
        assert sat.dtype == np.uint8 and not sat.any()
        assert seen == [len(thetas), *passed[:last].tolist()]

    @pytest.mark.parametrize("which, bound", [("safety", 5.0), ("case", 4.0)])
    def test_rows_evaluated_per_theta(self, which, bound, safety_spec,
                                      case_spec, safety_region, monkeypatch):
        # Evaluating each leaf on the whole batch, until no row is left,
        # takes 8 rows per theta on the safety spec and 13 on the until spec.
        spec, region = ((safety_spec, safety_region) if which == "safety"
                        else (case_spec, CASE_REGION))
        n = 20_000
        thetas = np.random.default_rng(16).uniform(region.lower, region.upper,
                                                   size=(n, 2))
        seen = _rows_seen(monkeypatch, "margins")
        spec.satisfaction_batch(thetas)
        assert sum(seen) <= bound * n

    def test_benchmark_until_window_is_vacuous(self, case_spec):
        # Regression anchor: the bundled until-window property decomposes
        # into first-hit events whose per-leaf requirements force a band and
        # its complement to be simultaneously likely, so no parameter can
        # satisfy every leaf (README, conservativeness note).  This holds
        # independently of delta and the noise level.
        xs = np.linspace(-3.5, 3.5, 101)
        grid = np.array(np.meshgrid(xs, xs)).reshape(2, -1).T
        assert not case_spec.satisfaction_batch(grid).any()
        leaves = case_spec.decomposition.all_leaves()
        band = next(l.threshold for l in leaves
                    if l.label == "mu3" and l.time == 2)
        ray = next(1 - l.threshold for l in leaves
                   if l.label == "!mu3" and l.time == 2)
        assert band + ray > 1.0  # contradictory probability requirements

    def test_monotone_in_delta(self, safety_model, safety_formula):
        weak = sb.VerificationSpec(safety_model, safety_formula, 0.2)
        strict = sb.VerificationSpec(safety_model, safety_formula, 0.02)
        gen = np.random.default_rng(7)
        thetas = gen.uniform(-2, 2, size=(400, 2))
        s_strict = strict.satisfaction_batch(thetas)
        s_weak = weak.satisfaction_batch(thetas)
        assert np.all(s_weak >= s_strict)
        assert s_weak.sum() > s_strict.sum()  # strictly more permissive here


class TestRestrictRegion:
    def test_shrinks_and_contains_feasible_set(self, safety_spec, safety_region):
        restricted = sb.restrict_region(safety_spec, safety_region, grid=33)
        assert restricted is not None
        assert np.all(restricted.lower >= safety_region.lower - 1e-12)
        assert np.all(restricted.upper <= safety_region.upper + 1e-12)
        assert restricted.volume < safety_region.volume
        # Every satisfying grid point lies inside the restriction.
        xs = np.linspace(-2, 2, 81)
        grid = np.array(np.meshgrid(xs, xs)).reshape(2, -1).T
        sat = safety_spec.satisfaction_batch(grid).astype(bool)
        inside = np.all((grid[sat] >= restricted.lower - 1e-9)
                        & (grid[sat] <= restricted.upper + 1e-9), axis=1)
        assert inside.all()

    def test_idempotent_within_tolerance(self, safety_spec, safety_region):
        once = sb.restrict_region(safety_spec, safety_region, grid=33)
        twice = sb.restrict_region(safety_spec, once, grid=33)
        span = safety_region.upper - safety_region.lower
        assert np.all(np.abs(once.lower - twice.lower) <= 0.1 * span)
        assert np.all(np.abs(once.upper - twice.upper) <= 0.1 * span)

    def test_empty_flag(self, case_spec):
        region = sb.Region([-3.5, -3.5], [3.5, 3.5])
        assert sb.restrict_region(case_spec, region, grid=21) is None


class TestPwaPartition:
    def test_grid_count(self):
        region = sb.Region([-3.5, -3.5], [3.5, 3.5])
        assert len(sb.pwa_partition(region, 5)) == 25

    def test_single_cell(self):
        region = sb.Region([0, 0], [1, 2])
        (cell,) = sb.pwa_partition(region, 1)
        assert np.array_equal(cell.lower, region.lower)
        assert np.array_equal(cell.upper, region.upper)

    def test_exact_cover(self):
        region = sb.Region([-1, 0], [2, 1])
        cells = sb.pwa_partition(region, 4)
        assert sum(c.volume for c in cells) == pytest.approx(region.volume)
        # Shared faces: each interior edge coordinate appears in two cells.
        uppers = sorted({c.upper[0] for c in cells})
        lowers = sorted({c.lower[0] for c in cells})
        assert uppers[:-1] == lowers[1:]

    @pytest.mark.parametrize("lower, upper, per_axis", [
        ([-1.0], [2.0], 7),
        ([-2.0, -2.0], [2.0, 2.0], 64),
        ([-0.3, 0.0, 1.0], [0.7, 0.1, 5.0], 5),
    ])
    def test_bounds_match_product_reference(self, lower, upper, per_axis):
        region = sb.Box(lower, upper)
        cells = sb.pwa_partition(region, per_axis)
        d = len(lower)
        edges = [np.linspace(lower[i], upper[i], per_axis + 1)
                 for i in range(d)]
        ref_lower, ref_upper = [], []
        for index in itertools.product(range(per_axis), repeat=d):
            ref_lower.append([edges[i][index[i]] for i in range(d)])
            ref_upper.append([edges[i][index[i] + 1] for i in range(d)])
        assert cells.lower.tolist() == ref_lower
        assert cells.upper.tolist() == ref_upper
        assert list(cells.label) == [UNKNOWN] * per_axis ** d
        # Neighbours along each axis share their face exactly.
        shape = (per_axis,) * d + (d,)
        lo, hi = cells.lower.reshape(shape), cells.upper.reshape(shape)
        for i in range(d):
            upper_face = np.take(hi, np.arange(per_axis - 1), axis=i)[..., i]
            lower_face = np.take(lo, np.arange(1, per_axis), axis=i)[..., i]
            assert np.array_equal(upper_face, lower_face)
        assert cells.volume.sum() == pytest.approx(region.volume, rel=1e-12)


class TestBoxValidation:
    @pytest.mark.parametrize("make", [
        lambda: sb.Box([0.0, 1.0], [1.0, 0.5]),
        lambda: sb.Box([0.0, 0.0], [1.0, 1.0, 1.0]),
        lambda: sb.Cells([[0.0, 1.0]], [[1.0, 0.5]]),
        lambda: sb.Cells([[0.0, 0.0]], [[1.0, 1.0, 1.0]]),
        lambda: sb.Cells([[0.0, 0.0]], [[1.0, 1.0], [2.0, 2.0]]),
        lambda: sb.Cells([0.0, 0.0], [1.0, 1.0]),
        lambda: sb.Cells([[0.0, 0.0]], [[1.0, 1.0]], [UNKNOWN, UNKNOWN]),
    ])
    def test_rejects_bad_bounds(self, make):
        with pytest.raises(ValueError):
            make()

    def test_cells_iterate_as_labelled_boxes(self):
        cells = sb.Cells([[0.0, 0.0], [1.0, 0.0]], [[1.0, 2.0], [3.0, 2.0]],
                         [FEASIBLE, UNKNOWN])
        assert len(cells) == 2
        boxes = list(cells)
        assert [b.label for b in boxes] == [FEASIBLE, UNKNOWN]
        assert [b.volume for b in boxes] == cells.volume.tolist() == [2.0, 4.0]
        assert np.array_equal(boxes[1].lower, [1.0, 0.0])


class TestPwaLinearize:
    def test_zero_width_cell(self, safety_model):
        cell = sb.ThetaCell([0.4, 0.6], [0.4, 0.6])
        gaff, eps = sb.pwa_linearize(safety_model, cell, 0.01, 3)
        assert eps == 0.0
        assert gaff([0.4, 0.6]) == pytest.approx(
            sb.gamma([0.4, 0.6], 0.01, safety_model, 3))

    def test_containment(self, safety_model):
        gen = np.random.default_rng(8)
        for _ in range(20):
            center = gen.uniform(-1.5, 1.5, size=2)
            width = gen.uniform(0.05, 0.6)
            cell = sb.ThetaCell(center - width / 2, center + width / 2)
            gaff, eps = sb.pwa_linearize(safety_model, cell, 0.05, 3)
            for theta in gen.uniform(cell.lower, cell.upper, size=(50, 2)):
                val = sb.gamma(theta, 0.05, safety_model, 3)
                assert gaff(theta) - eps - 1e-12 <= val <= gaff(theta) + eps + 1e-12

    def test_halving_shrinks_remainder(self, safety_model):
        cell = sb.ThetaCell([0.5, 0.5], [1.0, 1.0])
        _, eps1 = sb.pwa_linearize(safety_model, cell, 0.01, 3)
        half = sb.ThetaCell([0.625, 0.625], [0.875, 0.875])
        _, eps2 = sb.pwa_linearize(safety_model, half, 0.01, 3)
        assert eps1 / eps2 >= 3.9

    def test_literal_form_rejects_large_delta(self, safety_model):
        cell = sb.ThetaCell([0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError, match="variance_literal"):
            sb.pwa_linearize(safety_model, cell, 0.6, 3,
                             gamma_form="variance_literal")

    def test_cone_cell_falls_back_to_interval(self, safety_model):
        cell = sb.ThetaCell([-0.2, -0.2], [0.2, 0.2])
        gaff, eps = sb.pwa_linearize(safety_model, cell, 0.01, 3)
        assert eps > 0.0
        gen = np.random.default_rng(9)
        for theta in gen.uniform(cell.lower, cell.upper, size=(200, 2)):
            val = sb.gamma(theta, 0.01, safety_model, 3)
            assert gaff(theta) - eps - 1e-12 <= val <= gaff(theta) + eps + 1e-12


CASE_REGION = sb.Region([-3.5, -3.5], [3.5, 3.5])


def _counts(cells):
    labels = [c.label for c in cells]
    return (labels.count(FEASIBLE), labels.count(INFEASIBLE_LABEL),
            labels.count(UNKNOWN))


class TestPwaClassify:
    def test_feasible_cells_are_sound(self, safety_spec, safety_region):
        gen = np.random.default_rng(10)
        for per_axis in (16, 64):
            cells = sb.classify_cells(
                sb.pwa_partition(safety_region, per_axis), safety_spec)
            labels = {c.label for c in cells}
            assert labels == {FEASIBLE, INFEASIBLE_LABEL, UNKNOWN}
            for cell in cells:
                if cell.label == FEASIBLE:
                    pts = gen.uniform(cell.lower, cell.upper, size=(300, 2))
                    assert safety_spec.satisfaction_batch(pts).all()

    def test_infeasible_cells_are_sound(self, safety_spec, safety_region):
        gen = np.random.default_rng(11)
        for per_axis in (16, 64):
            cells = sb.classify_cells(
                sb.pwa_partition(safety_region, per_axis), safety_spec)
            for cell in cells:
                if cell.label == INFEASIBLE_LABEL:
                    pts = gen.uniform(cell.lower, cell.upper, size=(100, 2))
                    assert not safety_spec.satisfaction_batch(pts).any()

    # Label counts (feasible, infeasible, unknown) of the per-cell loop that
    # the array pass replaced, on the same partitions.
    @pytest.mark.parametrize("which, form, per_axis, counts", [
        ("safety", "stddev", 5, (1, 16, 8)),
        ("safety", "stddev", 16, (10, 216, 30)),
        ("safety", "stddev", 64, (326, 3676, 94)),
        ("case", "stddev", 5, (0, 24, 1)),
        ("case", "variance_literal", 5, (0, 6, 19)),
        ("case", "variance_literal", 16, (26, 194, 36)),
        ("safety", "variance_literal", 16, (126, 72, 58)),
    ])
    def test_pinned_label_counts(self, which, form, per_axis, counts,
                                 safety_spec, case_spec, safety_region):
        base, region = ((safety_spec, safety_region) if which == "safety"
                        else (case_spec, CASE_REGION))
        spec = sb.VerificationSpec(base.model, base.formula, base.delta,
                                   gamma_form=form)
        cells = sb.classify_cells(sb.pwa_partition(region, per_axis), spec)
        assert _counts(cells) == counts

    @pytest.mark.parametrize("which, form", [
        (which, form) for which in ("safety", "case")
        for form in ("stddev", "variance_literal")])
    def test_single_cell_calls_match_batch(self, which, form, safety_spec,
                                           case_spec, safety_region):
        base, region, per_axis = ((safety_spec, safety_region, 16)
                                  if which == "safety"
                                  else (case_spec, CASE_REGION, 8))
        spec = sb.VerificationSpec(base.model, base.formula, base.delta,
                                   gamma_form=form)
        cells = sb.classify_cells(sb.pwa_partition(region, per_axis), spec)
        assert [sb.pwa_classify(c, spec) for c in cells] == \
            [c.label for c in cells]

    @pytest.mark.parametrize("which, form", [("safety", "stddev"),
                                             ("case", "variance_literal")])
    def test_permuted_partition_permutes_labels(self, which, form,
                                                safety_spec, case_spec,
                                                safety_region):
        base, region = ((safety_spec, safety_region) if which == "safety"
                        else (case_spec, CASE_REGION))
        spec = sb.VerificationSpec(base.model, base.formula, base.delta,
                                   gamma_form=form)
        cells = sb.pwa_partition(region, 16)
        labels = sb.classify_cells(cells, spec).label
        assert len(set(labels)) == 3
        order = np.random.default_rng(17).permutation(len(cells))
        permuted = sb.Cells(cells.lower[order], cells.upper[order])
        assert np.array_equal(sb.classify_cells(permuted, spec).label,
                              labels[order])

    def test_vertex_rows_evaluated(self, safety_spec, safety_region,
                                   monkeypatch):
        # Carrying every cell through every leaf would pass each leaf the
        # 4 vertices of all 4096 cells.
        cells = sb.pwa_partition(safety_region, 64)
        seen = _rows_seen(monkeypatch, "gradients")
        sb.classify_cells(cells, safety_spec)
        assert sum(seen) <= 0.6 * len(safety_spec.leaves()) * 4 * len(cells)

    def test_empty_cell_list(self, safety_spec):
        empty = sb.Cells(np.empty((0, 2)), np.empty((0, 2)))
        assert list(sb.classify_cells(empty, safety_spec)) == []

    def test_one_parameter_partition(self, safety_model, safety_formula):
        model = sb.ParametricLti(
            A=safety_model.A, B=safety_model.B, G=safety_model.G,
            C0=[[0.0, 0.5]], C_basis=([[1.0, 0.0]],),
            Sigma_w=safety_model.Sigma_w, Sigma_e=safety_model.Sigma_e,
            input_lower=safety_model.input_lower,
            input_upper=safety_model.input_upper)
        spec = sb.VerificationSpec(model, safety_formula, 0.05)
        cells = sb.classify_cells(
            sb.pwa_partition(sb.Region([-2.0], [2.0]), 32), spec)
        assert len(cells) == 32
        assert {FEASIBLE, INFEASIBLE_LABEL} <= {c.label for c in cells}
        gen = np.random.default_rng(12)
        for cell in cells:
            sat = spec.satisfaction_batch(
                gen.uniform(cell.lower, cell.upper, size=(100, 1)))
            if cell.label == FEASIBLE:
                assert sat.all()
            elif cell.label == INFEASIBLE_LABEL:
                assert not sat.any()

    def test_cone_point_center_without_warning(self, safety_spec):
        # sigma vanishes at theta = 0 (C0 = 0), while lambda_max(Q) > 0.
        cells = sb.Cells([[-0.2, -0.2], [0.0, 0.0]], [[0.2, 0.2], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = [c.label for c in sb.classify_cells(cells, safety_spec)]
        assert all(label in (FEASIBLE, INFEASIBLE_LABEL, UNKNOWN)
                   for label in labels)

    def test_runtime_per_axis_64(self, safety_spec, safety_region):
        cells = sb.pwa_partition(safety_region, 64)
        start = time.perf_counter()
        sb.classify_cells(cells, safety_spec)
        assert time.perf_counter() - start < 0.5

    def test_exterior_point_cell_not_feasible(self, case_spec):
        # A small cell around a parameter outside the feasible set must not
        # be certified feasible.
        cell = sb.ThetaCell([1.9, -1.1], [2.1, -0.9])
        label = sb.pwa_classify(cell, case_spec)
        assert label in (INFEASIBLE_LABEL, UNKNOWN)

    def test_interior_point_cell_feasible(self, safety_spec):
        cell = sb.ThetaCell([0.25, 0.25], [0.35, 0.35])
        assert sb.pwa_classify(cell, safety_spec) == FEASIBLE

    def test_refinement_trend(self, safety_spec, safety_region):
        prev_feasible, prev_unknown = -1.0, float("inf")
        for per_axis in (5, 10, 20):
            cells = sb.classify_cells(sb.pwa_partition(safety_region, per_axis),
                                      safety_spec)
            feas = sum(c.volume for c in cells if c.label == FEASIBLE)
            unk = sum(c.volume for c in cells if c.label == UNKNOWN)
            assert feas >= prev_feasible - 1e-9
            assert unk <= prev_unknown + 1e-9
            prev_feasible, prev_unknown = feas, unk
