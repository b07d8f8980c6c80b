import itertools
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import stlbayes as sb
from stlbayes import cli
from stlbayes.chance import AffineInputConstraint
from stlbayes.feasibility import (
    FEAS_TOL,
    FEASIBLE,
    INFEASIBLE_LABEL,
    UNKNOWN,
    _LeafGeometry,
)

from conftest import case_predicates


def random_constraint(gen, max_m=3, max_t=4):
    m = int(gen.integers(1, max_m + 1))
    t = int(gen.integers(0, max_t + 1))
    f = gen.normal(size=m * t)
    b = float(gen.normal() * 2)
    lo = -gen.uniform(0.1, 2.0, size=m)
    hi = gen.uniform(0.1, 2.0, size=m)
    return (AffineInputConstraint(f=f, b=b, time=t, m=m),
            sb.Box(lo, hi))


class TestWorstCaseMargin:
    def test_constant_constraint(self):
        c = AffineInputConstraint(f=np.zeros(0), b=0.7, time=0, m=1)
        assert sb.worst_case_margin(c, sb.Box([-1], [1])) == 0.7

    def test_symmetric_box(self):
        c = AffineInputConstraint(f=[1.0, -2.0], b=0.0, time=2, m=1)
        assert sb.worst_case_margin(c, sb.Box([-1], [1])) == pytest.approx(-3.0)

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
        box = sb.Box([-1], [1])
        bad = AffineInputConstraint(f=np.zeros(0), b=-1.0, time=0, m=1)
        good = AffineInputConstraint(f=np.zeros(0), b=0.0, time=0, m=1)
        assert sb.farkas_feasible(bad, box)[0] is False
        assert sb.farkas_feasible(good, box)[0] is True


@pytest.fixture(params=["output", "state"], ids="{}-stddev".format)
def route_spec(request, safety_model, safety_formula):
    """The safety spec, or G[0,3] of a state predicate (J = 0) from a
    nonzero x0; the ids name the noise margin, sigma * Phi^-1(delta)."""
    if request.param == "output":
        return sb.VerificationSpec(safety_model, safety_formula, 0.05)
    state = sb.Always(sb.Pred("s", sb.LinearPredicate(0.5, (1.0, -0.3))),
                      0, 3)
    return sb.VerificationSpec(safety_model, state, 0.05, x0=[0.3, -0.2])


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
        box = route_spec.model.input_box
        for theta in gen.uniform(-2, 2, size=(25, 2)):
            margins = route_spec.leaf_margins(theta)
            ref = np.array([sb.worst_case_margin(c, box)
                            for c in route_spec.affine_constraints(theta)])
            assert margins == pytest.approx(ref, abs=1e-10)
            expected = int(np.all(ref >= -1e-9))
            assert sb.satisfaction_fn(theta, route_spec) == expected

    def test_farkas_agrees_on_spec_leaves(self, route_spec):
        gen = np.random.default_rng(6)
        box = route_spec.model.input_box
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
        restricted, _ = sb.restrict_region(safety_spec, safety_region, 16)
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
        # At per_axis 64 a second call, whose tolerance is 1% of the smaller
        # restricted span, may shrink the result a little further.
        once, _ = sb.restrict_region(safety_spec, safety_region, 64)
        twice, _ = sb.restrict_region(safety_spec, once, 64)
        span = safety_region.upper - safety_region.lower
        assert np.all(np.abs(once.lower - twice.lower) <= 0.1 * span)
        assert np.all(np.abs(once.upper - twice.upper) <= 0.1 * span)

    def test_empty_flag(self, case_spec):
        # One unknown cell survives the first pass; the second certifies
        # every cell of its hull infeasible.  The first pass's cells return.
        region = sb.Box([-3.5, -3.5], [3.5, 3.5])
        restricted, cells = sb.restrict_region(case_spec, region, 5)
        assert restricted is None
        first = sb.classify_cells(sb.pwa_partition(region, 5), case_spec)
        assert np.array_equal(cells.lower, first.lower)
        assert np.array_equal(cells.upper, first.upper)
        assert _counts(cells) == _counts(first) == (0, 24, 1)

    @pytest.mark.parametrize("per_axis", [2, 5, 16])
    def test_restriction_is_sound(self, per_axis, classify_specs):
        gen = np.random.default_rng(17)
        for name, (spec, region) in classify_specs.items():
            thetas = gen.uniform(region.lower, region.upper,
                                 size=(100_000, region.lower.size))
            sat = spec.satisfaction_batch(thetas).astype(bool)
            restricted, cells = sb.restrict_region(spec, region, per_axis)
            box = region if restricted is None else restricted
            if restricted is None:
                assert not sat.any(), (name, per_axis)
            else:
                inside = np.all((thetas >= box.lower) & (thetas <= box.upper),
                                axis=1)
                assert inside[sat].all(), (name, per_axis)
                again, cells_again = sb.restrict_region(spec, box, per_axis)
                assert np.array_equal(again.lower, box.lower), name
                assert np.array_equal(again.upper, box.upper), name
                assert np.array_equal(cells_again.label, cells.label), name
            # The cells are the labelled partition of the returned box.
            grid = sb.pwa_partition(box, per_axis)
            assert np.array_equal(cells.lower, grid.lower), name
            assert np.array_equal(cells.upper, grid.upper), name
            assert np.array_equal(
                cells.label, sb.classify_cells(grid, spec).label), name


class TestPwaPartition:
    def test_grid_count(self):
        region = sb.Box([-3.5, -3.5], [3.5, 3.5])
        assert len(sb.pwa_partition(region, 5)) == 25

    def test_single_cell(self):
        region = sb.Box([0, 0], [1, 2])
        (cell,) = sb.pwa_partition(region, 1)
        assert np.array_equal(cell.lower, region.lower)
        assert np.array_equal(cell.upper, region.upper)

    def test_exact_cover(self):
        region = sb.Box([-1, 0], [2, 1])
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


CASE_REGION = sb.Box([-3.5, -3.5], [3.5, 3.5])


def _model_with_parameters(safety_model, rows):
    """The safety model with C(theta) = C0 + sum_i theta_i C_i, one
    parameter per row of `rows`."""
    return sb.ParametricLti(
        A=safety_model.A, B=safety_model.B, G=safety_model.G,
        C0=[[0.0, 0.5]], C_basis=tuple([row] for row in rows),
        Sigma_w=safety_model.Sigma_w, Sigma_e=safety_model.Sigma_e,
        input_box=safety_model.input_box)


def _counts(cells):
    labels = [c.label for c in cells]
    return (labels.count(FEASIBLE), labels.count(INFEASIBLE_LABEL),
            labels.count(UNKNOWN))


# Outside an `always` property, specs on the safety model that give all
# three labels: a one-step until event and a disjunction, with nu3/nu4 the
# bands mu3/mu4 widened to offset 0.3.  Both leaf margins are sound, but
# the at-least `Or` split that the "or" spec exercises is not: it requires
# every disjunct at a share of the budget, which is sufficient only for
# disjoint disjuncts (`X | X` admits 93% of theta against X's 20%).  The
# sound disjunction rule of ROADMAP item 1 will re-pin its rows.
THREE_LABEL_FORMULAS = {
    "until": "(mu1 & mu2) U[2,2] (nu3 & nu4)",
    "or": "(mu1 & mu2) | G[0,2] (nu3 & nu4)",
}


@pytest.fixture(scope="module")
def classify_specs(safety_spec, case_spec, safety_region, safety_model):
    """(spec, region) by name: the safety and case specs, the
    `THREE_LABEL_FORMULAS` at delta 0.05 over the safety region, and
    "positive-q", `G[1,1] nu` at delta 0.8, whose one leaf has the noise
    coefficient q = Phi^-1(0.8) > 0."""
    preds = {**case_predicates(), "nu3": sb.OutputPredicate(0.3, (1.0,)),
             "nu4": sb.OutputPredicate(0.3, (-1.0,)),
             "nu": sb.OutputPredicate(0.0, (1.0,))}
    specs = {"safety": (safety_spec, safety_region),
             "case": (case_spec, CASE_REGION)}
    for name, text in THREE_LABEL_FORMULAS.items():
        spec = sb.VerificationSpec(safety_model, sb.parse_stl(text, preds),
                                   0.05)
        specs[name] = (spec, safety_region)
    specs["positive-q"] = (sb.VerificationSpec(
        safety_model, sb.parse_stl("G[1,1] nu", preds), 0.8), safety_region)
    return specs


def _vertices(lower, upper):
    """(C, 2^d, d): the vertices of each box lower[c] <= theta <= upper[c]."""
    upper_bit = np.array(list(itertools.product(
        (False, True), repeat=lower.shape[-1])), dtype=bool)
    return np.where(upper_bit, upper[:, None], lower[:, None])


def _certified_sat(spec, cells, label, per_cell, gen):
    """The satisfaction indicator of shape (cells labelled `label`, per_cell
    + 2^d) at uniform points in each such cell and at its vertices."""
    lower = cells.lower[cells.label == label]
    upper = cells.upper[cells.label == label]
    inner = lower[:, None] + (upper - lower)[:, None] * gen.random(
        (lower.shape[0], per_cell, lower.shape[1]))
    pts = np.concatenate([inner, _vertices(lower, upper)], axis=1)
    return spec.satisfaction_batch(pts.reshape(-1, pts.shape[-1])).reshape(
        pts.shape[:2])


class TestPwaClassify:
    def test_feasible_cells_are_sound(self, classify_specs):
        gen = np.random.default_rng(10)
        for name, (spec, region) in classify_specs.items():
            for per_axis in (16, 64):
                cells = sb.classify_cells(sb.pwa_partition(region, per_axis),
                                          spec)
                sat = _certified_sat(spec, cells, FEASIBLE, 300, gen)
                # The case spec certifies no cell feasible.
                assert (sat.size or name == "case") and sat.all(), \
                    (name, per_axis)

    def test_infeasible_cells_are_sound(self, classify_specs):
        gen = np.random.default_rng(11)
        for name, (spec, region) in classify_specs.items():
            for per_axis in (16, 64):
                cells = sb.classify_cells(sb.pwa_partition(region, per_axis),
                                          spec)
                sat = _certified_sat(spec, cells, INFEASIBLE_LABEL, 100, gen)
                assert sat.size and not sat.any(), (name, per_axis)

    @pytest.mark.parametrize("which", ["safety", "until", "or"])
    def test_vertex_test_is_exact_for_nonpositive_q(self, which,
                                                    classify_specs):
        # With q <= 0 every leaf margin is concave in theta, so a cell is
        # feasible exactly when the satisfaction map admits its vertices.
        spec, region = classify_specs[which]
        assert max(g.noise_coeff for g in spec._geometry) <= 0.0
        for per_axis in (16, 64):
            cells = sb.classify_cells(sb.pwa_partition(region, per_axis),
                                      spec)
            verts = _vertices(cells.lower, cells.upper)
            admitted = spec.satisfaction_batch(
                verts.reshape(-1, verts.shape[-1])).reshape(
                    verts.shape[:2]).all(axis=1)
            assert np.array_equal(cells.label == FEASIBLE, admitted)

    # Label counts (feasible, infeasible, unknown) on fixed partitions under
    # the vertex bounds.  The ids name the spec and its noise margin,
    # sigma * Phi^-1(delta).
    @pytest.mark.parametrize("which, per_axis, counts", [
        pytest.param("safety", 5, (1, 16, 8), id="safety-stddev-5-counts0"),
        pytest.param("safety", 16, (14, 216, 26),
                     id="safety-stddev-16-counts1"),
        pytest.param("safety", 64, (330, 3678, 88),
                     id="safety-stddev-64-counts2"),
        pytest.param("case", 5, (0, 24, 1), id="case-stddev-5-counts3"),
        pytest.param("until", 16, (4, 236, 16), id="until-stddev-16-counts4"),
        pytest.param("or", 16, (12, 224, 20), id="or-stddev-16-counts5"),
        pytest.param("positive-q", 16, (84, 128, 44),
                     id="positive-q-stddev-16-counts6"),
        pytest.param("positive-q", 64, (1616, 2296, 184),
                     id="positive-q-stddev-64-counts7"),
    ])
    def test_pinned_label_counts(self, which, per_axis, counts,
                                 classify_specs):
        spec, region = classify_specs[which]
        cells = sb.classify_cells(sb.pwa_partition(region, per_axis), spec)
        assert _counts(cells) == counts

    @pytest.mark.parametrize("which", ["safety", "case", "until", "or",
                                       "positive-q"], ids="{}-stddev".format)
    def test_single_cell_calls_match_batch(self, which, classify_specs):
        spec, region = classify_specs[which]
        per_axis = 8 if which == "case" else 16
        cells = sb.classify_cells(sb.pwa_partition(region, per_axis), spec)
        assert [sb.pwa_classify(c, spec) for c in cells] == \
            [c.label for c in cells]

    @pytest.mark.parametrize("which", ["safety", "until", "or", "positive-q"],
                             ids="{}-stddev".format)
    def test_permuted_partition_permutes_labels(self, which, classify_specs):
        spec, region = classify_specs[which]
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
        model = _model_with_parameters(safety_model, [[1.0, 0.0]])
        spec = sb.VerificationSpec(model, safety_formula, 0.05)
        cells = sb.classify_cells(
            sb.pwa_partition(sb.Box([-2.0], [2.0]), 32), spec)
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
        # sigma vanishes at theta = 0 (C0 = 0), the center of both cells, so
        # the tangent of sigma there is 0; on the point cell both bounds are
        # the exact margin.
        cells = sb.Cells([[-0.2, -0.2], [0.0, 0.0]], [[0.2, 0.2], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = [c.label for c in sb.classify_cells(cells, safety_spec)]
        assert labels[0] in (FEASIBLE, INFEASIBLE_LABEL, UNKNOWN)
        assert labels[1] == (FEASIBLE if sb.satisfaction_fn([0.0, 0.0],
                                                            safety_spec)
                             else INFEASIBLE_LABEL)

    def test_runtime_per_axis_64(self, safety_spec, safety_region):
        cells = sb.pwa_partition(safety_region, 64)
        start = time.perf_counter()
        sb.classify_cells(cells, safety_spec)
        assert time.perf_counter() - start < 0.5

    def test_exterior_point_cell_not_feasible(self, case_spec):
        # A small cell around a parameter outside the feasible set must not
        # be certified feasible.
        cell = sb.Box([1.9, -1.1], [2.1, -0.9])
        label = sb.pwa_classify(cell, case_spec)
        assert label in (INFEASIBLE_LABEL, UNKNOWN)

    def test_interior_point_cell_feasible(self, safety_spec):
        cell = sb.Box([0.25, 0.25], [0.35, 0.35])
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


# --- satisfaction read from certified cell labels ----------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _bundled_problem(name: str, per_axis=None):
    """The spec, region and classified cells `cmd_verify` builds from a
    bundled config under method both, at its own or the given per_axis."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    if per_axis is not None:
        cfg["pwa"]["per_axis"] = per_axis
    return cli._problem(cfg, "both")


def _assert_same_indicator(spec, thetas, cells):
    plain = spec.satisfaction_batch(thetas)
    read = spec.satisfaction_batch(thetas, cells)
    assert read.dtype == np.uint8 and read.shape == plain.shape
    assert np.array_equal(read, plain)


def _edge_rows(cells, gen, per_edge=8):
    """Rows with one coordinate on a grid edge or one ulp either side and
    the others uniform in the region, plus every vertex of the grid and
    its one-ulp neighbours."""
    lower, upper = cells.lower.min(axis=0), cells.upper.max(axis=0)
    axes = []
    for j in range(lower.size):
        e = np.unique(np.concatenate([cells.lower[:, j], cells.upper[:, j]]))
        axes.append(np.concatenate([e, np.nextafter(e, -np.inf),
                                    np.nextafter(e, np.inf)]))
    rows = [sb.feasibility._mesh(axes)]
    for j, values in enumerate(axes):
        block = gen.uniform(lower, upper, size=(values.size * per_edge,
                                                lower.size))
        block[:, j] = np.repeat(values, per_edge)
        rows.append(block)
    return np.vstack(rows)


def _searched_codes(cells, thetas):
    """Label codes by `np.searchsorted` on the grid edges, for rows of
    `thetas` inside the grid and on no edge; -2 for the other rows."""
    edges, codes = cells._grid
    index, exact = [], np.ones(len(thetas), bool)
    for x, e in zip(thetas.T, edges):
        i = np.searchsorted(e, x, side="right") - 1
        exact &= (i >= 0) & (i < e.size - 1) & ~np.isin(x, e)
        index.append(np.clip(i, 0, e.size - 2))
    return np.where(exact, codes[tuple(index)], -2)


class TestSatisfactionFromCells:
    @pytest.mark.parametrize("name, per_axis", [
        ("case_study.json", None), ("safety_demo.json", None),
        ("safety_demo.json", 64)])
    def test_uniform_and_edge_rows(self, name, per_axis):
        problem = _bundled_problem(name, per_axis)
        spec, region, cells = problem.spec, problem.region, problem.cells
        gen = np.random.default_rng(31)
        uniform = gen.uniform(region.lower, region.upper, size=(30_000, 2))
        edges = _edge_rows(cells, gen)
        _assert_same_indicator(spec, uniform, cells)
        _assert_same_indicator(spec, edges, cells)
        # Every row off the edges, one ulp off included, is located in its
        # own cell.
        for thetas in (uniform, edges):
            searched = _searched_codes(cells, thetas)
            off_edge = searched > -2
            assert np.array_equal(cells.label_codes(thetas)[off_edge],
                                  searched[off_edge])

    @pytest.mark.parametrize("name", ["case_study.json", "safety_demo.json"])
    def test_rows_outside_the_region(self, name):
        problem = _bundled_problem(name)
        region = problem.region
        gen = np.random.default_rng(32)
        span = region.upper - region.lower
        thetas = gen.uniform(region.lower - span, region.upper + span,
                             size=(5_000, 2))
        thetas[:50, 0] = np.nan
        codes = problem.cells.label_codes(thetas)
        outside = ~np.all((thetas >= region.lower) & (thetas <= region.upper),
                          axis=1)
        assert outside.sum() > 3_000 and (codes[outside] == -1).all()
        _assert_same_indicator(problem.spec, thetas, problem.cells)

    def test_non_finite_rows_are_unknown_without_warning(self):
        cells = _bundled_problem("safety_demo.json").cells
        thetas = np.array([[np.nan, 0.3], [0.3, np.inf], [-np.inf, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cells.label_codes(thetas).tolist() == [-1, -1, -1]

    def test_rows_seen_by_the_leaves(self, monkeypatch):
        problem = _bundled_problem("case_study.json")
        thetas = np.random.default_rng(33).uniform(
            problem.region.lower, problem.region.upper, size=(20_000, 2))
        unknown = np.count_nonzero(problem.cells.label_codes(thetas) < 0)
        seen = _rows_seen(monkeypatch, "margins")
        problem.spec.satisfaction_batch(thetas, problem.cells)
        assert seen[0] == unknown < 0.1 * len(thetas)

    @pytest.mark.parametrize("name", ["case_study.json", "safety_demo.json"])
    def test_cells_not_a_tensor_grid_fall_back_to_the_leaves(self, name):
        problem = _bundled_problem(name)
        spec, region, cells = problem.spec, problem.region, problem.cells
        gen = np.random.default_rng(34)
        thetas = np.vstack([gen.uniform(region.lower, region.upper,
                                        size=(5_000, 2)),
                            _edge_rows(cells, gen, per_edge=2)])
        order = gen.permutation(len(cells))
        shuffled = sb.Cells(cells.lower[order], cells.upper[order],
                            cells.label[order])
        # The first cell split in two along its first axis.
        mid = cells.center[0, 0]
        lower = np.vstack([cells.lower, cells.lower[:1]])
        upper = np.vstack([cells.upper, cells.upper[:1]])
        upper[0, 0] = lower[-1, 0] = mid
        split = sb.classify_cells(sb.Cells(lower, upper), spec)
        for other in (shuffled, split):
            assert (other.label_codes(thetas) == -1).all()
            _assert_same_indicator(spec, thetas, other)

    def test_irregular_tensor_grid(self, safety_spec, safety_region):
        # Edges far from evenly spaced: the arithmetic index misses by more
        # than one edge, and those rows go to the leaves.
        t = np.linspace(-1.0, 1.0, 17)
        e = 2.0 * np.sign(t) * t * t
        cells = sb.classify_cells(
            sb.Cells(sb.feasibility._mesh([e[:-1], e[:-1]]),
                     sb.feasibility._mesh([e[1:], e[1:]])), safety_spec)
        assert cells._grid is not None
        gen = np.random.default_rng(35)
        thetas = np.vstack([gen.uniform(safety_region.lower,
                                        safety_region.upper, size=(10_000, 2)),
                            _edge_rows(cells, gen, per_edge=2)])
        codes, searched = cells.label_codes(thetas), _searched_codes(cells,
                                                                     thetas)
        off_edge = searched > -2
        assert ((codes == searched) | (codes == -1))[off_edge].all()
        missed = off_edge & (codes == -1) & (searched >= 0)
        assert missed.any() and (codes >= 0).any()
        _assert_same_indicator(safety_spec, thetas, cells)

    @pytest.mark.parametrize("rows, per_axis", [
        ([[1.0, 0.0]], 32),
        ([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]], 7)])
    def test_one_and_three_parameter_partitions(self, safety_model,
                                                safety_formula, rows,
                                                per_axis):
        d = len(rows)
        spec = sb.VerificationSpec(
            _model_with_parameters(safety_model, rows), safety_formula, 0.05)
        region = sb.Box(np.full(d, -2.0), np.full(d, 2.0))
        cells = sb.classify_cells(sb.pwa_partition(region, per_axis), spec)
        assert {FEASIBLE, INFEASIBLE_LABEL} <= set(cells.label.tolist())
        gen = np.random.default_rng(36)
        thetas = gen.uniform(region.lower, region.upper, size=(20_000, d))
        _assert_same_indicator(spec, thetas, cells)
        _assert_same_indicator(spec, _edge_rows(cells, gen, per_edge=4), cells)
        codes = cells.label_codes(thetas)
        assert {0, 1} <= set(codes.tolist())

    def test_dimension_mismatch_raises(self):
        cells = _bundled_problem("safety_demo.json").cells
        with pytest.raises(ValueError, match="coordinates"):
            cells.label_codes(np.zeros((4, 3)))

    def test_grid_is_derived_once(self):
        cells = _bundled_problem("safety_demo.json").cells
        assert cells._grid is cells._grid
