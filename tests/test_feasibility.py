import itertools
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import stlbayes as sb
from stlbayes import cli
from stlbayes.feasibility import (
    FEAS_TOL,
    FEASIBLE,
    INFEASIBLE_LABEL,
    UNKNOWN,
    _input_min,
    _LeafGeometry,
)

from conftest import case_predicates
from oracles import (
    AffineInputConstraint,
    affine_constraints,
    farkas_feasible,
    leaf_margins,
    satisfaction_fn,
    worst_case_margin,
)


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
        assert worst_case_margin(c, sb.Box([-1], [1])) == 0.7

    def test_symmetric_box(self):
        c = AffineInputConstraint(f=[1.0, -2.0], b=0.0, time=2, m=1)
        assert worst_case_margin(c, sb.Box([-1], [1])) == pytest.approx(-3.0)

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
            assert worst_case_margin(c, box) == pytest.approx(best)


class TestFarkas:
    def test_oracle_equivalence(self):
        gen = np.random.default_rng(2)
        for _ in range(400):
            c, box = random_constraint(gen)
            margin = worst_case_margin(c, box)
            ok, cert = farkas_feasible(c, box)
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
            ok, cert = farkas_feasible(c, box)
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
        assert farkas_feasible(bad, box)[0] is False
        assert farkas_feasible(good, box)[0] is True


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
    assert sat.tolist() == [int(np.all(leaf_margins(spec, t) >= -FEAS_TOL))
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
            margins = leaf_margins(route_spec, theta)
            ref = np.array([worst_case_margin(c, box)
                            for c in affine_constraints(route_spec, theta)])
            assert margins == pytest.approx(ref, abs=1e-10)
            expected = int(np.all(ref >= -1e-9))
            assert satisfaction_fn(theta, route_spec) == expected

    def test_farkas_agrees_on_spec_leaves(self, route_spec):
        gen = np.random.default_rng(6)
        box = route_spec.model.input_box
        for theta in gen.uniform(-1.5, 1.5, size=(10, 2)):
            for c in affine_constraints(route_spec, theta):
                margin = worst_case_margin(c, box)
                if abs(margin) > 1e-9:
                    assert farkas_feasible(c, box)[0] == (margin >= 0)

    def test_batch_matches_rowwise_margins(self, route_spec):
        _assert_rowwise_satisfaction(
            route_spec, np.random.default_rng(13).uniform(-2, 2, (500, 2)))

    def test_batch_matches_rowwise_margins_on_until(self, case_spec):
        _assert_rowwise_satisfaction(
            case_spec, np.random.default_rng(14).uniform(-3.5, 3.5, (500, 2)))

    def test_time_terms_once_per_distinct_time(self, case_model,
                                               case_formula, monkeypatch):
        # The until spec has 30 leaves at 5 distinct times.  Leaves at one
        # time share their time terms within a spec, never across specs.
        times = []
        original = sb.feasibility.noise_gram
        monkeypatch.setattr(sb.feasibility, "noise_gram",
                            lambda model, t: times.append(t)
                            or original(model, t))
        spec = sb.VerificationSpec(case_model, case_formula, 0.01)
        assert len(spec.leaves()) == 30
        assert sorted(times) == [0, 1, 2, 3, 4]
        again = sb.VerificationSpec(case_model, case_formula, 0.01)
        assert len(times) == 10
        first = {g.time: g for g in spec._geometry}
        assert all(g.W is first[g.time].W and g.V is first[g.time].V
                   for g in spec._geometry)
        assert all(g.W is not first[g.time].W for g in again._geometry)

    def test_evaluation_order(self, safety_spec, case_spec):
        # One leaf per distinct margin, the first of its twins in
        # decomposition order; the latest time first, ties in decomposition
        # order; the report's per-leaf order is left as it is.  Every leaf
        # has the margin bytes, at random theta, of a kept leaf at or before
        # it, or is a time-0 leaf (x0 = 0) whose margin is the constant
        # offset 0.5, which is left out.
        thetas = np.random.default_rng(20).uniform(-3.0, 3.0, (200, 2))
        for spec, distinct in ((safety_spec, 3), (case_spec, 12)):
            position = {id(g): i for i, g in enumerate(spec._geometry)}
            keys = [(-g.time, position[id(g)]) for g in spec._evaluation]
            assert sorted(keys) == keys and len(keys) == distinct
            kept = {position[id(g)]: g.margins(thetas).tobytes()
                    for g in spec._evaluation}
            for i, g in enumerate(spec._geometry):
                margins = g.margins(thetas)
                assert any(j <= i and m == margins.tobytes()
                           for j, m in kept.items()) or (
                    g.time == 0 and (margins == 0.5).all())
            assert [g.time for g in spec._geometry] == \
                [leaf.time for leaf in spec.leaves()]

    def test_constant_leaves(self, case_model):
        # At time 0 with x0 = 0 a leaf's margin is its offset at every
        # theta: one >= -FEAS_TOL is left out, one below it is kept and
        # rejects every row.  Non-finite rows stay rejected without leaves.
        thetas = np.array([[np.nan, 0.0], [0.0, np.inf], [0.3, -0.2],
                           [-1.0, 1.5]])
        region = sb.Box([-2.0, -2.0], [2.0, 2.0])
        for offset, want, label in ((0.5, [0, 0, 1, 1], FEASIBLE),
                                    (-0.5, [0, 0, 0, 0], INFEASIBLE_LABEL)):
            preds = {"p": sb.OutputPredicate(offset, (1.0,)),
                     "q": sb.OutputPredicate(0.5, (-1.0,))}
            spec = sb.VerificationSpec(case_model,
                                       sb.parse_stl("p & q", preds), 0.01)
            assert all(g.time == 0 for g in spec._geometry)
            assert [g.offset for g in spec._evaluation] == \
                [offset] * (offset < 0)
            cells = sb.classify_cells(sb.pwa_partition(region, 4), spec)
            assert (cells.label == label).all()
            assert np.array_equal(cells.label, _reference_labels(cells, spec))
            for given in (None, cells):
                assert spec.satisfaction_batch(thetas, given).tolist() == want

    @pytest.mark.parametrize("radius", [0.05, 0.1])
    def test_leaves_see_only_rows_still_satisfied(self, radius, case_spec,
                                                  monkeypatch):
        # On [-radius, radius]^2 the until spec's first leaf in evaluation
        # order admits some rows, and the fourth rejects all that the
        # first three admitted.  Each leaf sees the rows that all leaves
        # before it admitted, and no leaf is evaluated once none is left.
        thetas = np.random.default_rng(15).uniform(-radius, radius,
                                                   size=(50, 2))
        passed = np.cumprod([[g.margins(t)[0] >= -FEAS_TOL
                              for g in case_spec._evaluation]
                             for t in thetas], axis=1).sum(axis=0)
        last = int(np.argmin(passed))  # the first leaf that no row survives
        assert passed[last] == 0 and passed[0] > 0
        assert 2 <= last < len(case_spec._evaluation) - 1
        seen = _rows_seen(monkeypatch, "margins")
        sat = case_spec.satisfaction_batch(thetas)
        assert sat.dtype == np.uint8 and not sat.any()
        assert seen == [len(thetas), *passed[:last].tolist()]

    @pytest.mark.parametrize("which, bound", [("safety", 1.3),
                                              ("case", 1.001)])
    def test_rows_evaluated_per_theta(self, which, bound, safety_spec,
                                      case_spec, safety_region, monkeypatch):
        # Evaluating each leaf on the whole batch, until no row is left,
        # takes 8 rows per theta on the safety spec and 13 on the until spec;
        # leaves in decomposition order, each on the rows still satisfied,
        # took 3.78 and 3.04, and every leaf latest time first 1.63 and
        # 1.007.  The latest leaves, run first, reject most, and one leaf
        # per distinct margin takes 1.27 and 1.0008.
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

    @pytest.mark.parametrize("lower, upper, axis", [
        ([0.0, 1.0], [0.0, 2.0], 0), ([-1.0, 0.5, 0.0], [1.0, 0.5, 1.0], 1),
    ], ids=["d=2", "d=3"])
    def test_zero_width_axis_is_rejected(self, lower, upper, axis):
        # Such a region has no grid: its edges on that axis would repeat.
        with pytest.raises(ValueError, match=f"zero width on axis {axis}"):
            sb.pwa_partition(sb.Box(lower, upper), 4)


class TestBoxValidation:
    @pytest.mark.parametrize("make", [
        lambda: sb.Box([0.0, 1.0], [1.0, 0.5]),
        lambda: sb.Box([0.0, 0.0], [1.0, 1.0, 1.0]),
        lambda: sb.Cells([[0.0, 1.0], [1.0, 0.5]]),  # decreasing edges
        lambda: sb.Cells([[0.0, 1.0], [0.0, 0.0, 1.0]]),  # a repeated edge
        lambda: sb.Cells([[0.0, 1.0], [0.5]]),  # a single edge on an axis
        lambda: sb.Cells([]),  # no axes
        lambda: sb.Cells([[0.0, 1.0], [0.0, 1.0]], [UNKNOWN, UNKNOWN]),
    ])
    def test_rejects_bad_bounds(self, make):
        with pytest.raises(ValueError):
            make()

    def test_cells_iterate_as_labelled_boxes(self):
        cells = sb.Cells([[0.0, 1.0, 3.0], [0.0, 2.0]], [FEASIBLE, UNKNOWN])
        assert len(cells) == 2
        boxes = list(cells)
        assert [b.label for b in boxes] == [FEASIBLE, UNKNOWN]
        assert [b.volume for b in boxes] == cells.volume.tolist() == [2.0, 4.0]
        assert np.array_equal(boxes[1].lower, [1.0, 0.0])
        for box, lower, upper, label in zip(boxes, cells.lower, cells.upper,
                                            cells.label.tolist()):
            assert type(box) is sb.Box
            assert (box.lower.tolist(), box.upper.tolist(), box.label) == \
                (lower.tolist(), upper.tolist(), label)


class TestArrayRecordsByIdentity:
    """Records with array fields compare and hash by identity: `==` on
    their arrays has no single truth value."""

    def test_box(self):
        box = sb.Box([0.0, 0.0], [1.0, 1.0])
        twin = sb.Box([0.0, 0.0], [1.0, 1.0])
        assert box == box and box != twin
        assert {box: 1}[box] == 1 and twin not in {box}

    def test_cells(self):
        cells = sb.pwa_partition(sb.Box([0.0, 0.0], [1.0, 1.0]), 2)
        again = sb.pwa_partition(sb.Box([0.0, 0.0], [1.0, 1.0]), 2)
        assert cells == cells and cells != again
        assert len({cells, again, cells}) == 2

    def test_model_and_dataset(self):
        model = sb.laguerre_model(0.4)
        assert model == model and model != sb.laguerre_model(0.4)
        data = sb.DataSet([[0.0]], [[1.0]], [0.0, 0.0])
        assert data == data and hash(data) == hash(data)
        assert data != sb.DataSet([[0.0]], [[1.0]], [0.0, 0.0])


def test_cells_repr_shows_the_edges_and_labels():
    cells = sb.Cells([[0.0, 0.5, 1.0], [-1.0, 1.0]], [FEASIBLE, UNKNOWN])
    text = repr(cells)
    assert text.startswith("Cells(edges=(array([0. , 0.5, 1. ]), "
                           "array([-1.,  1.])), label=array(")
    back = eval(text, {"Cells": sb.Cells, "array": np.array})
    assert [e.tolist() for e in back.edges] == [[0.0, 0.5, 1.0], [-1.0, 1.0]]
    assert back.label.tolist() == [FEASIBLE, UNKNOWN]


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


def _classify_one(cell, spec) -> str:
    """The label of the one cell `cell` (a `Box`), classified alone."""
    return str(sb.classify_cells(sb.pwa_partition(cell, 1), spec).label[0])


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


def _reference_labels(cells, spec, leaves=None):
    """The labels by the bounds' definition, taken with plain products:
    every leaf (or each of `leaves`) in decomposition order on all 2^d
    vertices of every cell, with no active set and no vertex shared between
    cells."""
    verts = _vertices(cells.lower, cells.upper)  # (cell, vertex, d)
    feasible = np.ones(len(cells), bool)
    infeasible = np.zeros(len(cells), bool)
    for g in spec._geometry if leaves is None else leaves:
        tl = g.v0 + verts @ g.J.T  # (cell, vertex, n)
        tl_c = g.v0 + cells.center @ g.J.T
        f = tl @ g.W
        mean = g.offset + tl @ g.a_t
        worst = np.minimum(f * g.lo_stack, f * g.hi_stack).sum(axis=-1)
        sigma = np.sqrt(np.clip(((tl @ g.V) * tl).sum(axis=-1), 0.0, None))
        branch = np.where(tl_c @ g.W >= 0.0, g.lo_stack, g.hi_stack)
        held = (f * branch[:, None]).sum(axis=-1)
        vc = tl_c @ g.V
        sigma_c = np.sqrt(np.clip((tl_c * vc).sum(axis=-1), 0.0, None))
        tangent = np.divide((tl * vc[:, None]).sum(axis=-1), sigma_c[:, None],
                            out=np.zeros(held.shape),
                            where=sigma_c[:, None] > 0.0)
        below, above = ((sigma, tangent) if g.noise_coeff <= 0.0
                        else (tangent, sigma))
        lower = mean + worst + g.noise_coeff * below
        upper = mean + held + g.noise_coeff * above
        feasible &= lower.min(axis=1) >= -FEAS_TOL
        infeasible |= upper.max(axis=1) < -FEAS_TOL
    return np.where(infeasible, INFEASIBLE_LABEL,
                    np.where(feasible, FEASIBLE, UNKNOWN))


class TestPwaClassify:
    @pytest.mark.parametrize("which", ["safety", "case", "until", "or",
                                       "positive-q"], ids="{}-stddev".format)
    def test_labels_match_the_reference(self, which, classify_specs):
        # The evaluation order, the active set and the shared vertices
        # change only the work: the labels are those of the definition.
        spec, region = classify_specs[which]
        for per_axis in (16, 64):
            cells = sb.pwa_partition(region, per_axis)
            assert np.array_equal(sb.classify_cells(cells, spec).label,
                                  _reference_labels(cells, spec))

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
        assert [_classify_one(c, spec) for c in cells] == \
            [c.label for c in cells]

    @pytest.mark.parametrize("window, labels", [
        ("1,2", {INFEASIBLE_LABEL}),
        ("1,1", {FEASIBLE, INFEASIBLE_LABEL, UNKNOWN}),
    ])
    def test_mixed_until_matches_the_every_leaf_references(
            self, window, labels, safety_model, safety_region):
        # An until beside another conjunct: its leaves come first, in path
        # order, and tied leaves are evaluated in that order.  The labels
        # and the satisfaction bits are those of every leaf taken alone.
        f = sb.parse_stl(f"(mu1 U[{window}] mu3) & G[0,1] mu2",
                         case_predicates())
        spec = sb.VerificationSpec(safety_model, f, 0.05)
        steps = [leaf.path[0] for leaf in spec.leaves()]
        assert steps == sorted(steps) and steps[-1] == "c1"
        for per_axis in (4, 16, 64):
            cells = sb.classify_cells(
                sb.pwa_partition(safety_region, per_axis), spec)
            assert np.array_equal(cells.label, _reference_labels(cells, spec))
        assert set(cells.label) == labels
        _assert_rowwise_satisfaction(
            spec, np.random.default_rng(15).uniform(-2, 2, (500, 2)))

    def test_vertex_rows_evaluated(self, safety_spec, safety_region,
                                   monkeypatch):
        # Carrying every cell through every leaf would pass each leaf the
        # 4 vertices of all 4096 cells, 131 072 rows; the 4 vertices of the
        # cells not yet certified infeasible took 63 048.  Each leaf now
        # sees each distinct vertex of those cells once: the first all
        # 65^2 of the grid, the later ones far fewer (7 488 rows over every
        # leaf, 5 624 over one leaf per distinct margin, 5 159 once the
        # constant time-0 margin is left out).
        cells = sb.pwa_partition(safety_region, 64)
        seen = _rows_seen(monkeypatch, "gradients")
        sb.classify_cells(cells, safety_spec)
        assert seen[0] == 65 ** 2 and len(seen) == 3
        assert sum(seen) <= 1.35 * 65 ** 2

    @pytest.mark.parametrize("make", [
        lambda: sb.pwa_partition(sb.Box([-1.0], [2.5]), 5),
        lambda: sb.pwa_partition(sb.Box([-1.0, -0.5], [1.0, 2.5]), 1),
        lambda: sb.pwa_partition(sb.Box([-1.0, -0.5], [1.0, 2.5]), 2),
        lambda: sb.pwa_partition(sb.Box([-1.0, -0.5], [1.0, 2.5]), 7),
        lambda: sb.pwa_partition(sb.Box([-2.0, -2.0], [2.0, 2.0]), 64),
        lambda: sb.pwa_partition(sb.Box([-1.0] * 3, [1.0] * 3), 8),
        lambda: sb.Cells([[-1.0, -0.9, 0.5, 2.0], [0.0, 3.0, 3.5],
                          [1e-3, 1.0]]),
    ], ids=["d=1", "d=2-1", "d=2-2", "d=2-7", "d=2-64", "chain3", "irregular"])
    def test_grid_vertices(self, make):
        cells = make()
        points, vertex = sb.feasibility._grid_vertices(cells.edges)
        assert np.array_equal(points[vertex.T],  # vertex-major
                              _vertices(cells.lower, cells.upper))
        assert len(np.unique(points, axis=0)) == len(points) == \
            np.prod([e.size for e in cells.edges])

    @pytest.mark.parametrize("lower, upper, per_axis", [
        ([-2.0, -1.0], [2.0, 3.0], 16), ([0.5], [0.75], 3),
        ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 8),
    ], ids=["d=2", "d=1", "d=3"])
    def test_partition_hands_over_its_grid(self, lower, upper, per_axis,
                                           safety_spec, chain3):
        # The labelled copy shares the partition's edge and bound arrays, and
        # its codes in grid shape come from its labels.
        grid = sb.pwa_partition(sb.Box(lower, upper), per_axis)
        partitions = [grid]
        spec = {2: safety_spec, 3: chain3[0]}.get(len(lower))
        if spec is not None:
            cells = sb.classify_cells(grid, spec)
            assert cells.edges is grid.edges
            assert cells.lower is grid.lower and cells.upper is grid.upper
            partitions.append(cells)
        for cells in partitions:
            codes = np.select([cells.label == FEASIBLE,
                               cells.label == INFEASIBLE_LABEL], [1, 0], -1)
            assert cells._codes.shape == (per_axis,) * len(lower)
            assert np.array_equal(cells._codes.reshape(-1), codes)

    def test_classifying_a_partition_sorts_nothing(self, safety_spec,
                                                   safety_region, monkeypatch):
        calls, unique = [], np.unique

        def counted(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        grid = sb.pwa_partition(safety_region, 64)
        cells = sb.classify_cells(grid, safety_spec)
        cells.label_codes(grid.center)
        assert calls == []

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
        # sigma vanishes at theta = 0 (C0 = 0), the center of the cell, so
        # the tangent of sigma there is 0.
        cells = sb.pwa_partition(sb.Box([-0.2, -0.2], [0.2, 0.2]), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = sb.classify_cells(cells, safety_spec).label
        assert np.array_equal(labels, _reference_labels(cells, safety_spec))

    def test_runtime_per_axis_64(self, safety_spec, safety_region):
        cells = sb.pwa_partition(safety_region, 64)
        start = time.perf_counter()
        sb.classify_cells(cells, safety_spec)
        assert time.perf_counter() - start < 0.5

    def test_exterior_point_cell_not_feasible(self, case_spec):
        # A small cell around a parameter outside the feasible set must not
        # be certified feasible.
        cell = sb.Box([1.9, -1.1], [2.1, -0.9])
        label = _classify_one(cell, case_spec)
        assert label in (INFEASIBLE_LABEL, UNKNOWN)

    def test_interior_point_cell_feasible(self, safety_spec):
        cell = sb.Box([0.25, 0.25], [0.35, 0.35])
        assert _classify_one(cell, safety_spec) == FEASIBLE

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


# --- three parameters --------------------------------------------------------

def _laguerre_chain(order: int, a: float = 0.4):
    """The order-`order` Laguerre chain: A lower-triangular with a on the
    diagonal and (1 - a^2)(-a)^(i-j-1) below it, B_i = sqrt(1 - a^2)(-a)^i,
    one parameter per state (the unit rows as C_basis), Sigma_w = 0.02 I,
    Sigma_e = 0.5 and the input box [-0.2, 0.2]."""
    A = np.diag(np.full(order, a))
    for i, j in itertools.combinations(range(order), 2):
        A[j, i] = (1.0 - a * a) * (-a) ** (j - i - 1)
    return sb.ParametricLti(
        A=A, B=np.sqrt(1.0 - a * a) * (-a) ** np.arange(order)[:, None],
        G=np.eye(order), C0=np.zeros((1, order)),
        C_basis=tuple(np.eye(order)[[i]] for i in range(order)),
        Sigma_w=0.02 * np.eye(order), Sigma_e=[[0.5]],
        input_box=sb.Box([-0.2], [0.2]))


@pytest.fixture(scope="module")
def chain3(safety_formula):
    """The safety property on the order-3 chain and its classified cells,
    8 per axis on [-1, 1]^3, where all three labels occur."""
    spec = sb.VerificationSpec(_laguerre_chain(3), safety_formula, 0.05)
    region = sb.Box(np.full(3, -1.0), np.full(3, 1.0))
    return spec, sb.classify_cells(sb.pwa_partition(region, 8), spec)


class TestThreeParameters:
    def test_order_two_chain_is_the_safety_model(self, safety_model):
        chain = _laguerre_chain(2)
        for name in ("A", "B", "G", "C0", "Sigma_w", "Sigma_e"):
            assert np.allclose(getattr(chain, name),
                               getattr(safety_model, name)), name

    def test_pinned_label_counts(self, chain3):
        assert _counts(chain3[1]) == (30, 328, 154)

    def test_feasible_exactly_when_all_vertices_admitted(self, chain3):
        # q <= 0 on every leaf: the vertex test is exact.
        spec, cells = chain3
        assert max(g.noise_coeff for g in spec._geometry) <= 0.0
        verts = _vertices(cells.lower, cells.upper)
        assert verts.shape[1] == 8
        admitted = spec.satisfaction_batch(
            verts.reshape(-1, 3)).reshape(verts.shape[:2]).all(axis=1)
        assert np.array_equal(cells.label == FEASIBLE, admitted)

    def test_infeasible_cells_are_sound(self, chain3):
        spec, cells = chain3
        sat = _certified_sat(spec, cells, INFEASIBLE_LABEL, 60,
                             np.random.default_rng(18))
        assert sat.size and not sat.any()

    def test_labels_match_the_reference(self, chain3):
        spec, cells = chain3
        assert np.array_equal(cells.label, _reference_labels(cells, spec))

    def test_single_cell_calls_match_batch(self, chain3):
        spec, cells = chain3
        assert [_classify_one(c, spec) for c in cells] == \
            [c.label for c in cells]


# --- one pass per distinct leaf margin ----------------------------------------

def _every_leaf_sat(spec, thetas):
    """The satisfaction indicator with every leaf on every row."""
    return np.all([g.margins(thetas) >= -FEAS_TOL for g in spec._geometry],
                  axis=0).astype(np.uint8)


def _assert_every_leaf_agrees(spec, cells, gen):
    """Labels and satisfaction bits (at the vertices, the centers and
    uniform rows) equal the every-leaf references."""
    assert np.array_equal(sb.classify_cells(cells, spec).label,
                          _reference_labels(cells, spec))
    d = cells.lower.shape[1]
    thetas = np.vstack([_vertices(cells.lower, cells.upper).reshape(-1, d),
                        cells.center,
                        gen.uniform(cells.lower.min(axis=0),
                                    cells.upper.max(axis=0), (200, d))])
    assert np.array_equal(spec.satisfaction_batch(thetas),
                          _every_leaf_sat(spec, thetas))


def _tie_spec():
    """The safety property on a model whose held input branch ties off
    tilde = 0: with A diagonal and B = e1 the center's slope W' tilde_c is
    a multiple of tilde_1 = -+theta_1, while C(theta) = (theta_1, theta_1 +
    theta_2) keeps tilde_2 nonzero; and a cell whose center has theta_1 = 0
    that only the mirror twin of a leaf certifies infeasible."""
    model = sb.ParametricLti(
        A=np.diag([0.5, 0.8]), B=[[1.0], [0.0]], G=np.eye(2),
        C0=[[0.0, 0.0]], C_basis=([[1.0, 1.0]], [[0.0, 1.0]]),
        Sigma_w=0.02 * np.eye(2), Sigma_e=[[0.1]],
        input_box=sb.Box([-0.5], [0.5]))
    preds = {"mu1": sb.OutputPredicate(0.2, (-1.0,)),
             "mu2": sb.OutputPredicate(0.2, (1.0,))}
    return sb.VerificationSpec(
        model, sb.parse_stl("G[0,3] (mu1 & mu2)", preds), 0.3)


def _every_distinct_margin(spec):
    """`_distinct_margins` over every leaf of `spec` in evaluation order,
    the constant margins included."""
    order = sorted(spec._geometry, key=lambda g: -g.time)
    at_time = {t: sb.feasibility._time_terms(spec.model, spec.x0, t)
               for t in {g.time for g in order}}
    return sb.feasibility._distinct_margins(order, at_time)


class TestDistinctMargins:
    @pytest.mark.parametrize("name, distinct, every", [
        ("safety_demo.json", 4, 8), ("case_study.json", 15, 30)])
    def test_bundled_specs(self, name, distinct, every):
        # x0 = 0 and an input box symmetric about 0: each band's two
        # half-space leaves are mirror twins.  The time-0 margins are the
        # constant 0.5 and left out of the evaluation order.
        spec = _bundled_problem(name).spec
        assert len(spec._geometry) == len(spec.leaves()) == every
        kept, mirrored = _every_distinct_margin(spec)
        assert len(kept) == distinct and all(mirrored)
        assert spec._evaluation == [g for g in kept if g.time > 0]
        assert all(spec._mirrored)

    @pytest.mark.parametrize("change, distinct", [
        ("x0", 8), ("asymmetric-box", 7), ("offset", 8), ("q", 8)])
    def test_no_twins_without_equal_margins(self, change, distinct,
                                            safety_model):
        # A nonzero x0 or an asymmetric input box breaks the mirror, except
        # at time 0, where x0 = 0 and there is no input term; unequal
        # offsets or budgets (q) break any twin.  There, with x0 = 0, the
        # margins are the constant offsets, left out of the evaluation
        # order.
        preds, model, kw = case_predicates(), safety_model, {}
        if change == "x0":
            kw["x0"] = [0.1, 0.0]
        elif change == "asymmetric-box":
            model = model.with_overrides(input_box=sb.Box([-0.5], [0.7]))
        elif change == "offset":
            preds["mu2"] = sb.OutputPredicate(0.6, (-1.0,))
        else:
            kw["weights"] = sb.WeightScheme({"": [0.2, 0.05] * 4})
        spec = sb.VerificationSpec(
            model, sb.parse_stl("G[0,3] (mu1 & mu2)", preds), 0.05, **kw)
        kept, mirrored = _every_distinct_margin(spec)
        assert len(kept) == distinct
        # The merged time-0 pair, last in evaluation order, are mirrors.
        assert mirrored == \
            [False] * (distinct - 1) + [change == "asymmetric-box"]
        assert spec._evaluation == [g for g in kept
                                    if g.time > 0 or change == "x0"]
        assert spec._mirrored == mirrored[:len(spec._evaluation)]

    def test_equal_twins(self, safety_model):
        # The same leaf twice at times 1 and 2, from a nonzero x0: twins
        # with equal (v0, J), none a mirror.
        spec = sb.VerificationSpec(
            safety_model, sb.parse_stl("G[0,2] mu1 & G[1,3] mu1",
                                       case_predicates()),
            0.05, x0=[0.1, 0.0])
        assert [g.time for g in spec._evaluation] == [3, 2, 1, 0]
        assert spec._mirrored == [False] * 4

    @pytest.mark.parametrize("name", ["safety_demo.json", "case_study.json"])
    def test_bundled_specs_agree_with_every_leaf(self, name):
        # Odd per_axis puts a cell center at theta = 0, where every
        # slope ties; 64 is the grid of the prior-grid64 workload.
        problem = _bundled_problem(name)
        gen = np.random.default_rng(21)
        for per_axis in [*range(1, 18), 64]:
            _assert_every_leaf_agrees(
                problem.spec, sb.pwa_partition(problem.region, per_axis), gen)

    def test_chain3_agrees_with_every_leaf(self, chain3):
        # 32 per axis, not 64: the every-leaf reference holds each of the
        # 64^3 cells' 8 vertices in several arrays at once.
        spec, cells = chain3
        assert len(spec._evaluation) == 3  # times 3, 2, 1: time 0 constant
        region = sb.Box(cells.lower.min(axis=0), cells.upper.max(axis=0))
        gen = np.random.default_rng(22)
        for per_axis in [*range(1, 18), 32]:
            _assert_every_leaf_agrees(spec, sb.pwa_partition(region, per_axis),
                                      gen)

    def test_partial_branch_tie(self):
        spec = _tie_spec()
        assert len(spec._evaluation) == 3 and all(spec._mirrored)
        cells = sb.pwa_partition(sb.Box([-1.0, -1.0], [1.0, 1.5]), 11)
        on_tie = cells.center[:, 0] == 0.0
        assert on_tie.sum() == 11
        _assert_every_leaf_agrees(spec, cells, np.random.default_rng(23))
        labels = sb.classify_cells(cells, spec).label
        assert len(set(labels)) == 3
        # The twins' held branches differ on the tie cells, and a twin
        # certifies a cell that its kept leaf alone does not.
        alone = _reference_labels(cells, spec, spec._evaluation)
        assert (labels != alone).any() and (on_tie | (labels == alone)).all()


# --- satisfaction read from certified cell labels ----------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("k", range(10))
def test_input_min_bits_match_the_numpy_sum(k):
    """Column adds below 8 columns give the bits of `.sum(axis=-1)`, a
    negative zero and widely spread magnitudes included."""
    gen = np.random.default_rng(60 + k)
    for shape in [(20_000, k), (4, 300, k)]:
        f = gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 9, shape)
        f[:50] = -0.0
        lo = -gen.uniform(0.0, 2.0, k)
        hi = gen.uniform(0.0, 2.0, k)
        lo[: k // 3] = 0.0
        got = _input_min(f, lo, hi)
        want = np.minimum(f * lo, f * hi).sum(axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    index, exact = [], np.ones(len(thetas), bool)
    for x, e in zip(thetas.T, cells.edges):
        i = np.searchsorted(e, x, side="right") - 1
        exact &= (i >= 0) & (i < e.size - 1) & ~np.isin(x, e)
        index.append(np.clip(i, 0, e.size - 2))
    return np.where(exact, cells._codes[tuple(index)], -2)


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

    def test_irregular_tensor_grid(self, safety_spec, safety_region):
        # Edges far from evenly spaced: the arithmetic index misses by more
        # than one edge, and those rows go to the leaves.
        t = np.linspace(-1.0, 1.0, 17)
        e = 2.0 * np.sign(t) * t * t
        cells = sb.classify_cells(sb.Cells([e, e]), safety_spec)
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
        assert cells._codes is cells._codes


def _face_rows(lower, upper, gen, per_value=16):
    """Rows with one coordinate on a face of the box [lower, upper] or one
    ulp either side, the others uniform over the box widened by half its
    span, so that some lie outside it."""
    span = upper - lower
    rows = []
    for j in range(lower.size):
        faces = np.array([lower[j], upper[j]])
        values = np.concatenate([faces, np.nextafter(faces, -np.inf),
                                 np.nextafter(faces, np.inf)])
        block = gen.uniform(lower - 0.5 * span, upper + 0.5 * span,
                            size=(values.size * per_value, lower.size))
        block[:, j] = np.repeat(values, per_value)
        rows.append(block)
    return np.vstack(rows)


def _located(monkeypatch) -> list:
    """Patch `Cells._locate` to record the rows (N, d) of each call."""
    seen, original = [], sb.Cells._locate

    def recording(cells, columns):
        seen.append(columns.T.copy())
        return original(cells, columns)

    monkeypatch.setattr(sb.Cells, "_locate", recording)
    return seen


class TestHullOfUndecidedCells:
    """`label_codes` locates only the rows inside the hull of the cells not
    certified infeasible, or outside the grid; every code is the one the
    locator alone gives."""

    @staticmethod
    def _grid(labels):
        edges = [np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 3.0, 6)]
        return sb.Cells(edges, np.asarray(labels).reshape(-1))

    def _assert_codes_of_the_locator(self, cells, thetas):
        assert np.array_equal(cells.label_codes(thetas),
                              cells._locate(thetas.T))

    def test_hull_bounds(self):
        cells = _bundled_problem("case_study.json").cells
        kept = cells.label != INFEASIBLE_LABEL
        lo, hi = cells._hull
        assert np.array_equal(lo, cells.lower[kept].min(axis=0))
        assert np.array_equal(hi, cells.upper[kept].max(axis=0))
        assert cells._hull is cells._hull

    def test_empty_hull(self, monkeypatch):
        cells = self._grid(np.full((6, 5), INFEASIBLE_LABEL))
        assert np.isposinf(cells._hull[0]).all()
        assert np.isneginf(cells._hull[1]).all()
        gen = np.random.default_rng(50)
        grid_lo, grid_hi = cells.lower.min(axis=0), cells.upper.max(axis=0)
        thetas = np.vstack([_face_rows(grid_lo, grid_hi, gen),
                            _edge_rows(cells, gen, per_edge=2)])
        thetas[:5, 1] = np.nan
        inside = np.all((thetas >= grid_lo) & (thetas <= grid_hi), axis=1)
        assert inside.any() and not inside.all()
        seen = _located(monkeypatch)
        codes = cells.label_codes(thetas)
        assert (codes[inside] == 0).all() and (codes[~inside] == -1).all()
        assert len(seen) == 1 and len(seen[0]) == np.count_nonzero(~inside)
        self._assert_codes_of_the_locator(cells, thetas)

    def test_full_hull(self, monkeypatch):
        labels = np.resize([FEASIBLE, UNKNOWN, FEASIBLE], 30).reshape(6, 5)
        cells = self._grid(labels)
        grid_lo, grid_hi = cells.lower.min(axis=0), cells.upper.max(axis=0)
        assert np.array_equal(cells._hull[0], grid_lo)
        assert np.array_equal(cells._hull[1], grid_hi)
        gen = np.random.default_rng(51)
        thetas = np.vstack([_face_rows(grid_lo, grid_hi, gen),
                            _edge_rows(cells, gen, per_edge=2)])
        seen = _located(monkeypatch)
        self._assert_codes_of_the_locator(cells, thetas)
        assert len(seen[0]) == len(thetas)

    def test_rows_on_the_hull_faces_and_one_ulp_outside(self):
        labels = np.full((6, 5), INFEASIBLE_LABEL)
        labels[2:4, 1:4] = [[FEASIBLE, UNKNOWN, FEASIBLE],
                            [UNKNOWN, FEASIBLE, UNKNOWN]]
        cells = self._grid(labels)
        lo, hi = cells._hull
        assert lo.tolist() == [cells.edges[0][2], cells.edges[1][1]]
        assert hi.tolist() == [cells.edges[0][4], cells.edges[1][4]]
        gen = np.random.default_rng(52)
        thetas = np.vstack([_face_rows(lo, hi, gen),
                            _edge_rows(cells, gen, per_edge=2)])
        self._assert_codes_of_the_locator(cells, thetas)
        # One ulp outside a face, inside the grid: only infeasible cells.
        grid_lo, grid_hi = cells.lower.min(axis=0), cells.upper.max(axis=0)
        outside = (np.any((thetas < lo) | (thetas > hi), axis=1)
                   & np.all((thetas >= grid_lo) & (thetas <= grid_hi), axis=1))
        assert outside.any()
        assert (cells.label_codes(thetas)[outside] == 0).all()
        # On a face, a row lies in a cell of the hull and is located.
        on_face = np.any(thetas == lo, axis=1) & np.all(
            (thetas >= lo) & (thetas <= hi), axis=1)
        assert on_face.any() and (cells.label_codes(thetas)[on_face]
                                  != 0).any()

    @pytest.mark.parametrize("name, per_axis", [
        ("case_study.json", None), ("safety_demo.json", None),
        ("safety_demo.json", 64)])
    def test_bundled_partitions(self, name, per_axis):
        cells = _bundled_problem(name, per_axis).cells
        gen = np.random.default_rng(53)
        grid_lo, grid_hi = cells.lower.min(axis=0), cells.upper.max(axis=0)
        thetas = np.vstack([_face_rows(*cells._hull, gen),
                            _face_rows(grid_lo, grid_hi, gen),
                            _edge_rows(cells, gen, per_edge=2)])
        self._assert_codes_of_the_locator(cells, thetas)

    def test_locator_sees_hull_and_off_grid_rows_only(self, monkeypatch):
        problem = _bundled_problem("case_study.json")
        cells, region = problem.cells, problem.region
        span = region.upper - region.lower
        gen = np.random.default_rng(54)
        thetas = np.vstack([
            region.uniform(gen, 20_000),
            gen.uniform(region.lower - span, region.upper + span, (500, 2))])
        lo, hi = cells._hull
        in_hull = np.all((thetas >= lo) & (thetas <= hi), axis=1)
        off_grid = ~np.all((thetas >= cells.lower.min(axis=0))
                           & (thetas <= cells.upper.max(axis=0)), axis=1)
        seen = _located(monkeypatch)
        cells.label_codes(thetas)
        assert len(seen) == 1
        assert np.array_equal(seen[0], thetas[in_hull | off_grid])
        assert in_hull.sum() < 0.1 * len(thetas)
