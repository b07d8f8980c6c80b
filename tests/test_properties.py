"""Structural invariants under generated formulas and trajectories."""

import numpy as np
from hypothesis import given, settings, strategies as st

import stlbayes as sb

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_interval = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
    lambda ab: (min(ab), max(ab)))


def _pred_nodes():
    return st.builds(
        lambda off, g: sb.Pred("p", sb.LinearPredicate(off, g)),
        finite, st.tuples(finite, finite))


formulas = st.recursive(
    st.one_of(st.just(sb.TrueNode()), _pred_nodes()),
    lambda sub: st.one_of(
        sub.map(sb.Not),
        st.builds(sb.And, sub, sub),
        st.builds(sb.Or, sub, sub),
        st.builds(lambda l, r, ab: sb.Until(l, r, ab[0], ab[1]),
                  sub, sub, _interval),
        st.builds(lambda c, ab: sb.Eventually(c, ab[0], ab[1]),
                  sub, _interval),
        st.builds(lambda c, ab: sb.Always(c, ab[0], ab[1]), sub, _interval),
    ),
    max_leaves=8)


def _trajectory_for(f, data):
    length = sb.horizon(f) + 1 + data.draw(st.integers(0, 3))
    flat = data.draw(st.lists(finite, min_size=2 * length,
                              max_size=2 * length))
    return np.asarray(flat).reshape(length, 2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(formulas, st.data())
def test_negation_duality(f, data):
    xi = _trajectory_for(f, data)
    assert sb.robustness(xi, sb.Not(f), 0) == -sb.robustness(xi, f, 0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(formulas, st.data())
def test_positive_robustness_implies_satisfaction(f, data):
    xi = _trajectory_for(f, data)
    rho = sb.robustness(xi, f, 0)
    if rho > 0:
        assert sb.satisfies(xi, f, 0)
    elif rho < 0:
        assert not sb.satisfies(xi, f, 0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(formulas, st.data())
def test_truncation_to_horizon_is_lossless(f, data):
    xi = _trajectory_for(f, data)
    cut = xi[:sb.horizon(f) + 1]
    assert sb.satisfies(xi, f, 0) == sb.satisfies(cut, f, 0)
    assert sb.robustness(xi, f, 0) == sb.robustness(cut, f, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(formulas, st.data())
def test_batch_evaluator_matches_scalar(f, data):
    xi = _trajectory_for(f, data)
    batch = np.stack([xi, xi[::-1].copy()])
    vec = sb.satisfies_batch(batch, f, 0)
    assert vec[0] == sb.satisfies(batch[0], f, 0)
    assert vec[1] == sb.satisfies(batch[1], f, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 7), st.lists(st.floats(0.01, 1.0), min_size=2,
                                   max_size=7),
       st.floats(0.01, 0.9))
def test_budget_conservation_any_weights(n, raw, delta):
    # Violation budgets of a conjunction's leaves sum to the parent budget
    # for every normalized weight vector.
    raw = (raw + [0.5] * n)[:n]
    weights = list(np.asarray(raw) / np.sum(raw))
    f = sb.Pred("p0", sb.LinearPredicate(0.0, (1.0, 0.0)))
    for i in range(1, n):
        f = sb.And(f, sb.Pred(f"p{i}", sb.LinearPredicate(0.0, (1.0, 0.0))))
    res = sb.decompose(f, delta, sb.WeightScheme({"": weights}))
    budgets = [1 - leaf.threshold for leaf in res.all_leaves()]
    assert np.isclose(sum(budgets), delta, rtol=1e-9, atol=1e-12)
