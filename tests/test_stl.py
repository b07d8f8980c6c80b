import math

import numpy as np
import pytest

import stlbayes as sb
from stlbayes.stl import TRUE, StlSyntaxError, _children, _rebuild

from conftest import case_predicates, random_formula
from oracles import robustness, scalar_satisfies


P1 = sb.LinearPredicate(-0.5, (1.0,))


class TestParser:
    def test_true(self):
        assert sb.parse_stl("T", {}) == TRUE

    def test_case_study_shape(self):
        f = sb.parse_stl("(mu1 & mu2) U[2,4] (mu3 & mu4)", case_predicates())
        assert isinstance(f, sb.Until)
        assert (f.a, f.b) == (2, 4)
        assert isinstance(f.left, sb.And) and isinstance(f.right, sb.And)
        assert f.left.left.name == "mu1" and f.right.right.name == "mu4"

    def test_missing_bracket_position(self):
        with pytest.raises(StlSyntaxError) as exc:
            sb.parse_stl("G[0,3 mu1", case_predicates())
        assert exc.value.position == 6

    def test_unknown_predicate(self):
        with pytest.raises(StlSyntaxError, match="unknown predicate"):
            sb.parse_stl("nope", case_predicates())

    def test_interval_inverted(self):
        with pytest.raises(StlSyntaxError, match="a > b"):
            sb.parse_stl("F[3,1] mu1", case_predicates())

    def test_non_integer_bound(self):
        with pytest.raises(StlSyntaxError):
            sb.parse_stl("F[0.5,1] mu1", case_predicates())

    def test_trailing_input(self):
        with pytest.raises(StlSyntaxError, match="trailing"):
            sb.parse_stl("mu1)", case_predicates())

    @pytest.mark.parametrize("word", ["T", "F", "G", "U"])
    def test_table_naming_a_grammar_word_raises(self, word):
        # Unchecked, the table's T would be shadowed by true, and F, G and U
        # would parse as predicates where no interval follows them.
        table = {**case_predicates(), word: P1}
        with pytest.raises(sb.StlError, match=f"{word!r} is a word"):
            sb.parse_stl(f"G[0,3] (mu1 & {word})", table)

    def test_nested_connectives(self):
        f = sb.parse_stl("!(mu1 | (mu2 & mu3))", case_predicates())
        assert isinstance(f, sb.Not) and isinstance(f.child, sb.Or)

    def test_roundtrip_through_str(self):
        gen = np.random.default_rng(99)
        for _ in range(50):
            f = random_formula(gen, depth=3)
            table = {}

            def collect(node):
                if isinstance(node, sb.Pred):
                    table[node.name] = node.predicate
                for attr in ("child", "left", "right"):
                    sub = getattr(node, attr, None)
                    if sub is not None:
                        collect(sub)

            collect(f)
            assert sb.parse_stl(str(f), table) == f


class TestHorizon:
    def test_predicate(self):
        assert sb.horizon(sb.Pred("p", P1)) == 0

    def test_case_study(self):
        f = sb.parse_stl("(mu1 & mu2) U[2,4] (mu3 & mu4)", case_predicates())
        assert sb.horizon(f) == 4

    def test_nested_until_inside_always(self):
        f = sb.parse_stl("G[0,2] (mu1 U[1,3] mu2)", case_predicates())
        assert sb.horizon(f) == 5

    def test_minimal_prefix(self):
        # Truncating to t + horizon + 1 states never changes the verdict,
        # and one fewer state is rejected.
        gen = np.random.default_rng(5)
        for _ in range(200):
            f = random_formula(gen, depth=3)
            h = sb.horizon(f)
            xi = gen.normal(size=(h + 4, 2))
            assert sb.satisfies(xi, f, 0) == sb.satisfies(xi[:h + 1], f, 0)
            assert robustness(xi, f, 0) == robustness(xi[:h + 1], f, 0)
            if h + 1 > 1:
                with pytest.raises(sb.StlError, match="too short"):
                    sb.satisfies(xi[:h], f, 0)


class TestSatisfies:
    def test_true(self):
        assert sb.satisfies(np.zeros((1, 2)), TRUE, 0)

    def test_affine_sign(self):
        assert sb.satisfies(np.array([[0.7]]), sb.Pred("p", P1), 0)
        assert not sb.satisfies(np.array([[0.3]]), sb.Pred("p", P1), 0)

    def test_too_short(self):
        f = sb.Eventually(sb.Pred("p", P1), 0, 3)
        with pytest.raises(sb.StlError, match="too short"):
            sb.satisfies(np.zeros((3, 1)), f, 0)

    def test_state_width_must_match_the_gradient(self):
        f = sb.Always(sb.Pred("p", sb.LinearPredicate(0.0, (1.0, 2.0))), 0, 1)
        for width in (1, 3):
            match = f"length 2 but the states have {width} entries"
            with pytest.raises(sb.StlError, match=match):
                sb.satisfies(np.zeros((2, width)), f, 0)
            with pytest.raises(sb.StlError, match=match):
                sb.satisfies_batch(np.zeros((4, 2, width)), f, 0)

    def test_until_requires_left_at_witness(self):
        # left fails exactly at the witness time: closed-interval semantics
        # rejects the witness.
        right = sb.Pred("r", sb.LinearPredicate(0.0, (0.0, 1.0)))
        f = sb.Until(sb.Pred("l", sb.LinearPredicate(0.0, (1.0, 0.0))),
                     right, 1, 1)
        xi = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert not sb.satisfies(xi, f, 0)
        assert robustness(xi, f, 0) < 0


class TestRobustness:
    def test_true_is_infinite(self):
        assert robustness(np.zeros((1, 1)), TRUE, 0) == math.inf

    def test_negation_flips(self):
        xi = np.array([[0.8]])
        node = sb.Pred("p", P1)
        assert robustness(xi, sb.Not(node), 0) == -robustness(xi, node, 0)

    def test_until_brute_force(self):
        # Exhaustive enumeration of the min/max tree, independent recursion.
        def brute(xi, f, t):
            vals = []
            for i in range(f.a, f.b + 1):
                prefix = [robustness(xi, f.left, t + j) for j in range(i + 1)]
                vals.append(min([robustness(xi, f.right, t + i)] + prefix))
            return max(vals)

        gen = np.random.default_rng(17)
        preds = [sb.Pred(f"p{i}", sb.LinearPredicate(gen.normal(),
                                                     tuple(gen.normal(size=2))))
                 for i in range(3)]
        for _ in range(200):
            f = sb.Until(preds[int(gen.integers(3))], preds[int(gen.integers(3))],
                         0, 2)
            xi = gen.normal(size=(3, 2))
            assert robustness(xi, f, 0) == pytest.approx(brute(xi, f, 0))

    def test_negation_duality_random(self):
        gen = np.random.default_rng(23)
        for _ in range(300):
            f = random_formula(gen, depth=3)
            xi = gen.normal(size=(sb.horizon(f) + 2, 2))
            assert robustness(xi, sb.Not(f), 0) == -robustness(xi, f, 0)


class TestSoundness:
    def test_sign_agreement(self):
        # Nonzero robustness must match the Boolean verdict.
        gen = np.random.default_rng(31)
        checked = 0
        for _ in range(1200):
            f = random_formula(gen, depth=4)
            length = max(sb.horizon(f) + 1, int(gen.integers(1, 13)))
            xi = gen.normal(size=(length, 2))
            rho = robustness(xi, f, 0)
            if rho == 0.0:
                continue
            checked += 1
            assert (rho > 0) == scalar_satisfies(xi, f, 0)
        assert checked >= 1000

    def test_desugaring_coherence(self):
        gen = np.random.default_rng(41)
        for _ in range(200):
            child = random_formula(gen, depth=2)
            a = int(gen.integers(0, 3))
            b = a + int(gen.integers(0, 3))
            ev = sb.Eventually(child, a, b)
            until = sb.Until(TRUE, child, a, b)
            aw = sb.Always(child, a, b)
            dual = sb.Not(sb.Eventually(sb.Not(child), a, b))
            xi = gen.normal(size=(sb.horizon(ev) + 2, 2))
            assert sb.satisfies(xi, ev, 0) == sb.satisfies(xi, until, 0)
            assert robustness(xi, ev, 0) == robustness(xi, until, 0)
            assert sb.satisfies(xi, aw, 0) == sb.satisfies(xi, dual, 0)
            assert robustness(xi, aw, 0) == robustness(xi, dual, 0)


class TestBatchEvaluator:
    def test_matches_scalar(self):
        gen = np.random.default_rng(53)
        for _ in range(40):
            f = random_formula(gen, depth=3)
            batch = gen.normal(size=(25, sb.horizon(f) + 2, 2))
            vec = sb.satisfies_batch(batch, f, 0)
            ref = np.array([scalar_satisfies(x, f, 0) for x in batch])
            assert np.array_equal(vec, ref)


class TestNnfAndBinding:
    def test_nnf_pushes_negations(self):
        f = sb.parse_stl("!(mu1 & mu2)", case_predicates())
        g = sb.to_nnf(f)
        assert isinstance(g, sb.Or)
        assert isinstance(g.left, sb.Not) and isinstance(g.left.child, sb.Pred)

    def test_nnf_temporal_duality(self):
        f = sb.parse_stl("!G[0,2] mu1", case_predicates())
        g = sb.to_nnf(f)
        assert isinstance(g, sb.Eventually)

    def test_negated_until_rejected(self):
        f = sb.parse_stl("!(mu1 U[0,2] mu2)", case_predicates())
        with pytest.raises(sb.StlError, match="negated until"):
            sb.to_nnf(f)

    def test_nnf_preserves_semantics(self):
        gen = np.random.default_rng(61)
        done = 0
        while done < 100:
            f = random_formula(gen, depth=3)
            try:
                g = sb.to_nnf(sb.Not(f))
            except sb.StlError:
                continue
            done += 1
            xi = gen.normal(size=(max(sb.horizon(f), sb.horizon(g)) + 1, 2))
            assert sb.satisfies(xi, g, 0) == (not sb.satisfies(xi, f, 0))

    def test_output_predicate_needs_binding(self):
        f = sb.parse_stl("mu1", case_predicates())
        with pytest.raises(sb.StlError, match="bind"):
            sb.satisfies(np.zeros((1, 2)), f, 0)

    def test_bind_formula(self):
        model = sb.laguerre_model(0.4)
        f = sb.parse_stl("G[0,1] (mu1 & mu2)", case_predicates())
        bound = sb.bind_formula(f, model.c_matrix([2.0, 0.0]))
        # y = 2 x1; state [0.3, 9.9] gives y = 0.6, inside [-0.5, 0.5] fails
        assert not sb.satisfies(np.array([[0.3, 9.9]] * 2), bound, 0)
        assert sb.satisfies(np.array([[0.1, 9.9]] * 2), bound, 0)


class _Foreign:
    """A node type outside the formula tree."""


@pytest.mark.parametrize("formula", [
    _Foreign(), sb.And(sb.Pred("p", P1), _Foreign()), sb.Not(_Foreign())],
    ids=["bare", "under-and", "under-not"])
@pytest.mark.parametrize("call", [
    sb.horizon, sb.to_nnf, lambda f: sb.bind_formula(f, np.eye(1)),
    lambda f: robustness(np.zeros((3, 1)), f),
    lambda f: sb.satisfies(np.zeros((3, 1)), f),
    lambda f: sb.satisfies_batch(np.zeros((2, 3, 1)), f)],
    ids=["horizon", "to_nnf", "bind_formula", "robustness", "satisfies",
         "satisfies_batch"])
def test_foreign_node_raises(formula, call):
    with pytest.raises(sb.StlError, match="unknown formula node"):
        call(formula)


def test_rebuild_from_children_is_identity():
    gen = np.random.default_rng(71)
    for _ in range(200):
        stack = [random_formula(gen, depth=4)]
        while stack:  # every subformula, not just the root
            f = stack.pop()
            assert _rebuild(f, _children(f)) == f
            stack.extend(_children(f))
