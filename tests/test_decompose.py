import mpmath
import numpy as np
import pytest

import stlbayes as sb
from stlbayes.chance import AT_LEAST, AT_MOST
from stlbayes.lti import simulate_states_batch
from stlbayes.rng import RngStream

from conftest import case_predicates

mpmath.mp.dps = 40


@pytest.fixture(scope="module")
def model():
    return sb.laguerre_model(0.4)


def _pred(name):
    return sb.Pred(name, case_predicates()[name])


def _worst_relative_error(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.all(got[ref == 0] == 0)
    nonzero = ref != 0
    return float(np.max(np.abs(got[nonzero] - ref[nonzero])
                        / np.abs(ref[nonzero]), initial=0.0))


class TestGaussianQuantile:
    def test_median(self):
        assert sb.gaussian_quantile(0.5) == 0.0

    def test_one_percent_against_high_precision(self):
        ref = float(-mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf("0.01")))
        assert sb.gaussian_quantile(0.01) == pytest.approx(ref, abs=1e-10)
        assert sb.gaussian_quantile(0.01) == pytest.approx(-2.3263478740, abs=1e-8)

    def test_roundtrip(self):
        from stlbayes.chance import gaussian_cdf
        for x in np.linspace(0.001, 0.999, 999):
            assert abs(gaussian_cdf(sb.gaussian_quantile(x)) - x) < 1e-9

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                sb.gaussian_quantile(bad)

    @pytest.mark.parametrize("probabilities", [
        np.logspace(-15, np.log10(0.5), 301),
        1.0 - np.logspace(-12, np.log10(0.5), 301),
        np.linspace(0.001, 0.999, 999),
    ], ids=["lower-tail", "upper-tail", "body"])
    def test_relative_accuracy_against_high_precision(self, probabilities):
        ref = [float(-mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(p)))
               for p in probabilities]
        got = [sb.gaussian_quantile(p) for p in probabilities]
        assert _worst_relative_error(got, ref) < 1e-14


class TestGamma:
    def test_noiseless_is_zero(self, model):
        quiet = model.with_overrides(Sigma_w=np.zeros((2, 2)))
        for t in range(4):
            assert sb.gamma([1.0, -2.0], 0.01, quiet, t) == 0.0

    def test_single_term_scalar_system(self):
        m = sb.ParametricLti(A=[[0.0]], B=[[1.0]], G=[[1.0]], C0=[[1.0]],
                             C_basis=(), Sigma_w=[[1.0]], Sigma_e=[[0.1]],
                             input_box=sb.Box([-1], [1]))
        val = sb.gamma([1.0], 0.01, m, 1)
        assert val == pytest.approx(-2.3263478740, abs=1e-6)

    def test_matches_simulated_variance(self, model):
        # sigma from the analytic gram vs 10^6 noise-only simulations.
        tilde = np.array([1.0, 0.0])
        t = 3
        states = simulate_states_batch(model, [0, 0], np.zeros((t, 1)),
                                       10 ** 6, RngStream(42).child("gamma"))
        alpha = states[:, t, :] @ tilde
        sim = -2.3263478740 * float(alpha.std(ddof=1))
        assert sb.gamma(tilde, 0.01, model, t) == pytest.approx(sim, rel=0.01)

    def test_zero_time(self, model):
        assert sb.gamma([1.0, 1.0], 0.2, model, 0) == 0.0

    def test_variance_literal_form(self, model):
        tilde = np.array([0.7, -0.3])
        var = float(tilde @ sb.noise_gram(model, 2) @ tilde)
        from scipy.special import erfinv
        expected = var * float(erfinv(np.sqrt(np.pi) * 0.2))
        got = sb.gamma(tilde, 0.2, model, 2, form="variance_literal")
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("args", [
        [1e-300, 1e-15],
        np.linspace(0.0, 1.0, 2003)[1:-1],
        [1 - 1e-6, 1 - 1e-10, 1 - 1e-12],
    ], ids=["tiny", "sweep", "near-one"])
    def test_variance_literal_coefficient_against_high_precision(self, args):
        from stlbayes.chance import gamma_coefficient
        got, ref = [], []
        for y in args:
            delta = y / np.sqrt(np.pi)
            # Near 1, erfinv magnifies a one-ulp change of its argument a
            # hundred billion times, so the reference takes the argument
            # exactly as the margin forms it.
            arg = np.sqrt(np.pi) * delta
            got.append(gamma_coefficient(delta, "variance_literal")[0])
            ref.append(float(mpmath.erfinv(mpmath.mpf(arg))))
        assert _worst_relative_error(got, ref) < 1e-14

    def test_variance_literal_domain(self, model):
        with pytest.raises(ValueError, match="undefined"):
            sb.gamma([1.0, 0.0], 0.6, model, 2, form="variance_literal")

    def test_gradient_matches_finite_differences(self, model):
        gen = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            tilde = gen.normal(size=2)
            if np.linalg.norm(tilde) < 1e-3:
                tilde = tilde + 0.5
            delta = float(gen.uniform(0.02, 0.4))
            t = int(gen.integers(1, 6))
            grad, ddelta = sb.gamma_gradient(tilde, delta, model, t)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (sb.gamma(tilde + e, delta, model, t)
                      - sb.gamma(tilde - e, delta, model, t)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            fd = (sb.gamma(tilde, delta + h, model, t)
                  - sb.gamma(tilde, delta - h, model, t)) / (2 * h)
            assert ddelta == pytest.approx(fd, rel=1e-5)

    def test_gradient_undefined_at_cone(self, model):
        with pytest.raises(ValueError, match="differentiable"):
            sb.gamma_gradient([0.0, 0.0], 0.1, model, 2)


class TestUntilEvents:
    def test_point_window(self):
        events = sb.until_events(_pred("mu1"), _pred("mu3"), 0, 0, 0)
        assert len(events) == 1
        j, conj = events[0]
        assert j == 0 and len(conj) == 1
        assert conj[0][1] == 0 and conj[0][0].name == "mu3"

    def test_case_study_window(self):
        p1, p2 = _pred("mu1"), _pred("mu3")
        events = sb.until_events(p1, p2, 2, 4, 0)
        assert [j for j, _ in events] == [2, 3, 4]
        lam2 = events[0][1]
        assert [(str(f), k) for f, k in lam2] == [
            ("mu1", 0), ("mu1", 1), ("mu3", 2)]
        lam3 = events[1][1]
        assert ("(mu1 & !mu3)", 2) in [(str(f), k) for f, k in lam3]
        assert lam3[-1] == (p2, 3)
        lam4 = events[2][1]
        assert [(str(f), k) for f, k in lam4] == [
            ("mu1", 0), ("mu1", 1), ("(mu1 & !mu3)", 2), ("(mu1 & !mu3)", 3),
            ("mu3", 4)]

    def test_shifted_anchor(self):
        events = sb.until_events(_pred("mu1"), _pred("mu3"), 1, 1, 2)
        assert [j for j, _ in events] == [3]
        assert [(str(f), k) for f, k in events[0][1]] == [("mu1", 2), ("mu3", 3)]

    def test_rejects_temporal_operands(self):
        with pytest.raises(sb.StlError, match="temporal"):
            sb.until_events(sb.Always(_pred("mu1"), 0, 1), _pred("mu3"), 0, 1, 0)


class TestDecompose:
    def test_single_predicate(self):
        result = sb.decompose(_pred("mu1"), 0.01)
        (leaf,) = result.all_leaves()
        assert leaf.direction == AT_LEAST
        assert leaf.threshold == pytest.approx(0.99)
        assert leaf.time == 0

    def test_negated_predicate_flips(self):
        result = sb.decompose(sb.Not(_pred("mu1")), 0.05)
        (leaf,) = result.all_leaves()
        assert leaf.direction == AT_MOST
        assert leaf.threshold == pytest.approx(0.05)

    def test_case_study_structure(self):
        f = sb.parse_stl("(mu1 & mu2) U[2,4] (mu3 & mu4)", case_predicates())
        result = sb.decompose(f, 0.01)
        names = [(g.name, len(g.leaves)) for g in result.groups]
        assert names == [("e2", 6), ("e3", 10), ("e4", 14)]
        # First event: threshold share (1 - delta) / 3, violation budget
        # spread over six conjuncts.
        target = 0.99 / 3
        for leaf in result.groups[0].leaves:
            assert leaf.threshold == pytest.approx(1 - (1 - target) / 6)
        times = sorted({leaf.time for leaf in result.all_leaves()})
        assert times == [0, 1, 2, 3, 4]
        # Negated-conjunct disjunction shows up as complemented band leaves.
        rays = [l for l in result.groups[1].leaves if l.direction == AT_MOST]
        labels = sorted(l.label for l in rays)
        assert labels == ["!mu3", "!mu4"]
        for leaf in rays:
            assert leaf.threshold == pytest.approx(
                1 - 0.5 * (1 - (1 - target) / 9))

    def test_conjunction_weighted_shares(self):
        f = sb.And(_pred("mu1"), _pred("mu2"))
        weights = sb.WeightScheme({"": [0.9, 0.1]})
        result = sb.decompose(f, 0.01, weights)
        budgets = [1 - l.threshold for l in result.all_leaves()]
        # Conserving shares: beta_i * (1 - p) with p = 0.99.
        assert budgets == pytest.approx([0.9 * 0.01, 0.1 * 0.01])

    def test_conjunction_literal_shares(self):
        # Textbook form divides each share by the conjunct count once more.
        f = sb.And(_pred("mu1"), _pred("mu2"))
        weights = sb.WeightScheme({"": [0.9, 0.1]})
        result = sb.decompose(f, 0.01, weights, literal_shares=True)
        budgets = [1 - l.threshold for l in result.all_leaves()]
        assert budgets == pytest.approx([0.9 * 0.01 / 2, 0.1 * 0.01 / 2])

    def test_budget_conservation(self):
        # At every conjunction the children's violation budgets sum exactly
        # to the parent's budget, for uniform and explicit weights.
        gen = np.random.default_rng(3)
        for k in (2, 3, 5, 8):
            f = _pred("mu1")
            for i in range(k - 1):
                f = sb.And(f, _pred(f"mu{(i % 4) + 1}"))
            for delta in (0.01, 0.2, 0.5):
                res = sb.decompose(f, delta)
                budgets = [1 - l.threshold for l in res.all_leaves()]
                assert sum(budgets) == pytest.approx(delta)
                w = gen.dirichlet(np.ones(k))
                res = sb.decompose(f, delta,
                                   sb.WeightScheme({"": list(w)}))
                budgets = [1 - l.threshold for l in res.all_leaves()]
                assert sum(budgets) == pytest.approx(delta)

    def test_always_flattens_over_time(self):
        f = sb.parse_stl("G[1,3] (mu1 & mu2)", case_predicates())
        res = sb.decompose(f, 0.06)
        leaves = res.all_leaves()
        assert len(leaves) == 6
        assert sorted({l.time for l in leaves}) == [1, 2, 3]
        assert all(1 - l.threshold == pytest.approx(0.01) for l in leaves)

    def test_eventually_is_until_with_true(self):
        f = sb.Eventually(_pred("mu3"), 0, 2)
        res = sb.decompose(f, 0.1)
        assert [g.name for g in res.groups] == ["e0", "e1", "e2"]
        # Later events pick up the not-yet clauses from the window prefix.
        assert [len(g.leaves) for g in res.groups] == [1, 2, 3]

    def test_disjunction_shares(self):
        f = sb.Or(_pred("mu1"), _pred("mu2"))
        res = sb.decompose(f, 0.4)
        thresholds = [l.threshold for l in res.all_leaves()]
        assert thresholds == pytest.approx([0.3, 0.3])

    def test_until_event_weights(self):
        f = sb.parse_stl("(mu1 & mu2) U[2,4] (mu3 & mu4)", case_predicates())
        weights = sb.WeightScheme({"": [0.5, 0.3, 0.2]})
        res = sb.decompose(f, 0.01, weights)
        # Event j is required with probability gamma_j * 0.99; each event's
        # flattened conjuncts then split the event's violation budget (a
        # negated band counts as one conjunct split across its two rays).
        fractions = (0.5, 0.3, 0.2)
        for group, g_w in zip(res.groups, fractions):
            target = g_w * 0.99
            plain = [l for l in group.leaves if l.direction == AT_LEAST]
            rays = [l for l in group.leaves if l.direction == AT_MOST]
            n_conj = len(plain) + len(rays) // 2
            share = (1 - target) / n_conj
            for leaf in plain:
                assert 1 - leaf.threshold == pytest.approx(share)
            for leaf in rays:
                assert leaf.threshold == pytest.approx(1 - 0.5 * (1 - share))

    def test_weight_validation(self):
        f = sb.And(_pred("mu1"), _pred("mu2"))
        with pytest.raises(ValueError, match="length"):
            sb.decompose(f, 0.1, sb.WeightScheme({"": [1.0]}))
        with pytest.raises(ValueError, match="sum to 1"):
            sb.decompose(f, 0.1,
                         sb.WeightScheme({"": [0.7, 0.7]}))
        with pytest.raises(ValueError, match="nonnegative"):
            sb.decompose(f, 0.1,
                         sb.WeightScheme({"": [1.5, -0.5]}))

    def test_delta_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                sb.decompose(_pred("mu1"), bad)

    def test_json_export(self):
        f = sb.parse_stl("(mu1 & mu2) U[2,4] (mu3 & mu4)", case_predicates())
        payload = sb.decompose(f, 0.01).to_json_dict()
        assert len(payload["groups"]) == 3
        leaf = payload["groups"][0]["leaves"][0]
        assert {"label", "time", "direction", "threshold", "path", "space",
                "offset", "gradient"} <= set(leaf)


class TestToAffine:
    def test_time_zero_constant(self, model):
        leaf = sb.ChanceConstraint(sb.LinearPredicate(0.5, (0.0, 0.0)), 0,
                                   AT_LEAST, 0.99)
        c = sb.to_affine(leaf, model, [0, 0])
        assert c.f.size == 0
        assert c.b == pytest.approx(0.5)

    def test_case_study_coefficients(self, model):
        # mu2 = {-y >= -0.5} at t = 2 folded at theta: gradient -C(theta).
        theta = np.array([-0.5, 1.0])
        tilde = -model.c_matrix(theta).ravel()
        leaf = sb.ChanceConstraint(sb.LinearPredicate(0.5, tuple(tilde)), 2,
                                   AT_LEAST, 0.99)
        c = sb.to_affine(leaf, model, [0, 0])
        expected = [float((tilde @ model.A @ model.B)[0]),
                    float((tilde @ model.B)[0])]
        assert c.f == pytest.approx(expected)

    def test_input_coefficient_order(self, model):
        tilde = np.array([0.3, -0.7])
        leaf = sb.ChanceConstraint(sb.LinearPredicate(0.0, tuple(tilde)), 3,
                                   AT_LEAST, 0.9)
        f = sb.to_affine(leaf, model, [0, 0]).f
        ref = [float((tilde @ np.linalg.matrix_power(model.A, 3 - 1 - k)
                      @ model.B)[0]) for k in range(3)]
        assert f == pytest.approx(ref)

    def test_monotone_in_delta(self, model):
        tilde = (0.4, 0.8)
        previous = None
        for thr in (0.5, 0.9, 0.99, 0.999):
            leaf = sb.ChanceConstraint(sb.LinearPredicate(0.1, tilde), 3,
                                       AT_LEAST, thr)
            b = sb.to_affine(leaf, model, [0, 0]).b
            if previous is not None:
                assert b < previous
            previous = b

    def test_at_most_negates(self, model):
        pred = sb.LinearPredicate(0.1, (1.0, 0.0))
        lo = sb.ChanceConstraint(pred, 2, AT_MOST, 0.3)
        hi = sb.ChanceConstraint(pred.negated(), 2, AT_LEAST, 0.7)
        ca, cb = sb.to_affine(lo, model, [0, 0]), sb.to_affine(hi, model, [0, 0])
        assert ca.f == pytest.approx(cb.f)
        assert ca.b == pytest.approx(cb.b)

    def test_initial_state_term(self, model):
        pred = sb.LinearPredicate(0.0, (1.0, 0.5))
        leaf = sb.ChanceConstraint(pred, 2, AT_LEAST, 0.9)
        x0 = np.array([0.3, -0.4])
        with_x0 = sb.to_affine(leaf, model, x0)
        without = sb.to_affine(leaf, model, [0, 0])
        tilde = np.array([1.0, 0.5])
        shift = float(tilde @ np.linalg.matrix_power(model.A, 2) @ x0)
        assert with_x0.b - without.b == pytest.approx(shift)

    def test_linear_in_gradient(self, model):
        # f and the x0 part of b are linear in the predicate gradient.
        gen = np.random.default_rng(11)
        x0 = gen.normal(size=2)
        quiet = model.with_overrides(Sigma_w=np.zeros((2, 2)))
        for _ in range(20):
            g1, g2 = gen.normal(size=2), gen.normal(size=2)
            a, b = float(gen.normal()), float(gen.normal())

            def affine(g):
                leaf = sb.ChanceConstraint(sb.LinearPredicate(0.0, tuple(g)),
                                           3, AT_LEAST, 0.9)
                return sb.to_affine(leaf, quiet, x0)

            combo = affine(a * g1 + b * g2)
            one, two = affine(g1), affine(g2)
            assert combo.f == pytest.approx(a * one.f + b * two.f)
            assert combo.b == pytest.approx(a * one.b + b * two.b)

    def test_requires_bound_predicate(self, model):
        leaf = sb.ChanceConstraint(sb.OutputPredicate(0.5, (1.0,)), 2,
                                   AT_LEAST, 0.9)
        with pytest.raises(sb.StlError, match="bind"):
            sb.to_affine(leaf, model, [0, 0])
        bound = leaf.bind(model.c_matrix([1.0, 0.0]))
        assert sb.to_affine(bound, model, [0, 0]).f.size == 2
