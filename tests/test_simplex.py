import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_standard_lp


def test_known_minimum():
    # min x1 + 2 x2 subject to x1 + x2 = 1, x >= 0 -> x = (1, 0)
    res = solve_standard_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.x == pytest.approx([1.0, 0.0])


def test_infeasible_system():
    # x1 + x2 = -1 has no nonnegative solution.
    res = solve_standard_lp([1.0, 1.0], [[1.0, 1.0]], [-1.0])
    assert res.status == INFEASIBLE


def test_unbounded_objective():
    # min x1 - x2 with x1 - x2 = 0: x2 free to grow.
    res = solve_standard_lp([1.0, -2.0], [[1.0, -1.0]], [0.0])
    assert res.status == UNBOUNDED


def test_degenerate_redundant_rows():
    A = [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    res = solve_standard_lp([1.0, 1.0, 1.0], A, [1.0, 2.0, 0.5])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.5)


def test_against_scipy_on_randoms():
    gen = np.random.default_rng(2024)
    solved = 0
    for _ in range(200):
        m = int(gen.integers(1, 6))
        n = int(gen.integers(m, 10))
        A = gen.normal(size=(m, n))
        x_feas = gen.uniform(0, 1, size=n)
        b = A @ x_feas  # guarantees feasibility
        c = gen.normal(size=n)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n,
                      method="highs")
        res = solve_standard_lp(c, A, b)
        if ref.status == 3:
            assert res.status == UNBOUNDED
        else:
            assert ref.status == 0
            assert res.status == OPTIMAL
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            solved += 1
    assert solved >= 100


def test_against_scipy_infeasible():
    gen = np.random.default_rng(7)
    found = 0
    for _ in range(100):
        m, n = 3, 4
        A = gen.normal(size=(m, n))
        b = gen.normal(size=m)
        c = gen.normal(size=n)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n,
                      method="highs")
        res = solve_standard_lp(c, A, b)
        if ref.status == 2:
            assert res.status == INFEASIBLE
            found += 1
        elif ref.status == 0:
            assert res.status == OPTIMAL
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
    assert found >= 10
