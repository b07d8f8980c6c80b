"""Shared fixtures: the Laguerre benchmark property and a smaller-noise
safety benchmark whose under-approximated feasible set is nonempty."""

from __future__ import annotations

import numpy as np
import pytest

import stlbayes as sb
from stlbayes.bayes import _BatchLikelihood


def case_predicates():
    return {
        "mu1": sb.OutputPredicate(0.5, (1.0,)),
        "mu2": sb.OutputPredicate(0.5, (-1.0,)),
        "mu3": sb.OutputPredicate(0.1, (1.0,)),
        "mu4": sb.OutputPredicate(0.1, (-1.0,)),
    }


@pytest.fixture
def filter_calls(monkeypatch) -> list:
    """The row count of every `_BatchLikelihood` call the test makes."""
    calls, real = [], _BatchLikelihood.__call__

    def spy(self, thetas):
        calls.append(len(thetas))
        return real(self, thetas)

    monkeypatch.setattr(_BatchLikelihood, "__call__", spy)
    return calls


@pytest.fixture(scope="session")
def case_model():
    return sb.laguerre_model(0.4)


@pytest.fixture(scope="session")
def case_formula():
    return sb.parse_stl("(mu1 & mu2) U[2,4] (mu3 & mu4)", case_predicates())


@pytest.fixture(scope="session")
def case_spec(case_model, case_formula):
    return sb.VerificationSpec(case_model, case_formula, delta=0.01)


@pytest.fixture(scope="session")
def safety_model(case_model):
    return case_model.with_overrides(Sigma_w=0.02 * np.eye(2))


@pytest.fixture(scope="session")
def safety_formula():
    return sb.parse_stl("G[0,3] (mu1 & mu2)", case_predicates())


@pytest.fixture(scope="session")
def safety_spec(safety_model, safety_formula):
    return sb.VerificationSpec(safety_model, safety_formula, delta=0.05)


@pytest.fixture(scope="session")
def safety_region():
    return sb.Box([-2.0, -2.0], [2.0, 2.0])


def random_formula(gen: np.random.Generator, depth: int, n_preds: int = 4,
                   state_dim: int = 2, max_window: int = 3):
    """Random formula over random linear state predicates."""
    preds = [sb.LinearPredicate(gen.normal(), tuple(gen.normal(size=state_dim)))
             for _ in range(n_preds)]

    def build(d):
        choices = ["pred", "true"] if d == 0 else \
            ["pred", "not", "and", "or", "until", "eventually", "always"]
        kind = choices[gen.integers(len(choices))]
        if kind == "true":
            return sb.TrueNode()
        if kind == "pred":
            i = int(gen.integers(n_preds))
            return sb.Pred(f"p{i}", preds[i])
        if kind == "not":
            return sb.Not(build(d - 1))
        if kind == "and":
            return sb.And(build(d - 1), build(d - 1))
        if kind == "or":
            return sb.Or(build(d - 1), build(d - 1))
        a = int(gen.integers(0, max_window))
        b = int(a + gen.integers(0, max_window - a + 1))
        if kind == "until":
            return sb.Until(build(d - 1), build(d - 1), a, b)
        if kind == "eventually":
            return sb.Eventually(build(d - 1), a, b)
        return sb.Always(build(d - 1), a, b)

    return build(depth)
