"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criteria 1 and 2 check the confidence computed for the bundled Laguerre
until-window benchmark against references derived from the model matrices
alone: a union bound on the reach probability confines every parameter that
can meet the requirement to a small disc around the origin (see
`until_reach_bound` and README, "Conservativeness of the decomposition").
"""

import json
import time
from statistics import NormalDist

import mpmath
import numpy as np

import stlbayes as sb
from stlbayes.cli import cmd_verify
from stlbayes.feasibility import FEASIBLE, UNKNOWN, _input_min
from stlbayes.rng import RngStream

from conftest import random_formula
from oracles import (
    AffineInputConstraint,
    farkas_feasible,
    gamma,
    gamma_gradient,
    gaussian_cdf,
    joint_distribution,
    robustness,
    scalar_satisfies,
    simulate_states_batch,
    worst_case_margin,
)

mpmath.mp.dps = 40

CASE_REGION = sb.Box([-3.5, -3.5], [3.5, 3.5])
CASE_PRIOR = sb.Box([-10.0, -10.0], [10.0, 10.0])

TABLE_THETAS = [[-0.5, 1.0], [3.0, -1.0], [1.0, 0.5], [-2.0, 1.5], [2.0, -1.0]]
# The paper reports prior confidences 0.0279 (mc) and 0.0258 (pwa) and
# Table-1 means 0.9587, 0.4902, 0.7932, 0.9018, 0.0278 at TABLE_THETAS for
# its benchmark.  They belong to a configuration this repository does not
# hold: for laguerre_model(0.4) (Sigma_w = 0.5 I) with the property and delta
# of `case_spec`, the bound below admits no such values.

# `case_spec` reaches its goal `mu3 & mu4`, the band |y| <= REACH_BAND, at one
# of the steps REACH_WINDOW of `U[2,4]`, or not at all.
REACH_BAND = 0.1
REACH_WINDOW = range(2, 5)


def reach_grams(model):
    """Process-noise Gram matrices V_j of the state x(j), j in REACH_WINDOW."""
    gsg = model.G @ model.Sigma_w @ model.G.T
    v, ak, grams = np.zeros_like(gsg), np.eye(model.n), []
    for j in range(1, max(REACH_WINDOW) + 1):
        v = v + ak @ gsg @ ak.T
        ak = model.A @ ak
        if j in REACH_WINDOW:
            grams.append(v)
    return grams


def until_reach_bound(model, theta):
    """Upper bound on Pr(xi |= psi) at theta that holds for every input.

    y(j) = theta . x(j) is Gaussian with variance theta^T V_j theta whatever
    the input, and a Gaussian puts at most 2 Phi(band / sigma) - 1 in a band,
    so the union bound over the reach steps gives
    Pr(psi) <= sum_j (2 Phi(REACH_BAND / sigma_j) - 1).
    """
    theta = np.asarray(theta, dtype=float)
    return sum(2.0 * NormalDist().cdf(REACH_BAND / np.sqrt(theta @ v @ theta))
               - 1.0 for v in reach_grams(model))


def until_feasible_radius(model, delta):
    """Radius of a disc holding every theta with Pr(psi) >= 1 - delta.

    sigma_j >= sqrt(lam) |theta| for the smallest eigenvalue lam of the V_j,
    so `until_reach_bound` falls below 1 - delta outside this radius.
    """
    lam = min(np.linalg.eigvalsh(v)[0] for v in reach_grams(model))
    z = NormalDist().inv_cdf((1.0 + (1.0 - delta) / len(REACH_WINDOW)) / 2.0)
    return REACH_BAND / (np.sqrt(lam) * z)


def criterion(number: int, description: str, checks):
    """Evaluate (name, ok, detail) checks, print one summary line, assert."""
    ok = all(c[1] for c in checks)
    print(f"\nCRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    for name, good, detail in checks:
        print(f"    [{'ok  ' if good else 'FAIL'}] {name}: {detail}")
    failed = [name for name, good, _ in checks if not good]
    assert ok, (f"criterion {number} failed: {', '.join(failed)} "
                "(see printed details)")


def test_criterion_1_prior_confidence(case_spec):
    start = time.perf_counter()
    post = sb.posterior(None, case_spec.model, CASE_PRIOR, 1000, RngStream(1))
    mc = sb.mc_confidence(post, case_spec, CASE_REGION, 27947,
                          RngStream(101, ("c1", "mc")), epsilon=0.005)
    cells = sb.classify_cells(sb.pwa_partition(CASE_REGION, 5), case_spec)
    pwa = sb.pwa_confidence(post, cells, 500, RngStream(101, ("c1", "pwa")))
    elapsed = time.perf_counter() - start
    combined = 3 * (mc.std_error + pwa.std_error)
    # Prior mass of the disc that holds the exact feasible set: an upper
    # bound on the exact confidence, which is therefore in [0, upper].
    radius = until_feasible_radius(case_spec.model, case_spec.delta)
    upper = np.pi * radius ** 2 / CASE_PRIOR.volume
    criterion(1, "benchmark prior confidence (mc 27947 samples, pwa 25 cells)", [
        (f"mc within [0, {upper:.5f}] +- 0.012",
         -0.012 <= mc.value <= upper + 0.012, f"mc={mc.value:.4f}"),
        (f"pwa within [0, {upper:.5f}] +- 0.015",
         -0.015 <= pwa.value <= upper + 0.015, f"pwa={pwa.value:.4f}"),
        ("pwa <= mc + 3 combined std errors",
         pwa.value <= mc.value + combined,
         f"pwa={pwa.value:.4f} mc={mc.value:.4f} margin={combined:.4f}"),
        ("runtime < 5 min", elapsed < 300.0, f"{elapsed:.1f}s"),
    ])


def test_criterion_2_table_reproduction(case_spec):
    start = time.perf_counter()
    reps = 30
    model = case_spec.model
    sampler = sb.InputSampler("uniform", low=-2.0, high=2.0)
    means = []
    for ti, theta_true in enumerate(TABLE_THETAS):
        values = []
        for rep in range(reps):
            stream = RngStream(102, ("c2", ti, rep))
            data = sb.collect_data(model, theta_true, sampler, 50,
                                   case_spec.x0, stream.child("data"))
            post = sb.posterior(data, model, CASE_PRIOR, 4096,
                                stream.child("posterior"))
            est = sb.mc_confidence(post, case_spec, CASE_REGION, 27947,
                                   stream.child("mc"))
            values.append(est.value)
        means.append(float(np.mean(values)))
    elapsed = time.perf_counter() - start
    # Every theta_true lies outside the set `until_reach_bound` admits
    # (checked below), and 50 measurements leave next to no posterior mass
    # on that set, so the exact mean confidence is about 0 at each of them.
    # Five means that are all about 0 have no ordering the method promises,
    # so none is checked.
    checks = []
    for theta, mean in zip(TABLE_THETAS, means):
        reach = until_reach_bound(model, theta)
        checks.append((f"theta={theta} outside the analytic feasible superset",
                       reach < 1.0 - case_spec.delta,
                       f"Pr(psi) <= {reach:.4f}"))
        checks.append((f"mean at theta={theta} within +-0.12 of 0",
                       abs(mean) <= 0.12, f"mean={mean:.4f}"))
    checks.append(("runtime < 20 min", elapsed < 1200.0, f"{elapsed:.1f}s"))
    criterion(2, "repeated-identification confidence table (R=30, 50 samples)",
              checks)


def test_criterion_3_farkas_oracle_equivalence():
    start = time.perf_counter()
    gen = np.random.default_rng(103)
    disagreements = [0, 0]
    total = 0
    for _ in range(1000):
        m = int(gen.integers(1, 5))
        t = int(gen.integers(0, 11))
        while m * t > 40:
            t = int(gen.integers(0, 11))
        f = gen.normal(size=m * t) * gen.uniform(0.1, 3)
        b = float(gen.normal() * 2)
        box = sb.Box(-gen.uniform(0.05, 2, size=m),
                          gen.uniform(0.05, 2, size=m))
        c = AffineInputConstraint(f=f, b=b, time=t, m=m)
        feasible, _ = farkas_feasible(c, box)
        total += 1
        # The closed-form oracle, then the package's own worst case.
        for k, margin in enumerate((
                worst_case_margin(c, box),
                b + float(_input_min(f, *box.stacked(t))))):
            if margin > 1e-9 and not feasible or margin < -1e-9 and feasible:
                disagreements[k] += 1
    elapsed = time.perf_counter() - start
    criterion(3, "robust-LP dual agrees with the closed-form box oracle", [
        ("agreement on 1000 randomized constraints", disagreements[0] == 0,
         f"{total - disagreements[0]}/{total}"),
        ("agreement with the package's feasibility._input_min",
         disagreements[1] == 0, f"{total - disagreements[1]}/{total}"),
        ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f}s"),
    ])


def test_criterion_4_covariance_correctness(case_model):
    start = time.perf_counter()
    theta = np.array([-0.5, 1.0])
    n_exp = 10
    gen = np.random.default_rng(104)
    u = gen.uniform(-2, 2, size=(n_exp, 1))
    joint = joint_distribution(case_model, theta, [0, 0], u)
    reps = 10 ** 5
    states = simulate_states_batch(case_model, [0, 0], u, reps,
                                   RngStream(104, ("c4",)))
    c = case_model.c_matrix(theta)
    ys = (states[:, :n_exp, :] @ c.T)[:, :, 0]
    ys = ys + RngStream(104, ("c4", "e")).generator() \
        .standard_normal(ys.shape) * np.sqrt(0.5)
    emp = np.cov(ys.T)
    rel = (np.linalg.norm(emp - joint.cov, "fro")
           / np.linalg.norm(joint.cov, "fro"))
    elapsed = time.perf_counter() - start
    criterion(4, "analytic joint covariance vs 1e5-simulation estimate", [
        ("relative Frobenius error < 10%", rel < 0.10, f"rel={rel:.4f}"),
        ("runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f}s"),
    ])


def test_criterion_5_decomposition_soundness(safety_spec):
    # The benchmark until-window property admits no satisfying parameter
    # (README note), so the statistical soundness of the decomposition is
    # exercised on the bundled safety property, whose feasible set is fat.
    start = time.perf_counter()
    spec = safety_spec
    model = spec.model
    delta = spec.delta
    gen = RngStream(105, ("thetas",)).generator()
    feasible_thetas = []
    while len(feasible_thetas) < 20:
        cand = gen.uniform(-2, 2, size=(200, 2))
        mask = spec.satisfaction_batch(cand).astype(bool)
        feasible_thetas.extend(cand[mask].tolist())
    feasible_thetas = feasible_thetas[:20]

    n_draws = 10 ** 4
    sigma_h = 1.0 / (2.0 * np.sqrt(n_draws))
    floor = 1.0 - delta - 3.0 * sigma_h
    horizon = spec.horizon
    worst = 1.0
    failures = 0
    for ti, theta in enumerate(feasible_thetas):
        bound = sb.bind_formula(spec.formula, model.c_matrix(theta))
        for ui in range(5):
            ugen = RngStream(105, ("u", ti, ui)).generator()
            u = ugen.uniform(model.input_box.lower, model.input_box.upper,
                             size=(horizon, model.m))
            states = simulate_states_batch(
                model, spec.x0, u, n_draws, RngStream(105, ("w", ti, ui)))
            rate = float(sb.satisfies_batch(states, bound, 0).mean())
            worst = min(worst, rate)
            if rate < floor:
                failures += 1
    elapsed = time.perf_counter() - start
    criterion(5, "decomposed feasibility implies empirical satisfaction", [
        (f"all 100 (theta, input) pairs reach rate >= {floor:.4f}",
         failures == 0, f"worst empirical rate={worst:.4f}"),
        ("runtime < 10 min", elapsed < 600.0, f"{elapsed:.1f}s"),
    ])


def test_criterion_6_pwa_soundness_and_refinement(case_spec, safety_spec,
                                                  safety_region):
    start = time.perf_counter()
    checks = []
    gen = RngStream(106).generator()
    for name, spec, region in (
            ("benchmark", case_spec, CASE_REGION),
            ("safety", safety_spec, safety_region)):
        prev_feas, prev_unknown = -1.0, float("inf")
        monotone = True
        sound = True
        for per_axis in (5, 10, 20):
            cells = sb.classify_cells(sb.pwa_partition(region, per_axis), spec)
            feas = sum(c.volume for c in cells if c.label == FEASIBLE)
            unknown = sum(c.volume for c in cells if c.label == UNKNOWN)
            if feas < prev_feas - 1e-9 or unknown > prev_unknown + 1e-9:
                monotone = False
            prev_feas, prev_unknown = feas, unknown
            for cell in cells:
                if cell.label == FEASIBLE:
                    pts = gen.uniform(cell.lower, cell.upper, size=(1000, 2))
                    if not spec.satisfaction_batch(pts).all():
                        sound = False
        checks.append((f"{name}: feasible cells pass 1000-sample spot checks",
                       sound, "sampled every feasible cell"))
        checks.append((f"{name}: feasible volume up, unknown volume down "
                       "across per_axis 5/10/20", monotone,
                       f"final feasible={prev_feas:.3f} "
                       f"unknown={prev_unknown:.3f}"))
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 10 min", elapsed < 600.0, f"{elapsed:.1f}s"))
    criterion(6, "cell certification soundness and refinement trend", checks)


def test_criterion_7_gamma_gradient(case_model):
    gen = np.random.default_rng(107)
    h = 1e-6
    worst = 0.0
    count = 0
    while count < 100:
        tilde = gen.normal(size=2) * gen.uniform(0.2, 3)
        if np.linalg.norm(tilde) <= 1e-3:
            continue
        count += 1
        delta = float(gen.uniform(0.01, 0.45))
        t = int(gen.integers(1, 8))
        grad, _ = gamma_gradient(tilde, delta, case_model, t)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (gamma(tilde + e, delta, case_model, t)
                  - gamma(tilde - e, delta, case_model, t)) / (2 * h)
            if abs(fd) > 1e-12:
                worst = max(worst, abs(grad[i] - fd) / abs(fd))
    criterion(7, "analytic noise-margin gradient vs finite differences", [
        ("relative error < 1e-5 on 100 points", worst < 1e-5,
         f"worst={worst:.2e}"),
    ])


def test_criterion_8_stl_sign_agreement():
    gen = np.random.default_rng(108)
    checked = 0
    mismatches = 0
    antisymmetry_ok = True
    while checked < 1000:
        f = random_formula(gen, depth=4)
        length = max(sb.horizon(f) + 1, int(gen.integers(1, 13)))
        xi = gen.normal(size=(length, 2))
        rho = robustness(xi, f, 0)
        if robustness(xi, sb.Not(f), 0) != -rho:
            antisymmetry_ok = False
        if rho == 0.0:
            continue
        checked += 1
        if (rho > 0) != scalar_satisfies(xi, f, 0):
            mismatches += 1
    criterion(8, "robustness sign matches Boolean semantics", [
        ("1000 nonzero-robustness cases agree", mismatches == 0,
         f"mismatches={mismatches}"),
        ("negation antisymmetry exact", antisymmetry_ok, "all cases"),
    ])


def test_criterion_9_quantile():
    ref = float(-mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf("0.01")))
    value = sb.gaussian_quantile(0.01)
    worst = max(abs(gaussian_cdf(sb.gaussian_quantile(x)) - x)
                for x in np.linspace(0.001, 0.999, 999))
    criterion(9, "standard normal quantile accuracy", [
        ("quantile(0.01) = -2.3263478740 +- 1e-8",
         abs(value - (-2.3263478740)) <= 1e-8, f"value={value:.10f}"),
        ("high-precision reference agreement", abs(value - ref) <= 1e-10,
         f"|diff|={abs(value - ref):.2e}"),
        ("cdf(quantile(x)) roundtrip < 1e-9", worst < 1e-9,
         f"worst={worst:.2e}"),
    ])


def test_criterion_10_determinism(tmp_path):
    cfg = json.loads((pytest_cfg_dir() / "safety_demo.json").read_text())
    cfg["mc"] = {"samples": 4000}
    cfg["pwa"] = {"per_axis": 8, "per_cell_samples": 200}
    cfg["posterior_mc_samples"] = 2048
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    cmd_verify(cfg, out1)
    cmd_verify(cfg, out2)
    identical = (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    criterion(10, "verify reruns are byte-identical", [
        ("report.json numerics identical", identical,
         f"{(out1 / 'report.json').stat().st_size} bytes"),
    ])


def pytest_cfg_dir():
    from pathlib import Path
    return Path(__file__).resolve().parent.parent / "configs"
