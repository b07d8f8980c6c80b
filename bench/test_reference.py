"""Tests of the benchmark's references.

Run from the root of a checkout:  python3 -m pytest bench/test_reference.py
(the repository's own test run collects only tests/).
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402


def dense_loglik(model: dict, theta, x0, inputs, outputs) -> float:
    """`reference.kalman_loglik` at one parameter, as one joint Gaussian.

    The noise-to-output map is sum_k kron(S^k, C A^(k-1) G) for the lower
    shift matrix S, so y = mean + M w + e with w, e white.
    """
    C = ref.c_matrices(model, theta)[0]
    A, Bm, G = model["A"], model["B"], model["G"]
    u = np.asarray(inputs, dtype=float).reshape(len(inputs), -1)
    y = np.asarray(outputs, dtype=float).reshape(len(outputs), -1)
    N = y.shape[0]
    x = np.asarray(x0, dtype=float).copy()
    mean = []
    for t in range(N):
        mean.append(C @ x)
        x = A @ x + Bm @ u[t]
    shift = np.eye(N, k=-1)
    M = np.zeros((N * C.shape[0], N * G.shape[1]))
    for k in range(1, N):
        M += np.kron(np.linalg.matrix_power(shift, k),
                     C @ np.linalg.matrix_power(A, k - 1) @ G)
    cov = (M @ np.kron(np.eye(N), model["Sigma_w"]) @ M.T
           + np.kron(np.eye(N), model["Sigma_e"]))
    resid = y.reshape(-1) - np.concatenate(mean)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("joint covariance is not positive definite")
    return -0.5 * (resid.size * math.log(2.0 * math.pi) + logdet
                   + float(resid @ np.linalg.solve(cov, resid)))


def vertex_margin(model: dict, theta, x0, offset: float, gradient, t: int,
                  z: float) -> float:
    """`leaf_margin` at one parameter by enumerating every input vertex."""
    C = ref.c_matrices(model, theta)[0]
    h = C.T @ np.asarray(gradient, dtype=float)
    corners = list(zip(model["input_lower"], model["input_upper"]))
    worst = math.inf
    for seq in itertools.product(itertools.product(*corners), repeat=t):
        x = np.asarray(x0, dtype=float)
        for u in seq:
            x = model["A"] @ x + model["B"] @ np.asarray(u)
        worst = min(worst, offset + float(h @ x))
    var = float(h @ ref.noise_grams(model, t)[t] @ h)
    return worst - z * math.sqrt(max(var, 0.0))


def _config(name):
    return json.loads((ROOT / "configs" / name).read_text())


def _random_model(gen, n=3, m=2, p=2, q=2, d=2):
    A = gen.normal(size=(n, n))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    w = gen.normal(size=(q, 1))
    e = gen.normal(size=(p, p))
    return {"A": A, "B": gen.normal(size=(n, m)), "G": gen.normal(size=(n, q)),
            "C0": gen.normal(size=(p, n)), "C_basis": gen.normal(size=(d, p, n)),
            "Sigma_w": w @ w.T,  # rank one: singular process noise
            "Sigma_e": e @ e.T + 0.1 * np.eye(p),
            "input_lower": -gen.uniform(0.1, 1.0, size=m),
            "input_upper": gen.uniform(0.1, 1.0, size=m)}


def test_kalman_matches_dense_gaussian_p2_singular_noise():
    gen = np.random.default_rng(11)
    model = _random_model(gen)
    assert np.linalg.matrix_rank(model["Sigma_w"]) == 1
    N = 7
    x0 = gen.normal(size=3)
    u = gen.normal(size=(N, 2))
    y = gen.normal(size=(N, 2))
    thetas = gen.normal(size=(20, 2))
    fast = ref.kalman_loglik(model, thetas, x0, u, y)
    for theta, got in zip(thetas, fast):
        want = dense_loglik(model, theta, x0, u, y)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_kalman_matches_dense_gaussian_laguerre():
    model = ref.model_from_config(_config("case_study.json"))
    gen = np.random.default_rng(12)
    u = gen.uniform(-2, 2, size=(30, 1))
    y = gen.normal(size=(30, 1))
    thetas = gen.uniform(-10, 10, size=(10, 2))
    fast = ref.kalman_loglik(model, thetas, [0.0, 0.0], u, y)
    for theta, got in zip(thetas, fast):
        want = dense_loglik(model, theta, [0.0, 0.0], u, y)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_leaf_margin_matches_vertex_enumeration():
    gen = np.random.default_rng(13)
    models = [ref.model_from_config(_config("safety_demo.json")),
              _random_model(gen, p=1)]
    for model in models:
        n = model["A"].shape[0]
        x0 = gen.normal(size=n)
        for t in range(0, 5):
            for theta in gen.normal(size=(5, 2)):
                gradient = gen.normal(size=model["C0"].shape[0])
                closed = ref.leaf_margin(model, theta[None], x0, 0.3, gradient,
                                         t, 2.1)[0]
                brute = vertex_margin(model, theta, x0, 0.3, gradient, t,
                                          2.1)
                assert abs(closed - brute) <= 1e-12 * max(1.0, abs(brute))


def test_superset_contains_boole_split_set():
    cfg = _config("safety_demo.json")
    model = ref.model_from_config(cfg)
    thetas = np.random.default_rng(14).uniform(-2, 2, size=(5000, 2))
    boole = ref.safety_margin(cfg, model, thetas)
    superset = ref.safety_margin(cfg, model, thetas, superset=True)
    assert np.all(superset >= boole)
    assert (boole >= 0).any() and (superset >= 0).sum() > (boole >= 0).sum()


def test_boole_map_agrees_with_program_satisfaction():
    import stlbayes as sb

    cfg = _config("safety_demo.json")
    model = ref.model_from_config(cfg)
    program_model = sb.laguerre_model(cfg["model"]["a"]).with_overrides(
        Sigma_w=np.asarray(cfg["model"]["Sigma_w"]))
    table = {k: sb.OutputPredicate(v["offset"], tuple(v["output_gradient"]))
             for k, v in cfg["predicates"].items()}
    spec = sb.VerificationSpec(program_model,
                               sb.parse_stl(cfg["formula"], table),
                               delta=cfg["delta"], x0=cfg["x0"])
    axis = np.linspace(-2.0, 2.0, 401)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([g1.ravel(), g2.ravel()])
    mine = ref.safety_margin(cfg, model, grid) >= 0.0
    theirs = spec.satisfaction_batch(grid).astype(bool)
    assert int((mine != theirs).sum()) == 0


def test_grid_posterior_integrates_a_gaussian():
    def log_f(t):
        return -0.5 * ((t[:, 0] - 0.3) ** 2 / 0.04 + (t[:, 1] + 0.2) ** 2 / 0.09)

    grid = ref.GridPosterior(log_f, [-3, -3], [3, 3], 300)
    assert abs(math.exp(grid.log_total) - 2 * math.pi * 0.2 * 0.3) < 1e-9


def test_cell_set_brackets_a_disc_area():
    def member(t):
        return 1.0 - (t * t).sum(axis=1)

    grid = ref.GridPosterior(lambda t: np.zeros(len(t)), [-2, -2], [2, 2], 40)
    widths = []
    for sub in (1, 8):
        cells = ref.CellSet(member, [-2, -2], [2, 2], 40, sub=sub)
        lo, hi = (math.exp(m) for m in grid.mass(cells))
        assert lo <= math.pi <= hi
        widths.append(hi - lo)
    assert widths[1] < widths[0] / 4


def test_until_bound_matches_readme_figures():
    cfg = _config("case_study.json")
    model = ref.model_from_config(cfg)
    band, window = ref.parse_until_band(cfg)
    assert (band, list(window)) == (0.1, [2, 3, 4])
    radius = ref.until_feasible_radius(model, cfg["delta"], band, window)
    assert abs(radius - 0.328) < 5e-4
    for theta in cfg["table1"]["theta_true_list"]:
        assert ref.until_reach_bound(model, theta, band, window) < 0.24
    # Well inside the disc the bound no longer excludes the requirement.
    edge = radius * np.array([1.0, 0.0])
    assert ref.until_reach_bound(model, 0.5 * edge, band, window) >= 0.99
