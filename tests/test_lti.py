import numpy as np
import pytest

import stlbayes as sb
from stlbayes.lti import mean_trajectory, simulate_states_batch
from stlbayes.rng import RngStream


@pytest.fixture(scope="module")
def model():
    return sb.laguerre_model(0.4)


@pytest.fixture(scope="module")
def noiseless(model):
    return model.with_overrides(Sigma_w=np.zeros((2, 2)),
                                Sigma_e=np.zeros((1, 1)))


class TestLaguerre:
    def test_coefficients(self, model):
        assert np.allclose(model.A, [[0.4, 0.0], [0.84, 0.4]])
        assert np.allclose(model.B.ravel(), [0.9165151, -0.36660605], atol=1e-6)
        assert np.allclose(model.G, np.eye(2))
        assert np.allclose(model.Sigma_w, 0.5 * np.eye(2))
        assert np.allclose(model.Sigma_e, [[0.5]])
        assert np.allclose(model.input_box.lower, [-0.2])
        assert np.allclose(model.input_box.upper, [0.2])

    def test_zero_pole(self):
        m = sb.laguerre_model(0.0)
        assert np.allclose(m.A, [[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(m.B.ravel(), [1.0, 0.0])

    def test_unit_pole_rejected(self):
        with pytest.raises(ValueError):
            sb.laguerre_model(1.0)
        with pytest.raises(ValueError):
            sb.laguerre_model(-1.2)

    def test_output_map(self, model):
        assert np.allclose(model.c_matrix([-0.5, 1.0]), [[-0.5, 1.0]])


class TestSimulate:
    def test_unforced_noiseless_is_zero(self, noiseless):
        states, clean, noisy = sb.simulate(noiseless, [1.0, 2.0], [0, 0],
                                           np.zeros((5, 1)), RngStream(0))
        assert not states.any() and not clean.any() and not noisy.any()

    def test_matches_convolution(self, model, noiseless):
        gen = np.random.default_rng(3)
        u = gen.uniform(-1, 1, size=(8, 1))
        x0 = gen.normal(size=2)
        states, _, _ = sb.simulate(noiseless, [0.5, -1.0], x0, u, RngStream(1))
        for t in range(9):
            ref = np.linalg.matrix_power(model.A, t) @ x0
            for i in range(t):
                ref = ref + (np.linalg.matrix_power(model.A, i)
                             @ model.B @ u[t - i - 1])
            assert np.allclose(states[t], ref, rtol=1e-12, atol=1e-12)

    def test_one_step_output_variance(self, model):
        # var y(1) = C G Sigma_w G^T C^T + Sigma_e, checked empirically.
        theta = np.array([-0.5, 1.0])
        reps = 10 ** 5
        states = simulate_states_batch(model, [0, 0], np.zeros((1, 1)), reps,
                                       RngStream(8).child("var"))
        c = model.c_matrix(theta)
        noise = RngStream(9).generator().standard_normal(reps) * np.sqrt(0.5)
        y1 = (states[:, 1, :] @ c.T).ravel() + noise
        analytic = float((c @ model.G @ model.Sigma_w @ model.G.T @ c.T)[0, 0] + 0.5)
        assert abs(np.var(y1) - analytic) / analytic < 0.05

    def test_deterministic_given_stream(self, model):
        u = np.linspace(-1, 1, 7)[:, None]
        a = sb.simulate(model, [1.0, 0.0], [0, 0], u, RngStream(5, ("x",)))
        b = sb.simulate(model, [1.0, 0.0], [0, 0], u, RngStream(5, ("x",)))
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            sb.simulate(model, [1.0], [0, 0], np.zeros((3, 1)), RngStream(0))
        with pytest.raises(ValueError):
            sb.simulate(model, [1.0, 2.0], [0, 0, 0], np.zeros((3, 1)),
                        RngStream(0))

    def test_mean_matches_analytic(self, model):
        # Empirical mean of noisy outputs vs the noise-free response, within
        # three standard errors at every step.
        theta = np.array([-0.5, 1.0])
        gen = np.random.default_rng(12)
        u = gen.uniform(-2, 2, size=(10, 1))
        reps = 10 ** 4
        states = simulate_states_batch(model, [0, 0], u, reps,
                                       RngStream(13).child("mean"))
        c = model.c_matrix(theta)
        ys = (states @ c.T)[:, :, 0]
        ys = ys + RngStream(14).generator().standard_normal(ys.shape) * np.sqrt(0.5)
        ybar = (mean_trajectory(model, [0, 0], u) @ c.T).ravel()
        emp = ys.mean(axis=0)
        se = ys.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(emp - ybar) <= 3.0 * se + 1e-12)


class TestCollectData:
    def test_case_study_plan(self, model):
        data = sb.collect_data(model, [-0.5, 1.0],
                               sb.InputSampler("uniform", low=-2, high=2),
                               50, [0, 0], RngStream(21))
        assert data.n_exp == 50
        assert data.inputs.shape == (50, 1)
        assert data.outputs.shape == (50, 1)
        assert np.all(np.abs(data.inputs) <= 2.0)

    def test_single_noiseless_pair(self, noiseless):
        data = sb.collect_data(noiseless, [2.0, 0.0],
                               sb.InputSampler("uniform", low=-1, high=1),
                               1, [0.5, 0.0], RngStream(22))
        assert data.outputs[0, 0] == pytest.approx(2.0 * 0.5)

    def test_same_seed_identical(self, model):
        a = sb.collect_data(model, [1.0, 1.0],
                            sb.InputSampler("uniform", low=-2, high=2),
                            20, [0, 0], RngStream(23))
        b = sb.collect_data(model, [1.0, 1.0],
                            sb.InputSampler("uniform", low=-2, high=2),
                            20, [0, 0], RngStream(23))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outputs, b.outputs)

    def test_zero_count_rejected(self, model):
        with pytest.raises(ValueError):
            sb.collect_data(model, [1.0, 1.0],
                            sb.InputSampler("uniform", low=-1, high=1),
                            0, [0, 0], RngStream(24))

    def test_json_roundtrip(self, model, tmp_path):
        data = sb.collect_data(model, [0.3, 0.7],
                               sb.InputSampler("gaussian", mean=0, std=1),
                               5, [0, 0], RngStream(25))
        path = tmp_path / "d.json"
        data.to_json(path)
        back = sb.DataSet.from_json(path)
        assert np.array_equal(back.inputs, data.inputs)
        assert np.array_equal(back.outputs, data.outputs)
        assert np.array_equal(back.x0, data.x0)

    def test_csv_layout(self, model, tmp_path):
        data = sb.collect_data(model, [0.3, 0.7],
                               sb.InputSampler("uniform", low=-1, high=1),
                               4, [0, 0], RngStream(26))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,u_1,y_1"
        assert len(lines) == 5

    def test_csv_fields_parse_back_exactly(self, tmp_path):
        model = sb.ParametricLti(
            A=0.5 * np.eye(2), B=np.eye(2), G=np.eye(2), C0=np.zeros((2, 2)),
            C_basis=(np.eye(2),), Sigma_w=0.1 * np.eye(2),
            Sigma_e=0.2 * np.eye(2), input_box=sb.Box([-1, -1], [1, 1]))
        data = sb.collect_data(model, [0.7],
                               sb.InputSampler("uniform", low=-1, high=1),
                               6, [0, 0], RngStream(27))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        raw = path.read_bytes()
        assert raw.startswith(b"t,u_1,u_2,y_1,y_2\r\n")
        assert raw.count(b"\r\n") == 7
        rows = [line.split(",") for line in raw.decode().split("\r\n")[1:-1]]
        assert [int(r[0]) for r in rows] == list(range(6))
        fields = np.array([[float(f) for f in r[1:]] for r in rows])
        assert np.array_equal(fields[:, :2], data.inputs)
        assert np.array_equal(fields[:, 2:], data.outputs)


class TestValidation:
    def test_covariance_must_be_psd(self, model):
        with pytest.raises(ValueError, match="positive semidefinite"):
            model.with_overrides(Sigma_w=np.array([[1.0, 0.0], [0.0, -0.2]]))

    def test_covariance_must_be_symmetric(self, model):
        with pytest.raises(ValueError, match="symmetric"):
            model.with_overrides(Sigma_w=np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_input_bounds_ordered(self, model):
        with pytest.raises(ValueError, match="must not exceed"):
            model.with_overrides(input_box=sb.Box([0.5], [-0.5]))

    def test_input_box_needs_one_coordinate_per_input(self, model):
        with pytest.raises(ValueError, match="one coordinate per input"):
            model.with_overrides(input_box=sb.Box([-1, -1], [1, 1]))


class TestRngStream:
    def test_identical_paths_identical_draws(self):
        a = RngStream(77).child("a", 3).generator().normal(size=5)
        b = RngStream(77).child("a", 3).generator().normal(size=5)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStream(77).child("a").generator().normal(size=5)
        b = RngStream(77).child("b").generator().normal(size=5)
        assert not np.array_equal(a, b)
