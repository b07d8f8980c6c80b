"""Parametric stochastic LTI systems: simulation and data collection.

The model class is

    x(t+1) = A x(t) + B u(t) + G w(t),      w ~ N(0, Sigma_w) iid
    y(t)   = C(theta) x(t) + e(t),          e ~ N(0, Sigma_e) iid

with C affine in the unknown parameter theta: C(theta) = C0 + sum_i theta_i Ci,
and each input u(t) admissible inside one per-step `Box`.  `Box` is the
package's one box type: it is also the uniform prior's support, a parameter
search region and, as `Cells`, a partition of PWA cells.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .rng import RngStream

_PSD_TOL = 1e-9


def _as_matrix(m, rows=None, cols=None, name="matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    return arr


def _check_covariance(m: np.ndarray, name: str) -> np.ndarray:
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(m)
    if eigs.min() < -_PSD_TOL:
        raise ValueError(f"{name} must be positive semidefinite (min eig {eigs.min():.3e})")
    return m


def psd_factor(m: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = m for a (possibly singular) PSD matrix."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return m
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(m)
        w = np.clip(w, 0.0, None)
        return v * np.sqrt(w)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box lower <= x <= upper: a theta search region, a
    per-step input box, a prior's support, or a PWA cell with its `label`."""

    lower: np.ndarray
    upper: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        lo, hi = self._bounds(self.lower), self._bounds(self.upper)
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have matching shapes")
        if (lo > hi).any():
            raise ValueError("box lower bounds must not exceed upper bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @staticmethod
    def _bounds(values) -> np.ndarray:
        return np.asarray(values, dtype=float).reshape(-1)

    @property
    def volume(self):
        """Product of the side lengths; one per cell for `Cells`."""
        return np.prod(self.upper - self.lower, axis=-1)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def stacked(self, t: int):
        """Bounds of the inputs u(0) .. u(t-1), stacked."""
        return np.tile(self.lower, t), np.tile(self.upper, t)


@dataclass(frozen=True)
class ParametricLti:
    """LTI system with parameter-affine output map, Gaussian noises and an
    admissible per-step input box."""

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray
    C0: np.ndarray
    C_basis: tuple
    Sigma_w: np.ndarray
    Sigma_e: np.ndarray
    input_box: Box

    def __post_init__(self):
        A = _as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError("A must be square")
        B = _as_matrix(self.B, rows=n, name="B")
        G = _as_matrix(self.G, rows=n, name="G")
        C0 = _as_matrix(self.C0, cols=n, name="C0")
        p = C0.shape[0]
        basis = tuple(_as_matrix(Ci, rows=p, cols=n, name="C basis term")
                      for Ci in self.C_basis)
        Sw = _check_covariance(_as_matrix(self.Sigma_w, rows=G.shape[1],
                                          cols=G.shape[1], name="Sigma_w"), "Sigma_w")
        Se = _check_covariance(_as_matrix(self.Sigma_e, rows=p, cols=p,
                                          name="Sigma_e"), "Sigma_e")
        if self.input_box.lower.shape != (B.shape[1],):
            raise ValueError("the input box must have one coordinate per input")
        for key, value in (("A", A), ("B", B), ("G", G), ("C0", C0),
                           ("C_basis", basis), ("Sigma_w", Sw),
                           ("Sigma_e", Se)):
            object.__setattr__(self, key, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C0.shape[0]

    @property
    def q(self) -> int:
        return self.G.shape[1]

    @property
    def d(self) -> int:
        return len(self.C_basis)

    def c_matrix(self, theta) -> np.ndarray:
        """Output map C(theta) = C0 + sum_i theta_i Ci."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape != (self.d,):
            raise ValueError(f"theta must have length {self.d}, got {theta.shape}")
        c = self.C0.copy()
        for ti, Ci in zip(theta, self.C_basis):
            c = c + ti * Ci
        return c

    def with_overrides(self, Sigma_w=None, Sigma_e=None, G=None,
                       input_box=None) -> "ParametricLti":
        return ParametricLti(
            A=self.A, B=self.B,
            G=self.G if G is None else G,
            C0=self.C0, C_basis=self.C_basis,
            Sigma_w=self.Sigma_w if Sigma_w is None else Sigma_w,
            Sigma_e=self.Sigma_e if Sigma_e is None else Sigma_e,
            input_box=self.input_box if input_box is None else input_box,
        )


def laguerre_model(a: float) -> ParametricLti:
    """Two-state Laguerre-basis benchmark with pole coefficient `a`, |a| < 1.

    Process noise covariance 0.5 I2 enters through G = I2; the measurement
    noise on the scalar output has variance 0.5.  The admissible input range
    for verification is [-0.2, 0.2].
    """
    a = float(a)
    if abs(a) >= 1.0:
        raise ValueError(f"Laguerre coefficient must satisfy |a| < 1, got {a}")
    r = np.sqrt(1.0 - a * a)
    return ParametricLti(
        A=[[a, 0.0], [1.0 - a * a, a]],
        B=[[r], [-a * r]],
        G=np.eye(2),
        C0=np.zeros((1, 2)),
        C_basis=([[1.0, 0.0]], [[0.0, 1.0]]),
        Sigma_w=0.5 * np.eye(2),
        Sigma_e=[[0.5]],
        input_box=Box([-0.2], [0.2]),
    )


def simulate(model: ParametricLti, theta, x0, inputs, rng: RngStream):
    """Run the dynamics once under process and measurement noise.

    Returns (states, clean_outputs, noisy_outputs) with T+1 rows each, where
    T = len(inputs).  Inputs are not clipped to the admissible range; data
    collection is allowed to excite the system beyond it.  Deterministic
    given the rng stream: process noise is drawn first, then measurement
    noise, each in one block.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 must have length {model.n}, got {x0.shape}")
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != model.m:
        raise ValueError(f"inputs must have shape (T, {model.m})")
    T = u.shape[0]

    gen = rng.generator()
    w = gen.standard_normal((T, model.q)) @ psd_factor(model.Sigma_w).T
    e = gen.standard_normal((T + 1, model.p)) @ psd_factor(model.Sigma_e).T

    states = np.empty((T + 1, model.n))
    states[0] = x0
    for t in range(T):
        states[t + 1] = model.A @ states[t] + model.B @ u[t] + model.G @ w[t]

    c = model.c_matrix(theta)
    clean = states @ c.T
    noisy = clean + e
    return states, clean, noisy


def simulate_states_batch(model: ParametricLti, x0, inputs, n_paths: int,
                          rng: RngStream) -> np.ndarray:
    """Simulate `n_paths` independent noise realizations of the state equation.

    All paths share the same input sequence.  Returns shape (n_paths, T+1, n).
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    T = u.shape[0]
    gen = rng.generator()
    w = gen.standard_normal((n_paths, T, model.q)) @ psd_factor(model.Sigma_w).T
    states = np.empty((n_paths, T + 1, model.n))
    states[:, 0, :] = x0
    for t in range(T):
        states[:, t + 1, :] = (states[:, t, :] @ model.A.T
                               + model.B @ u[t] + w[:, t, :] @ model.G.T)
    return states


@dataclass(frozen=True)
class DataSet:
    """Input/output pairs collected from the noisy system."""

    inputs: np.ndarray
    outputs: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.outputs, dtype=float)
        if u.ndim != 2 or y.ndim != 2:
            raise ValueError("inputs and outputs must be 2-dimensional arrays")
        if u.shape[0] != y.shape[0]:
            raise ValueError("inputs and outputs must have the same length")
        if u.shape[0] < 1:
            raise ValueError("a dataset must contain at least one measurement")
        object.__setattr__(self, "inputs", u)
        object.__setattr__(self, "outputs", y)
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))

    @property
    def n_exp(self) -> int:
        return self.inputs.shape[0]

    def to_csv(self, path) -> None:
        path = Path(path)
        m, p = self.inputs.shape[1], self.outputs.shape[1]
        header = ["t"] + [f"u_{i+1}" for i in range(m)] + [f"y_{i+1}" for i in range(p)]
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            # Python floats, so each field is the plain shortest repr.
            rows = zip(self.inputs.tolist(), self.outputs.tolist())
            for t, (u, y) in enumerate(rows):
                writer.writerow([t] + u + y)

    def to_json(self, path) -> None:
        payload = {
            "x0": self.x0.tolist(),
            "inputs": self.inputs.tolist(),
            "outputs": self.outputs.tolist(),
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    @staticmethod
    def from_json(path) -> "DataSet":
        payload = json.loads(Path(path).read_text())
        return DataSet(inputs=np.asarray(payload["inputs"], dtype=float),
                       outputs=np.asarray(payload["outputs"], dtype=float),
                       x0=np.asarray(payload["x0"], dtype=float))


@dataclass(frozen=True)
class InputSampler:
    """IID excitation distribution for data collection."""

    kind: str
    low: float = 0.0
    high: float = 0.0
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"low {self.low} exceeds high {self.high}")
        if self.std < 0:
            raise ValueError(f"std must be >= 0, got {self.std}")

    def draw(self, gen: np.random.Generator, shape) -> np.ndarray:
        if self.kind == "uniform":
            return gen.uniform(self.low, self.high, size=shape)
        if self.kind == "gaussian":
            return self.mean + self.std * gen.standard_normal(shape)
        raise ValueError(f"unknown input sampler kind {self.kind!r}")


def collect_data(model: ParametricLti, theta_true, input_sampler: InputSampler,
                 n_exp: int, x0, rng: RngStream) -> DataSet:
    """Excite the system with iid inputs and record the noisy outputs.

    The i-th output is measured at the time its input is applied, so the
    dataset pairs (u(t), y(t)) for t = 0 .. n_exp - 1.
    """
    if n_exp < 1:
        raise ValueError("n_exp must be at least 1")
    gen = rng.child("inputs").generator()
    u = input_sampler.draw(gen, (n_exp, model.m))
    _, _, noisy = simulate(model, theta_true, x0, u, rng.child("noise"))
    return DataSet(inputs=u, outputs=noisy[:n_exp], x0=np.asarray(x0, dtype=float))


def mean_trajectory(model: ParametricLti, x0, inputs) -> np.ndarray:
    """Noise-free state trajectory (the mean of the stochastic dynamics)."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    T = u.shape[0]
    states = np.empty((T + 1, model.n))
    states[0] = x0
    for t in range(T):
        states[t + 1] = model.A @ states[t] + model.B @ u[t]
    return states
