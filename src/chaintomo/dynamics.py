"""Signal generation: spectral oracle, truncated Taylor, full state vector.

Three independent routes produce the probed single-spin expectation value.
The spectral route diagonalizes the flux chain's (m+1)-dimensional
tridiagonal matrix; the Taylor route truncates the flux expansion; the
state-vector route evolves the full 2^N chain so the bulk state can be
anything.  Agreement between the routes is what certifies signs and
factor-of-two conventions, so none of them may be expressed in terms of
another.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .chain_model import (
    ChainSpec,
    FluxChain,
    Model,
    Observable,
    Preparation,
    Probe,
    validate_spec,
)
from .errors import CapExceeded, EigenError, SpecError
from .series import delta_coefficients


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """Sampled expectation values of the probed observable.

    times are in units of 1/J and must be strictly increasing; values are
    dimensionless and bounded by 1 up to the declared noise allowance.
    """

    times: np.ndarray
    values: np.ndarray
    probe: Probe

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise SpecError("times and values must be 1-D arrays of equal length")
        if t.size == 0:
            raise SpecError("trace is empty")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise SpecError("trace contains non-finite entries")
        if np.any(np.diff(t) <= 0):
            raise SpecError("times must be strictly increasing")

    def check_physical(self, allowance: float = 0.0) -> "SignalTrace":
        """Reject values outside [-1, 1] beyond the noise allowance."""
        if np.max(np.abs(self.values)) > 1.0 + allowance:
            raise SpecError(
                f"trace values exceed the physical bound 1 + {allowance:g}"
            )
        return self


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian measurement noise, seeded for reproducibility."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise SpecError("noise sigma must be finite and nonnegative")
        # numpy's generator needs a nonnegative int; True would read as 1
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise SpecError(f"noise seed must be a nonnegative integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        return {"sigma": self.sigma, "seed": self.seed}


@dataclass(frozen=True)
class BulkState:
    """How spins 2..N start out in the state-vector simulator.

    kind "product": independent random pure state on each bulk spin;
    kind "pure": one random pure state of the whole bulk (entangled);
    kind "mixed": maximally mixed bulk, realized by averaging the signal
    over ``n_samples`` random pure bulk states.
    """

    kind: str = "product"
    seed: int = 0
    n_samples: int = 20

    def __post_init__(self):
        if self.kind not in ("product", "pure", "mixed"):
            raise SpecError(f"unknown bulk state kind: {self.kind}")
        if self.n_samples < 1:
            raise SpecError("n_samples must be positive")


def _default_probe(chain) -> Probe:
    probe = getattr(chain, "probe", None)
    if probe is None:
        probe = Probe(Observable.X1, Preparation.PLUS_X, +1)
    return probe


def spectral_signal(chain, times, probe: Probe | None = None) -> SignalTrace:
    """Exact signal from the flux chain's tridiagonal spectrum.

    The (m+1)-dimensional symmetric tridiagonal matrix T with zero
    diagonal and off-diagonal entries c_j has eigenpairs (lambda_k, v_k);
    the signal is sum_k (v_k[1])^2 cos(2 lambda_k t), exact up to
    eigensolver precision.  T is at most a few dozen rows, so it is
    built dense and handed to the symmetric solver ``numpy.linalg.eigh``.
    Non-finite links raise EigenError.  ``chain`` may be a FluxChain or a
    bare link array; the probe defaults to the chain's own.
    """
    links = np.asarray(getattr(chain, "links", chain), dtype=float)
    probe = probe or _default_probe(chain)
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(links)):
        raise EigenError("tridiagonal eigensolve failed: links must be finite")
    try:
        lam, vec = np.linalg.eigh(np.diag(links, 1) + np.diag(links, -1))
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"tridiagonal eigensolve failed: {exc}") from exc
    weight = vec[0, :] ** 2
    values = (weight[None, :] * np.cos(2.0 * np.outer(t, lam))).sum(axis=1)
    return SignalTrace(times=t, values=probe.sign * values, probe=probe)


def taylor_signal(chain, times, order: int, probe: Probe | None = None) -> SignalTrace:
    """Truncated flux expansion sum_{l<=order} (2t)^l delta_1^(l) / l!."""
    links = np.asarray(getattr(chain, "links", chain), dtype=float)
    probe = probe or _default_probe(chain)
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if order < 0:
        raise ValueError("order must be >= 0")
    table = delta_coefficients(links, order)
    d1 = table.entries[0]
    fact = 1.0
    coeffs = np.empty(order + 1)
    for l in range(order + 1):
        if l > 0:
            fact *= l
        coeffs[l] = 2.0**l * d1[l] / fact
    if not np.all(np.isfinite(coeffs)):
        raise OverflowError("series coefficients overflow before truncation order")
    values = np.polynomial.polynomial.polyval(t, coeffs)
    if not np.all(np.isfinite(values)):
        raise OverflowError("series terms overflow at the requested times")
    return SignalTrace(times=t, values=probe.sign * values, probe=probe)


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)

_PREP_STATES = {
    Preparation.PLUS_X: np.array([1, 1], dtype=complex) / np.sqrt(2),
    Preparation.MINUS_X: np.array([1, -1], dtype=complex) / np.sqrt(2),
    Preparation.PLUS_Y: np.array([1, 1j], dtype=complex) / np.sqrt(2),
    Preparation.MINUS_Y: np.array([1, -1j], dtype=complex) / np.sqrt(2),
    Preparation.ZERO: np.array([1, 0], dtype=complex),
    Preparation.ONE: np.array([0, 1], dtype=complex),
}

_OBS_MATRIX = {Observable.X1: _SX, Observable.Y1: _SY, Observable.Z1: _SZ}


def _kron_all(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def _pair_term(a: np.ndarray, b: np.ndarray, i: int, n: int) -> np.ndarray:
    factors = []
    for j in range(1, n + 1):
        if j == i:
            factors.append(a)
        elif j == i + 1:
            factors.append(b)
        else:
            factors.append(_ID)
    return _kron_all(factors)


def _site_term(a: np.ndarray, i: int, n: int) -> np.ndarray:
    return _kron_all([a if j == i else _ID for j in range(1, n + 1)])


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N Hamiltonian of the model, site 1 = leftmost factor."""
    n = spec.n_spins
    dim = 2**n
    H = np.zeros((dim, dim), dtype=complex)
    model = Model(spec.model)
    if model is Model.XX:
        J = spec.couplings["J"]
        for i in range(1, n):
            H += J[i - 1] * (_pair_term(_SX, _SX, i, n) + _pair_term(_SY, _SY, i, n))
    elif model is Model.XY:
        JX, JY = spec.couplings["JX"], spec.couplings["JY"]
        for i in range(1, n):
            H += JX[i - 1] * _pair_term(_SX, _SX, i, n)
            H += JY[i - 1] * _pair_term(_SY, _SY, i, n)
    else:
        JZ, B = spec.couplings["JZ"], spec.couplings["B"]
        for i in range(1, n):
            H += JZ[i - 1] * _pair_term(_SZ, _SZ, i, n)
        for i in range(1, n + 1):
            H += B[i - 1] * _site_term(_SX, i, n)
    return H


def _bulk_vector(kind: str, n_bulk: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "product":
        factors = []
        for _ in range(n_bulk):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            factors.append(v / np.linalg.norm(v))
        return _kron_all(factors) if factors else np.ones(1, dtype=complex)
    v = rng.normal(size=2**n_bulk) + 1j * rng.normal(size=2**n_bulk)
    return v / np.linalg.norm(v)


def statevector_signal(
    spec: ChainSpec,
    probe: Probe,
    bulk_state: BulkState,
    times,
    cap: int = 12,
) -> SignalTrace:
    """Evolve the full 2^N chain and measure the probed observable.

    Exists to test that the signal does not depend on how spins 2..N
    start out.  Spin 1 is prepared in probe.preparation; the bulk per
    ``bulk_state``.  Dense eigendecomposition keeps this exact at desk
    scale, hence the site cap (default 12).
    """
    validate_spec(spec)
    n = spec.n_spins
    if n > cap:
        raise CapExceeded(f"n_spins={n} exceeds the state-vector cap {cap}")
    t = np.atleast_1d(np.asarray(times, dtype=float))
    H = build_hamiltonian(spec)
    try:
        vals, vecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"dense eigensolve failed: {exc}") from exc
    obs = _site_term(_OBS_MATRIX[Observable(probe.observable)], 1, n)
    spin1 = _PREP_STATES[Preparation(probe.preparation)]
    rng = np.random.default_rng(bulk_state.seed)
    n_samples = bulk_state.n_samples if bulk_state.kind == "mixed" else 1
    sample_kind = "pure" if bulk_state.kind == "mixed" else bulk_state.kind

    total = np.zeros(t.size)
    for _ in range(n_samples):
        psi0 = np.kron(spin1, _bulk_vector(sample_kind, n - 1, rng))
        c0 = vecs.conj().T @ psi0
        phases = np.exp(-1j * np.outer(t, vals))
        psi_t = (phases * c0[None, :]) @ vecs.T
        norms = np.einsum("ti,ti->t", psi_t.conj(), psi_t).real
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise EigenError("state norm drifted beyond 1e-9 during evolution")
        total += np.einsum("ti,ij,tj->t", psi_t.conj(), obs, psi_t).real
    return SignalTrace(times=t, values=total / n_samples, probe=probe)


def add_noise(trace: SignalTrace, noise: NoiseSpec) -> SignalTrace:
    """Additive i.i.d. Gaussian noise from a seeded generator."""
    rng = np.random.default_rng(noise.seed)
    values = trace.values + rng.normal(0.0, noise.sigma, size=trace.values.size)
    return SignalTrace(times=trace.times, values=values, probe=trace.probe)


def _sidecar_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def write_trace(trace: SignalTrace, csv_path: str | Path, metadata: dict | None = None) -> Path:
    """Write a trace as `t,value` CSV plus a JSON metadata sidecar.

    The sidecar always records the probe; callers add model, noise, and
    seed information.  Floats are written with full round-trip precision.
    """
    csv_path = Path(csv_path)
    rows = zip(trace.times.tolist(), trace.values.tolist())
    with open(csv_path, "w", newline="") as fh:
        fh.write("t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
    meta = {"probe": trace.probe.to_dict()}
    meta.update(metadata or {})
    _sidecar_path(csv_path).write_text(json.dumps(meta, indent=2) + "\n")
    return csv_path


def read_trace(csv_path: str | Path) -> tuple[SignalTrace, dict]:
    """Read a trace CSV and its metadata sidecar."""
    csv_path = Path(csv_path)
    if not csv_path.is_file():
        raise SpecError(f"trace file not found: {csv_path}")
    times: list[float] = []
    values: list[float] = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["t", "value"]:
            raise SpecError(f"{csv_path}: expected CSV header 't,value'")
        for row in reader:
            if not row:
                continue
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise SpecError(f"{csv_path}: malformed row {row!r}") from exc
    sidecar = _sidecar_path(csv_path)
    if not sidecar.is_file():
        raise SpecError(f"metadata sidecar not found: {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"metadata sidecar {sidecar} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or "probe" not in meta:
        raise SpecError(f"{sidecar}: metadata must identify the probe")
    try:
        probe = Probe.from_dict(meta["probe"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{sidecar}: malformed probe: {exc}") from exc
    return SignalTrace(np.array(times), np.array(values), probe), meta
