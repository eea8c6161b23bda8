"""Signal generation and trace I/O: spectral oracle, noise, CSV files.

spectral_signal diagonalizes the flux chain's (m+1)-dimensional
tridiagonal matrix, which is how the pipeline simulates a spec.  The
paper's other two routes, the truncated Taylor series and the full 2^N
state vector, live in chaintomo.reference, where tests hold this one
against them.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain_model import Observable, Preparation, Probe
from .errors import EigenError, SpecError


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
        object.__setattr__(self, "seed", int(seed))

    def to_dict(self) -> dict:
        return {"sigma": self.sigma, "seed": self.seed}


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


def add_noise(trace: SignalTrace, noise: NoiseSpec) -> SignalTrace:
    """Additive i.i.d. Gaussian noise from a seeded generator."""
    rng = np.random.default_rng(noise.seed)
    values = trace.values + rng.normal(0.0, noise.sigma, size=trace.values.size)
    return SignalTrace(times=trace.times, values=values, probe=trace.probe)


def _sidecar_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def write_trace(trace: SignalTrace, csv_path: str | Path, metadata: dict | None = None) -> Path:
    """Write a trace as `t,value` CSV plus a JSON metadata sidecar.

    The sidecar always records the probe; callers add the chain's fields
    (TraceBundle.to_metadata).  Floats are written with full round-trip
    precision.
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
    except (KeyError, TypeError, SpecError) as exc:
        raise SpecError(f"{sidecar}: malformed probe: {exc}") from exc
    return SignalTrace(np.array(times), np.array(values), probe), meta
