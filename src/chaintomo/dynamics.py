"""Signal generation and trace I/O: spectral oracle, noise, CSV files.

spectral_signal diagonalizes the flux chain's (m+1)-dimensional
tridiagonal matrix, which is how the pipeline simulates a spec.  The
paper's other two routes, the truncated Taylor series and the full 2^N
state vector, live in chaintomo.reference, where tests hold this one
against them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain_model import Probe, _read_json
from .errors import EigenError, SpecError, _floats, _instance, _integer, _is_real


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """Sampled expectation values of the probed observable.

    times are in units of 1/J and must be strictly increasing; values are
    dimensionless, and a TraceBundle bounds them by 1 + max(0.1, 6 sigma).
    Both must be finite and are stored as read-only float copies.  probe
    must be a Probe member; text is read by Probe.from_dict.
    """

    times: np.ndarray
    values: np.ndarray
    probe: Probe

    def __post_init__(self):
        _instance(self.probe, Probe, "SignalTrace", "a Probe")
        t = _floats(self.times, "times")
        v = _floats(self.values, "values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.size != v.size:
            raise SpecError("times and values must be 1-D arrays of equal length")
        if t.size == 0:
            raise SpecError("trace is empty")
        if (t[1:] - t[:-1] <= 0).any():
            raise SpecError("times must be strictly increasing")


def _check_sigma(sigma) -> float:
    """A noise level, a finite nonnegative number, as a float; else SpecError."""
    if not (_is_real(sigma) and sigma >= 0):
        raise SpecError("noise sigma must be finite and nonnegative")
    return float(sigma)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian measurement noise, seeded for reproducibility."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))
        # numpy's generator needs a nonnegative int
        object.__setattr__(self, "seed", _integer(self.seed, "noise seed", 0))


def spectral_signal(links, times, probe: Probe = Probe.PLUS_X) -> SignalTrace:
    """Exact signal from the flux chain's tridiagonal spectrum.

    The (m+1)-dimensional symmetric tridiagonal matrix T with zero
    diagonal and off-diagonal entries c_j has eigenpairs (lambda_k, v_k);
    the signal is sum_k (v_k[1])^2 cos(2 lambda_k t), exact up to
    eigensolver precision.  T is at most a few dozen rows, so it is
    built dense and handed to the symmetric solver ``numpy.linalg.eigh``;
    the cosines form one row per eigenvalue, and the signal is their
    weighted sum, one matrix-vector product.
    Links that are not a 1-D array of finite numbers raise SpecError; a
    solver failure raises EigenError.  A FluxChain passes its ``links``
    and ``probe``; a probe that is not a Probe is a SpecError.
    """
    _instance(probe, Probe, "spectral_signal", "a Probe")
    links = _floats(links, "links")
    t = _floats(times, "times")
    try:
        lam, vec = np.linalg.eigh(np.diag(links, 1) + np.diag(links, -1))
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"tridiagonal eigensolve failed: {exc}") from exc
    weight = vec[0, :] ** 2
    # 2 * lam is exact, so each entry equals cos(2 * (lam * t)) bit for bit
    values = weight @ np.cos((2.0 * lam)[:, None] * t)
    return SignalTrace(times=t, values=probe.sign * values, probe=probe)


def add_noise(trace: SignalTrace, noise: NoiseSpec) -> SignalTrace:
    """Additive i.i.d. Gaussian noise from a seeded generator."""
    _instance(noise, NoiseSpec, "add_noise", "a NoiseSpec")
    rng = np.random.default_rng(noise.seed)
    values = trace.values + rng.normal(0.0, noise.sigma, size=trace.values.size)
    return SignalTrace(times=trace.times, values=values, probe=trace.probe)


def _sidecar_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def write_trace(trace: SignalTrace, csv_path: str | Path, metadata: dict | None = None) -> Path:
    """Write a trace as `t,value` CSV plus a JSON metadata sidecar.

    The sidecar always records the trace's own probe; callers add the
    chain's fields (TraceBundle.to_metadata), and metadata naming a probe
    is refused.  Floats are written with full round-trip precision.
    """
    _instance(trace, SignalTrace, "write_trace", "a SignalTrace")
    if metadata and "probe" in metadata:
        raise SpecError("write_trace: metadata must not name a probe; "
                        "the sidecar records the trace's own")
    csv_path = Path(csv_path)
    rows = zip(trace.times.tolist(), trace.values.tolist())
    with open(csv_path, "w", newline="") as fh:
        fh.write("t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
    meta = {"probe": trace.probe.to_dict()}
    meta.update(metadata or {})
    _sidecar_path(csv_path).write_text(json.dumps(meta, indent=2) + "\n")
    return csv_path


def read_trace(csv_path: str | Path) -> tuple[SignalTrace, dict]:
    """Read a trace CSV and its metadata sidecar; each refusal names its file."""
    csv_path = Path(csv_path)
    if not csv_path.is_file():
        raise SpecError(f"trace file not found: {csv_path}")
    try:  # utf-8-sig: spreadsheets start a "CSV UTF-8" file with a byte-order mark
        header, _, body = csv_path.read_text(encoding="utf-8-sig").partition("\n")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{csv_path}: trace is not UTF-8 text: {exc}") from exc
    if [h.strip() for h in next(csv.reader([header]))[:2]] != ["t", "value"]:
        raise SpecError(f"{csv_path}: expected CSV header 't,value'")
    if not body.strip("\n"):  # checked first: loadtxt warns on a body with no rows
        raise SpecError(f"{csv_path}: trace is empty")
    # numpy's C reader: blank rows skipped, numbers may be quoted, extra columns ignored
    dialect = dict(delimiter=",", usecols=(0, 1), ndmin=2, comments=None, quotechar='"')
    try:
        data = np.loadtxt(io.StringIO(body), **dialect)
    except ValueError as exc:
        # name the first row refused on its own; rows parse alone unless a quote spans lines
        for line, row in ((n, r) for n, r in enumerate(body.split("\n"), 2) if r):
            try:
                np.loadtxt([row], **dialect)
            except ValueError:
                raise SpecError(f"{csv_path}: malformed row at line {line}: {row!r}") from exc
        raise SpecError(f"{csv_path}: malformed rows: {exc}") from exc
    sidecar = _sidecar_path(csv_path)
    meta = _read_json(sidecar, "metadata sidecar")
    if not isinstance(meta, dict) or "probe" not in meta:
        raise SpecError(f"{sidecar}: metadata must identify the probe")
    try:
        probe = Probe.from_dict(meta["probe"])
    except (KeyError, TypeError, SpecError) as exc:
        raise SpecError(f"{sidecar}: malformed probe: {exc}") from exc
    try:
        return SignalTrace(data[:, 0], data[:, 1], probe), meta
    except SpecError as exc:  # a value that is not finite, a time out of order
        raise SpecError(f"{csv_path}: {exc}") from exc
