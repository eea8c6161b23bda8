"""The paper's reference routes: Taylor matching and the full state vector.

Neither route is on the pipeline's path; tests compare the pipeline
against them, which is what certifies its signs and factor-of-two
conventions.  None of the three signal routes (spectral_signal in
dynamics, taylor_signal and statevector_signal here) is expressed in
terms of another.

The Taylor route.  The probed signal has the exact expansion

    alpha_1(t) = sum_l (2t)^l / l! * delta_1^(l),

where the flux coefficients obey the two-term recurrence

    delta_j^(l) = (-1)^j [ c_{j-1} delta_{j-1}^(l-1) + c_j delta_{j+1}^(l-1) ],

with boundary convention c_0 = c_{m+1} = 0 and initial condition
delta_j^(0) = 1 for j = 1, else 0.  Odd orders of delta_1 vanish, so

    alpha_1(t) = 1 + sum_j mu_j t^{2j},    mu_j = 2^{2j} delta_1^(2j) / (2j)!

Two structural facts drive the paper's inversion: the light cone (order
l reaches at most node l+1, so mu_j depends only on links c_1..c_j) and
affinity (mu_j is affine in c_j^2 once c_1..c_{j-1} are fixed, because
exactly one order-2j round trip reaches link j).  Matching mu_j against
the fitted coefficients eta_j therefore solves for one new link per
order (invert_couplings).  That is a Hankel moment inversion whose
conditioning grows like (2j)!/4^j, which is why the pipeline inverts by
Lanczos (series.spectral_couplings) instead.  taylor_signal truncates
the same expansion.

The state-vector route.  statevector_signal evolves the full 2^N chain,
so spins 2..N can start in any state (BulkState): it shows that the
signal does not depend on them.  Dense matrices limit it to
STATEVECTOR_CAP sites.

The package's __init__ does not import this module and exports none of
its names; import it as chaintomo.reference.  (tomography imports two of
them, only so that the benchmark's span tracer finds them there.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chain_model import ChainSpec, Model, Observable, Probe
from .dynamics import SignalTrace
from .errors import DegenerateError, EigenError, InversionError, SpecError
from .errors import _floats, _instance, _integer
from .fitting import CosineSumModel

# tolerances of invert_couplings: a squared link down to -RADICAND_TOL is
# rounding and clamps to zero; a slope of the order-2j coefficient in c_j^2
# within DEGENERACY_TOL of the coefficient is lost to rounding
RADICAND_TOL = 1e-8
DEGENERACY_TOL = 1e-14


def delta_coefficients(links, max_order: int) -> np.ndarray:
    """The recurrence table of delta_j^(l), l = 0..max_order.

    Returns an (m+1) x (max_order+1) array whose row j-1 holds node j:
    table[j - 1, l] = delta_j^(l).  Takes an array of link strengths
    (zeros are permitted here; probing the inversion uses partially
    zeroed chains).
    """
    links = _floats(links, "links")
    max_order = _integer(max_order, "max_order", 0)
    m = links.size
    cpad = np.zeros(m + 2)
    cpad[1 : m + 1] = links
    # tab[l, j] = delta_j^(l); ghost columns j=0 and j=m+2 stay zero
    tab = np.zeros((max_order + 1, m + 3))
    tab[0, 1] = 1.0
    sign = (-1.0) ** np.arange(1, m + 2)
    for l in range(1, max_order + 1):
        tab[l, 1 : m + 2] = sign * (
            cpad[0 : m + 1] * tab[l - 1, 0 : m + 1]
            + cpad[1 : m + 2] * tab[l - 1, 2 : m + 3]
        )
    return tab[:, 1 : m + 2].T.copy()


def _mu_unchecked(links, n_orders: int) -> np.ndarray:
    """mu_1..mu_K from the recurrence, no link-count precondition."""
    d1 = delta_coefficients(links, 2 * n_orders)[0]
    return np.array(
        [4.0**j * d1[2 * j] / math.factorial(2 * j) for j in range(1, n_orders + 1)]
    )


def mu_coefficients(links, n_orders: int) -> np.ndarray:
    """Taylor coefficients mu_1..mu_K of the chain's signal.

    Requires m >= K: by the light cone, mu_j carries information about
    links 1..j only, so orders beyond the link count determine nothing new.
    """
    links = _floats(links, "links")
    n_orders = _integer(n_orders, "n_orders", 0)
    if links.size < n_orders:
        raise SpecError(
            f"{n_orders} orders requested but chain has only {links.size} links"
        )
    return _mu_unchecked(links, n_orders)


def eta_coefficients(fit, n_orders: int) -> np.ndarray:
    """Taylor coefficients eta_1..eta_K of a fitted cosine sum.

    For sum_i A_i cos(omega_i t) the t^{2j} coefficient is

        eta_j = (-1)^j / (2j)! * sum_i A_i omega_i^(2j),

    linear in each amplitude.  A dc term contributes only at order zero,
    so it never enters.  Anything but a CosineSumModel is a SpecError.
    """
    _instance(fit, CosineSumModel, "eta_coefficients", "a CosineSumModel")
    n_orders = _integer(n_orders, "n_orders", 0)
    A, om = fit.amplitudes, fit.frequencies
    return np.array(
        [
            (-1.0) ** j / math.factorial(2 * j) * float(np.sum(A * om ** (2 * j)))
            for j in range(1, n_orders + 1)
        ]
    )


def invert_couplings(eta) -> np.ndarray:
    """Solve eta_j = mu_j(c) sequentially for the link magnitudes.

    One link per entry of eta: eta_1..eta_m give c_1..c_m.

    At step j the earlier links are already estimated and mu_j is affine
    in c_j^2, so two probe evaluations pin the line: p0 at c_j = 0 and p1
    at c_j = 1, links beyond j set to zero (legal by the light cone).
    Then c_j = sqrt((eta_j - p0)/(p1 - p0)).  Returns positive roots;
    signs are applied downstream by the caller when they are known.

    Small negative radicands (within RADICAND_TOL) are rounding and
    clamp to zero; larger ones raise InversionError flagging a fit
    inconsistency.  A slope |p1 - p0| at most DEGENERACY_TOL times |p1|
    makes this link unidentifiable: DegenerateError.  The slope is
    exactly zero when an earlier link was estimated at zero; otherwise
    the single round trip that reaches link j is lost to rounding among
    all the others of order 2j, as happens for long chains.
    """
    eta = _floats(eta, "eta")
    m = eta.size
    c = np.zeros(m)
    for j in range(1, m + 1):
        probe = np.zeros(j)
        probe[: j - 1] = c[: j - 1]
        p0 = _mu_unchecked(probe, j)[-1]
        probe[j - 1] = 1.0
        p1 = _mu_unchecked(probe, j)[-1]
        if abs(p1 - p0) <= DEGENERACY_TOL * abs(p1):
            if np.any(c[: j - 1] == 0.0):
                cause = "an earlier link was estimated at zero"
            else:
                cause = (
                    f"its slope {abs(p1 - p0):.3e} in the order-{2 * j} coefficient "
                    f"{p1:.3e} is lost to rounding"
                )
            raise DegenerateError(f"link {j} is unidentifiable: {cause}", link=j)
        ratio = (eta[j - 1] - p0) / (p1 - p0)
        if ratio < -RADICAND_TOL:
            raise InversionError(
                f"link {j}: squared coupling came out {ratio:.3e}; "
                "the fit is inconsistent with a chain of this length",
                link=j,
                radicand=ratio,
            )
        c[j - 1] = math.sqrt(max(ratio, 0.0))
    return c


def taylor_signal(links, times, order: int, probe: Probe = Probe.PLUS_X) -> SignalTrace:
    """Truncated flux expansion sum_{l<=order} (2t)^l delta_1^(l) / l!."""
    t = _floats(times, "times")
    order = _integer(order, "order", 0)
    d1 = delta_coefficients(links, order)[0]
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
        object.__setattr__(self, "seed", _integer(self.seed, "bulk seed", 0))
        object.__setattr__(self, "n_samples", _integer(self.n_samples, "n_samples", 1))


# most sites statevector_signal evolves: its dense eigensolve holds
# 2^N x 2^N complex matrices, 256 MiB each at 12 sites
STATEVECTOR_CAP = 12

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)

_PREP_STATES = {
    Probe.PLUS_X: np.array([1, 1], dtype=complex) / np.sqrt(2),
    Probe.MINUS_X: np.array([1, -1], dtype=complex) / np.sqrt(2),
    Probe.PLUS_Y: np.array([1, 1j], dtype=complex) / np.sqrt(2),
    Probe.MINUS_Y: np.array([1, -1j], dtype=complex) / np.sqrt(2),
    Probe.ZERO: np.array([1, 0], dtype=complex),
    Probe.ONE: np.array([0, 1], dtype=complex),
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
    if spec.model is Model.XX:
        J = spec.couplings["J"]
        for i in range(1, n):
            H += J[i - 1] * (_pair_term(_SX, _SX, i, n) + _pair_term(_SY, _SY, i, n))
    elif spec.model is Model.XY:
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
) -> SignalTrace:
    """Evolve the full 2^N chain and measure the probed observable.

    Exists to test that the signal does not depend on how spins 2..N
    start out.  Spin 1 is prepared in the probe's eigenstate; the bulk per
    ``bulk_state``.  Dense eigendecomposition keeps this exact at desk
    scale, hence the site cap STATEVECTOR_CAP.
    """
    n = spec.n_spins
    if n > STATEVECTOR_CAP:
        raise SpecError(f"n_spins={n} exceeds the state-vector cap {STATEVECTOR_CAP}")
    t = _floats(times, "times")
    H = build_hamiltonian(spec)
    try:
        vals, vecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"dense eigensolve failed: {exc}") from exc
    obs = _site_term(_OBS_MATRIX[probe.observable], 1, n)
    spin1 = _PREP_STATES[probe]
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
