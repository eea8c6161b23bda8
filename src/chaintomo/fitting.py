"""Cosine-sum recovery from a sampled trace.

The probed signal is a finite sum of cosines (plus a constant when the
flux chain has an odd node count).  estimate_spectrum seeds frequencies
by the matrix pencil, a grid-free subspace estimate that separates lines
closer than one periodogram bin, and amplitudes by linear least squares.
The pencil's shift matrix follows from the orthonormal signal basis in
closed form, so a seed costs one SVD.  refine_fit polishes everything
with damped least squares.  It stops when the sum of squares stops
falling, when a step is rounding noise (STEP_FLOOR), when a line leaves
the band below pi/dt, or after max_iter steps.  fit_trace runs the two
once and rejects fits that stay above the residual floor or put a line
beyond the Nyquist frequency.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ResolutionError, SpecError, TomographyWarning

# refine_fit ends as converged once a damped step is at most this fraction
# of |theta|: about 4.5 ulp, so the step only moves rounding noise
STEP_FLOOR = 1e-15
# estimate_spectrum declines a pencil whose 1 - |v|^2 (v the last row of
# the signal basis) is at most this: rounding level, no shift to solve for
SHIFT_GAP_FLOOR = 1e-13


@dataclass(frozen=True, eq=False)
class CosineSumModel:
    """Fitted amplitudes and angular frequencies, canonically ascending.

    dc is None when no constant term is modeled.  residual_rms is the
    root-mean-square misfit of the model that produced the parameters;
    iterations counts refinement steps (0 for a raw seed).
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    dc: float | None = None
    residual_rms: float = float("nan")
    iterations: int = 0

    def __post_init__(self):
        A = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        om = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "amplitudes", A)
        object.__setattr__(self, "frequencies", om)
        if A.shape != om.shape or A.ndim != 1:
            raise SpecError("amplitudes and frequencies must match in length")
        if A.size < 1:
            raise SpecError("a cosine-sum model needs at least one term")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(om))):
            raise SpecError("model parameters must be finite")
        if np.any(om < 0):
            raise SpecError("frequencies must be nonnegative")

    @property
    def n_terms(self) -> int:
        return int(self.amplitudes.size)

    @property
    def amplitude_sum(self) -> float:
        """sum A_i + dc; equals the noiseless signal at t = 0."""
        return float(self.amplitudes.sum() + (self.dc or 0.0))

    def evaluate(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.cos(np.outer(t, self.frequencies)) @ self.amplitudes
        if self.dc is not None:
            out = out + self.dc
        return out

    def sorted_by_frequency(self) -> "CosineSumModel":
        order = np.argsort(self.frequencies)
        return replace(
            self,
            amplitudes=self.amplitudes[order],
            frequencies=self.frequencies[order],
        )

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"A": float(a), "omega": float(w)}
                for a, w in zip(self.amplitudes, self.frequencies)
            ],
            "dc": None if self.dc is None else float(self.dc),
            "residual_rms": float(self.residual_rms),
            "iterations": int(self.iterations),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CosineSumModel":
        return cls(
            amplitudes=np.array([term["A"] for term in d["terms"]], dtype=float),
            frequencies=np.array([term["omega"] for term in d["terms"]], dtype=float),
            dc=None if d.get("dc") is None else float(d["dc"]),
            residual_rms=float(d.get("residual_rms", float("nan"))),
            iterations=int(d.get("iterations", 0)),
        )


def _times_values(trace) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(trace, "times"):
        times, values = trace.times, trace.values
    else:
        times, values = trace
    return np.asarray(times, dtype=float), np.asarray(values, dtype=float)


def _check_uniform(times: np.ndarray) -> float:
    steps = np.diff(times)
    dt = steps[0]
    # written out rather than np.allclose, which costs several times more;
    # the negated <= also rejects NaN steps
    if not np.max(np.abs(steps - dt)) <= 1e-9 * abs(dt):
        raise SpecError("trace sampling must be uniform")
    return float(dt)


def _rayleigh(times: np.ndarray) -> float:
    # frequency resolution of the window: one periodogram bin
    return 2.0 * np.pi / (times[-1] - times[0])


def _lstsq_amplitudes(
    times: np.ndarray, values: np.ndarray, freqs: np.ndarray, include_dc: bool
) -> tuple[np.ndarray, float | None, float]:
    design = np.cos(np.outer(times, freqs))
    if include_dc:
        design = np.hstack([design, np.ones((times.size, 1))])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ coef
    rms = float(np.sqrt(resid @ resid / times.size))
    if include_dc:
        return coef[:-1], float(coef[-1]), rms
    return coef, None, rms


def _shift_matrix(basis: np.ndarray) -> np.ndarray:
    """The least-squares map pinv(basis[:-1]) @ basis[1:] of an
    orthonormal basis, without a second SVD.

    The Gram matrix of all rows but the last is I - v v^T, with v the
    last row, so Sherman-Morrison inverts it in closed form.  A last row
    of unit norm leaves the shift undetermined: ResolutionError.
    """
    v = basis[-1]
    gap = 1.0 - v @ v
    if not gap > SHIFT_GAP_FLOOR:
        raise ResolutionError(
            f"the signal subspace ends on its last lag (1 - |v|^2 = {gap:.1e}); "
            "the pencil's shift is undetermined"
        )
    C = basis[:-1].T @ basis[1:]
    return C + np.outer(v, v @ C) * (1.0 / gap)


def estimate_spectrum(
    trace, n_terms: int, *, include_dc: bool = False
) -> CosineSumModel:
    """Seed a cosine-sum model by the matrix pencil (Hua & Sarkar 1990).

    A sum of p complex exponentials makes the Hankel matrix of
    the samples rank p; its dominant right-singular subspace is shift
    invariant, and the eigenvalues of the one-step map are the poles
    exp(i omega dt).  That subspace's basis is orthonormal, so the
    one-step map comes from it in closed form (_shift_matrix) and the
    seed costs one SVD; a basis whose last row has unit norm leaves the
    map undetermined and raises ResolutionError.  Each cosine contributes
    a conjugate pair, the dc term a pole at 1.  The estimate is
    grid-free, so it separates lines closer than one Rayleigh bin.  The
    n_terms lowest positive frequencies above a quarter bin are kept and
    the amplitudes (and dc when requested) filled by linear least
    squares.  Fewer such lines than n_terms raises ResolutionError.
    """
    times, values = _times_values(trace)
    poles = 2 * n_terms + (1 if include_dc else 0)
    # the Hankel matrix needs at least `poles` rows under the smallest window
    need = 2 * poles + 2
    if times.size < need:
        raise SpecError(f"need at least {need} samples to seed {n_terms} terms")
    dt = _check_uniform(times)
    d_omega = _rayleigh(times)
    n = values.size
    # 6 * poles lags resolve 7- and 11-link chains as well as n // 3 does
    # (4 * poles does not) and keep the SVD linear, not cubic, in n
    window = max(poles + 2, min(n // 3, 6 * poles))
    hankel = np.lib.stride_tricks.sliding_window_view(values, window + 1)
    # the SVD of the square triangular factor has the same right singular
    # vectors as the tall Hankel matrix and costs less
    _, _, vt = np.linalg.svd(np.linalg.qr(hankel, mode="r"))
    z = np.linalg.eigvals(_shift_matrix(vt[:poles].T))
    omega = np.angle(z) / dt
    omega = np.sort(omega[omega > 0.25 * d_omega])
    if omega.size < n_terms:
        raise ResolutionError(
            f"only {omega.size} separated spectral peaks in a window resolving "
            f"{d_omega:.3g} rad; {n_terms} terms requested"
        )
    freqs = omega[:n_terms]
    amps, dc, rms = _lstsq_amplitudes(times, values, freqs, include_dc)
    return CosineSumModel(amps, freqs, dc=dc, residual_rms=rms, iterations=0)


def refine_fit(
    trace,
    init: CosineSumModel,
    *,
    max_iter: int = 500,
    ftol: float = 1e-12,
) -> CosineSumModel:
    """Damped least squares over all amplitudes, frequencies, and dc.

    Levenberg-style: the normal equations are damped by a multiple of
    their diagonal, the multiplier grows until a step decreases the sum
    of squares and shrinks after each accepted step.  The loop ends in
    one of four ways:

    - converged when an accepted step lowers the sum of squares by a
      relative amount below ftol;
    - converged when a damped step is at most STEP_FLOOR times |theta|
      (rounding noise; MINPACK's relative step test, More 1978), or no
      damping finds a decrease: the fit is at the numerical floor;
    - ConvergenceError (carrying the best model) when an accepted step
      puts a line at or above the band edge pi/dt, where it cannot be
      told from its alias;
    - ConvergenceError (carrying the best model) when max_iter steps
      were not enough.
    """
    times, values = _times_values(trace)
    band_edge = np.pi / _check_uniform(times)
    t_col = times[:, None]
    n = init.n_terms
    has_dc = init.dc is not None
    theta = np.concatenate(
        [init.amplitudes, init.frequencies, [init.dc] if has_dc else []]
    )
    # the Jacobian is rebuilt in place at each accepted point; its dc
    # column never changes
    J = np.empty((times.size, theta.size))
    if has_dc:
        J[:, -1] = 1.0
    diagonal = np.arange(theta.size)

    def residual(th):
        """Model minus data, and the phase and cosine matrices the
        Jacobian reuses."""
        phase = t_col * th[n : 2 * n]
        cos = np.cos(phase)
        out = cos @ th[:n]
        return (out + th[-1] if has_dc else out) - values, phase, cos

    resid, phase, cos = residual(theta)
    sse = float(resid @ resid)
    damping = 1e-3
    iterations = 0
    converged = out_of_band = False
    for iterations in range(1, max_iter + 1):
        J[:, :n] = cos
        J[:, n : 2 * n] = -theta[:n][None, :] * t_col * np.sin(phase)
        neg_grad = -(J.T @ resid)
        hess = J.T @ J
        hd = hess[diagonal, diagonal]
        step_floor = STEP_FLOOR * math.sqrt(theta @ theta)
        accepted = False
        for _ in range(50):
            damped = hess.copy()
            damped[diagonal, diagonal] = hd + damping * hd
            try:
                step = np.linalg.solve(damped, neg_grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            if math.sqrt(step @ step) <= step_floor:
                break  # the step is rounding noise: nothing left to gain
            candidate = theta + step
            resid_new, phase_new, cos_new = residual(candidate)
            sse_new = float(resid_new @ resid_new)
            if sse_new <= sse:
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            converged = True  # no decrease, or only a rounding-noise step: at the floor
            break
        rel_drop = (sse - sse_new) / max(sse, 1e-300)
        theta, resid, sse = candidate, resid_new, sse_new
        phase, cos = phase_new, cos_new
        damping = max(damping * 0.3, 1e-12)
        if np.max(np.abs(theta[n : 2 * n])) >= band_edge:
            out_of_band = True
            break
        if rel_drop < ftol:
            converged = True
            break

    A = theta[:n]
    om = np.abs(theta[n : 2 * n])
    order = np.argsort(om)
    result = CosineSumModel(
        A[order],
        om[order],
        dc=float(theta[-1]) if has_dc else None,
        residual_rms=float(np.sqrt(sse / times.size)),
        iterations=iterations,
    )
    if out_of_band:
        raise ConvergenceError(
            f"refinement moved a line to {result.frequencies[-1]:.3e} rad, at or "
            f"above the band edge pi/dt = {band_edge:.3e} rad",
            best=result,
            residual_rms=result.residual_rms,
        )
    if not converged:
        raise ConvergenceError(
            f"no convergence in {max_iter} refinement steps "
            f"(residual rms {result.residual_rms:.3e})",
            best=result,
            residual_rms=result.residual_rms,
        )
    if result.n_terms > 1 and np.min(np.diff(result.frequencies)) < 1e-9:
        raise ConvergenceError(
            "refinement collapsed two frequencies onto each other",
            best=result,
            residual_rms=result.residual_rms,
        )
    return result


def fit_trace(
    trace,
    n_terms: int,
    *,
    include_dc: bool = False,
    noise_sigma: float = 0.0,
    max_iter: int = 500,
    ftol: float = 1e-12,
) -> CosineSumModel:
    """Full fit: matrix-pencil seed, then damped refinement.

    The acceptable residual floor is max(1e-8, 2 * noise_sigma).  A
    refined fit above it, or with a line at or above the Nyquist
    frequency pi/dt (which cannot be told apart from its alias), raises
    ResolutionError: wrong values must not flow silently downstream.
    A refinement that runs out of steps contributes its best model.
    """
    times, values = _times_values(trace)
    seed = estimate_spectrum((times, values), n_terms, include_dc=include_dc)
    try:
        best = refine_fit((times, values), seed, max_iter=max_iter, ftol=ftol)
    except ConvergenceError as exc:
        best = exc.best
    floor = max(1e-8, 2.0 * noise_sigma)
    if best.residual_rms > floor:
        raise ResolutionError(
            f"best fit residual rms {best.residual_rms:.3e} exceeds the "
            f"acceptable floor {floor:.3e}; the window cannot separate "
            f"{n_terms} lines in this trace"
        )
    nyquist = np.pi / (times[1] - times[0])
    if best.frequencies[-1] >= nyquist:
        raise ResolutionError(
            f"fitted line at {best.frequencies[-1]:.3e} rad is at or above the "
            f"Nyquist frequency {nyquist:.3e} rad and cannot be told from its alias"
        )
    t0_value = best.amplitude_sum
    tol = max(1e-6, 5.0 * max(best.residual_rms, noise_sigma))
    if abs(t0_value - 1.0) > tol:
        warnings.warn(
            f"fitted amplitudes sum to {t0_value:.6f}, expected 1",
            TomographyWarning,
            stacklevel=2,
        )
    return best
