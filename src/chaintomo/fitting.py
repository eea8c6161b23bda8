"""Cosine-sum recovery from a sampled trace.

The probed signal is a finite sum of cosines (plus a constant when the
flux chain has an odd node count).  fit_trace is the one entry: it fits
probe.sign * values of a SignalTrace, whose grid's sign and finiteness
are the trace's to guarantee, checks the grid's uniformity and the pole
count once and runs two steps on that grid.
estimate_spectrum seeds the lines by the matrix pencil, which is
grid-free, so it separates lines closer than one periodogram bin, and
costs one SVD; it hands its amplitudes, frequencies, dc and cosine block
to refine_fit as arrays.  refine_fit polishes them with damped
Gauss-Newton steps, then damped Newton steps once Gauss-Newton stalls,
and returns its best model, the fit's one CosineSumModel, however it
stops.  fit_trace is the one place a fit is accepted:
it rejects fits that stay above the residual floor or put a line at or
beyond the Nyquist frequency.  It fits any cosine sum: the amplitudes
are not held to sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SignalTrace, _check_sigma
from .errors import ResolutionError, SpecError, _floats, _instance, _integer, _is_real

# refine_fit stops once a scaled damped step is at most this fraction of
# the scaled |theta|: about 4.5 ulp, so the step only moves rounding noise
STEP_FLOOR = 1e-15
# refine_fit stops once an accepted step lowers the sum of squares by less
# than this relative amount, and in any case after MAX_ITER steps
FTOL = 1e-12
MAX_ITER = 500
# estimate_spectrum declines a pencil whose 1 - |v|^2 (v the last row of
# the signal basis) is at most this: rounding level, no shift to solve for
SHIFT_GAP_FLOOR = 1e-13


@dataclass(frozen=True, eq=False)
class CosineSumModel:
    """Fitted amplitudes and angular frequencies, canonically ascending,
    finite and kept as read-only float copies.

    dc is None when no constant term is modeled.  residual_rms is the
    root-mean-square misfit of the model that produced the parameters,
    NaN when unknown; iterations counts refinement steps.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    dc: float | None = None
    residual_rms: float = float("nan")
    iterations: int = 0

    def __post_init__(self):
        A = _floats(self.amplitudes, "amplitudes")
        om = _floats(self.frequencies, "frequencies")
        object.__setattr__(self, "amplitudes", A)
        object.__setattr__(self, "frequencies", om)
        if A.size != om.size:
            raise SpecError("amplitudes and frequencies must match in length")
        if A.size < 1:
            raise SpecError("a cosine-sum model needs at least one term")
        if not (self.dc is None or _is_real(self.dc)):
            raise SpecError("model parameters must be finite")
        if (om < 0).any():
            raise SpecError("frequencies must be nonnegative")
        rms = self.residual_rms
        if not (_is_real(rms) and rms >= 0 or isinstance(rms, float) and math.isnan(rms)):
            raise SpecError(f"residual_rms must be a nonnegative number or NaN, got {rms!r}")
        object.__setattr__(self, "residual_rms", float(rms))
        object.__setattr__(self, "iterations", _integer(self.iterations, "iterations", 0))

    @property
    def n_terms(self) -> int:
        return int(self.amplitudes.size)

    @property
    def amplitude_sum(self) -> float:
        """sum A_i + dc; equals the noiseless signal at t = 0."""
        return float(self.amplitudes.sum() + (self.dc or 0.0))

    def evaluate(self, times) -> np.ndarray:
        t = _floats(times, "times")
        out = self.amplitudes @ np.cos(np.outer(self.frequencies, t))
        if self.dc is not None:
            out = out + self.dc
        return out

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"A": float(a), "omega": float(w)}
                for a, w in zip(self.amplitudes, self.frequencies)
            ],
            "dc": None if self.dc is None else float(self.dc),
            # strict JSON has no NaN: a hand-built model's unknown residual is null
            "residual_rms": None if math.isnan(self.residual_rms) else self.residual_rms,
            "iterations": self.iterations,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CosineSumModel":
        try:
            rms = d.get("residual_rms")
            return cls([term["A"] for term in d["terms"]],
                       [term["omega"] for term in d["terms"]], d.get("dc"),
                       float("nan") if rms is None else rms, d.get("iterations", 0))
        except (KeyError, TypeError, AttributeError) as exc:
            raise SpecError(f"malformed fit block: {exc}") from exc


def _check_sampling(times: np.ndarray, poles: int) -> float:
    """The sample step of a uniform grid of at least 2 * poles + 2
    samples: the pencil's Hankel matrix needs `poles` rows under the
    smallest window.  The pole count must be an integer of at least 2,
    one cosine line.  Any other grid or count is a SpecError.  A
    SignalTrace's times are finite and increasing, so the step is
    positive."""
    poles = _integer(poles, "the pole count", 2)
    need = 2 * poles + 2
    if times.size < need:
        raise SpecError(f"need at least {need} samples to seed {poles} poles, got {times.size}")
    steps = times[1:] - times[:-1]
    dt = float(steps[0])
    # written out rather than np.allclose, which costs several times more
    if abs(steps - dt).max() > 1e-9 * dt:
        raise SpecError("trace sampling must be uniform")
    return dt


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
    return C + v[:, None] * (v @ C) * (1.0 / gap)


def estimate_spectrum(
    times: np.ndarray, values: np.ndarray, poles: int, dt: float
) -> tuple[np.ndarray, np.ndarray, float | None, np.ndarray]:
    """fit_trace's seed step: `poles` poles by the matrix pencil (Hua &
    Sarkar 1990), on the grid fit_trace checked (uniform with step dt, at
    least 2 * poles + 2 samples).  It returns the seed refine_fit starts
    from: (amplitudes, frequencies, dc, cos), with cos the block
    np.cos(frequencies[:, None] * times) the amplitudes were solved on,
    one C-contiguous row per line.

    A sum of p complex exponentials makes the Hankel matrix of
    the samples rank p; its dominant right-singular subspace is shift
    invariant, and the eigenvalues of the one-step map are the poles
    exp(i omega dt).  That subspace's basis is orthonormal, so the
    one-step map comes from it in closed form (_shift_matrix) and the
    seed costs one SVD; a basis whose last row has unit norm leaves the
    map undetermined and raises ResolutionError.  Each cosine contributes
    a conjugate pair, the dc term a pole at 1, so the model has poles // 2
    lines plus a dc term when poles is odd.  The poles // 2 lowest
    positive frequencies above a quarter Rayleigh bin are kept and the
    amplitudes (and dc) filled by linear least squares.  Fewer such lines
    raises ResolutionError.
    """
    n_terms = poles // 2
    d_omega = 2.0 * np.pi / (times[-1] - times[0])  # one periodogram bin
    n = values.size
    # 6 * poles lags resolve 7- and 11-link chains as well as n // 3 does
    # (4 * poles does not) and keep the SVD linear, not cubic, in n
    window = max(poles + 2, min(n // 3, 6 * poles))
    # row i is values[i : i + window + 1]; read-only, and qr copies it
    step = values.strides[0]
    hankel = np.lib.stride_tricks.as_strided(
        values, (n - window, window + 1), (step, step), writeable=False)
    # the SVD of the square triangular factor has the same right singular
    # vectors as the tall Hankel matrix and costs less
    _, _, vt = np.linalg.svd(np.linalg.qr(hankel, mode="r"))
    z = np.linalg.eigvals(_shift_matrix(vt[:poles].T))
    omega = np.arctan2(z.imag, z.real) / dt  # np.angle(z), without its wrapper
    omega = omega[omega > 0.25 * d_omega]
    omega.sort()
    if omega.size < n_terms:
        raise ResolutionError(
            f"only {omega.size} separated spectral peaks in a window resolving "
            f"{d_omega:.3g} rad; {n_terms} terms requested"
        )
    freqs = omega[:n_terms]
    # one row per line, and a last row of ones for the dc term; the
    # cosine rows are a C-contiguous view the refinement reads as they are
    design = np.ones((n_terms + poles % 2, n))
    cos = design[:n_terms]
    np.cos(freqs[:, None] * times, out=cos)
    coef, *_ = np.linalg.lstsq(design.T, values, rcond=None)  # dc column last
    if poles % 2:
        return coef[:-1], freqs, float(coef[-1]), cos
    return coef, freqs, None, cos


def refine_fit(
    times: np.ndarray, values: np.ndarray, seed: tuple, dt: float
) -> CosineSumModel:
    """fit_trace's refinement step: damped least squares over all
    amplitudes, frequencies, and dc, on the grid fit_trace checked,
    from estimate_spectrum's (amplitudes, frequencies, dc, cos); its
    first residual reuses that cosine block, one row per line.  Every
    per-line block (phase, cos, sin and the transposed Jacobian) is laid
    out lines x samples, so each product runs along a contiguous row.

    Levenberg-style: the normal equations are damped by a multiple of
    the diagonal of J^T J, the multiplier grows until a step decreases
    the sum of squares and shrinks after each accepted step.  Gauss-Newton
    converges only linearly when the residual is large (noise), so once
    an accepted step lowers the sum of squares by a relative amount below
    sqrt(FTOL) the rest of the fit adds the second-order term
    sum_i r_i d2m_i/dtheta2 to the normal matrix: each step is then a
    damped Newton step (as NL2SOL does for large residuals, Dennis, Gay &
    Welsch 1981).  The switch comes late, in the final basin, so it moves
    where a fit ends, not which minimum it finds.  The loop stops when
    an accepted step lowers the sum of squares by a relative amount below
    FTOL; when a damped step is at most STEP_FLOOR times |theta|, both
    norms weighing each parameter by its Jacobian column norm (rounding
    noise; MINPACK's scaled relative step test, More 1978), or no damping
    finds a decrease; when an accepted step puts a line at or above the
    band edge pi/dt, where it cannot be told from its alias; or after
    MAX_ITER steps.

    Every stop returns the best model found; fit_trace decides whether it
    is good enough.  The model shows the stop: iterations == MAX_ITER ran
    out of steps, frequencies[-1] >= pi/dt left the band, and adjacent
    frequencies within 1e-9 collapsed onto each other.
    """
    amplitudes, frequencies, dc, cos = seed
    band_edge = np.pi / dt
    n = frequencies.size
    has_dc = dc is not None
    theta = np.concatenate([amplitudes, frequencies, [dc] if has_dc else []])
    size = theta.size
    diag = size + 1  # the step along a diagonal of the flattened Hessian
    # the transposed Jacobian, one C-contiguous row per parameter, is
    # rebuilt in place at each accepted point; its dc row never changes
    Jt = np.empty((size, times.size))
    if has_dc:
        Jt[-1] = 1.0
    Jt_omega = Jt[n : 2 * n]

    def residual(th, cos=None):
        """Model minus data, and the phase and cosine blocks (one row per
        line) the Jacobian reuses; a given cos is np.cos(phase) already."""
        phase = th[n : 2 * n, None] * times
        if cos is None:
            cos = np.cos(phase)
        out = th[:n] @ cos
        return (out + th[-1] if has_dc else out) - values, phase, cos

    resid, phase, cos = residual(theta, cos)
    sse = float(resid @ resid)
    damping = 1e-3
    newton = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        sin = np.sin(phase)
        Jt[:n] = cos
        np.multiply(-theta[:n, None], times, out=Jt_omega)
        Jt_omega *= sin
        neg_grad = -(Jt @ resid)
        hess = Jt @ Jt.T
        hd = hess.diagonal().copy()
        if newton:
            # the model is linear in A and dc, so sum_i r_i d2m_i/dtheta2
            # is nonzero only at (A_k, omega_k) and (omega_k, omega_k):
            # n entries of three diagonals, written through strided slices
            rt = resid * times
            cross = -(sin @ rt)
            flat = hess.reshape(-1)
            flat[n : n + n * diag : diag] += cross
            flat[n * size : n * size + n * diag : diag] += cross
            flat[n * diag : 2 * n * diag : diag] -= theta[:n] * (cos @ (rt * times))
        full_diagonal = hess.diagonal()
        # squared Jacobian column norms (a zero column counts as 1), so a
        # frequency ulp weighs what an amplitude ulp does
        scale2 = np.where(hd > 0.0, hd, 1.0)
        step_floor = STEP_FLOOR * math.sqrt(scale2 * theta @ theta)
        accepted = False
        for _ in range(50):
            damped = hess.copy()
            damped.flat[::diag] = full_diagonal + damping * hd
            try:
                step = np.linalg.solve(damped, neg_grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            if math.sqrt(scale2 * step @ step) <= step_floor:
                break  # the step is rounding noise: nothing left to gain
            candidate = theta + step
            resid_new, phase_new, cos_new = residual(candidate)
            sse_new = float(resid_new @ resid_new)
            if sse_new <= sse:
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            break  # no decrease, or only a rounding-noise step: at the floor
        rel_drop = (sse - sse_new) / max(sse, 1e-300)
        theta, resid, sse = candidate, resid_new, sse_new
        phase, cos = phase_new, cos_new
        damping = max(damping * 0.3, 1e-12)
        # Gauss-Newton has stalled in the final basin; on a large residual
        # its linear rate would stop the fit at FTOL short of the minimum
        newton = newton or rel_drop < math.sqrt(FTOL)
        if abs(theta[n : 2 * n]).max() >= band_edge or rel_drop < FTOL:
            break

    A = theta[:n]
    om = abs(theta[n : 2 * n])
    order = om.argsort()
    return CosineSumModel(
        A[order],
        om[order],
        dc=float(theta[-1]) if has_dc else None,
        residual_rms=math.sqrt(sse / times.size),
        iterations=iterations,
    )


def fit_trace(trace: SignalTrace, poles: int, *, noise_sigma: float = 0.0) -> CosineSumModel:
    """Full fit with `poles` poles: matrix-pencil seed, then damped refinement.

    The fit layer's one entry and one grid check: `trace` must be a
    SignalTrace, whose probe.sign * values is the alpha(t) fitted, on a
    uniform grid (its sign and finiteness are the trace's to guarantee)
    of at least 2 * poles + 2 samples, `poles` an integer of at least 2,
    and `noise_sigma` a level NoiseSpec accepts, else SpecError.

    An m-link flux chain has m + 1 nodes, so its trace is fitted with
    m + 1 poles: poles // 2 lines, plus a dc term when poles is odd.
    This is where a fit is accepted or declined, whichever way the
    refinement stopped.  The acceptable residual floor is
    max(1e-8, 2 * noise_sigma).  A refined fit above it, or with a line
    at or above the Nyquist frequency pi/dt (which cannot be told apart
    from its alias), raises ResolutionError: wrong values must not flow
    silently downstream.  The amplitudes are not held to any sum:
    alpha(0) = 1 is the pipeline's to judge (run_tomography).
    """
    _instance(trace, SignalTrace, "fit_trace", "a SignalTrace")
    _check_sigma(noise_sigma)
    times, values = trace.times, trace.probe.sign * trace.values
    dt = _check_sampling(times, poles)
    seed = estimate_spectrum(times, values, poles, dt)
    best = refine_fit(times, values, seed, dt)
    floor = max(1e-8, 2.0 * noise_sigma)
    if best.residual_rms > floor:
        # an undeclared sigma, a wrong chain length or a decaying trace all
        # end here, so the message states the numbers and claims no cause
        raise ResolutionError(
            f"best fit residual rms {best.residual_rms:.3e} exceeds the "
            f"acceptable floor {floor:.3e} = max(1e-8, 2 * noise_sigma), "
            f"with the declared noise_sigma {noise_sigma:.3g}"
        )
    nyquist = np.pi / dt
    if best.frequencies[-1] >= nyquist:
        raise ResolutionError(
            f"fitted line at {best.frequencies[-1]:.3e} rad is at or above the "
            f"Nyquist frequency {nyquist:.3e} rad and cannot be told from its alias"
        )
    return best
