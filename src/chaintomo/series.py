"""Information-flux recurrence, Taylor coefficients, and the inversions.

The probed signal has the exact expansion

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
conditioning grows like (2j)!/4^j, so it stays the reference route that
certifies the conventions.

The pipeline inverts the fitted spectrum directly (spectral_couplings).
The fitted cosine sum is the spectral measure of the flux chain's
zero-diagonal Jacobi matrix seen from node 1: nodes +-omega_k/2 with
weight A_k/2 each, plus node 0 with the dc weight.  Lanczos on that
measure rebuilds the Jacobi matrix, whose off-diagonals are the links
(de Boor & Golub 1978; Gragg & Harrod 1984).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    DegenerateError,
    InsufficientChain,
    InversionError,
    TomographyWarning,
)

# tolerances of spectral_couplings, relative to the total weight and to
# the spectral radius: a negative weight within WEIGHT_TOL is rounding in
# the fit; an off-diagonal within BREAKDOWN_TOL means the measure has run
# out of nodes (no link exceeds the radius, and a real one is not 1e-8 of it)
WEIGHT_TOL = 1e-8
BREAKDOWN_TOL = 1e-8
# tolerances of invert_couplings: a squared link down to -RADICAND_TOL is
# rounding and clamps to zero; a slope of the order-2j coefficient in c_j^2
# within DEGENERACY_TOL of the coefficient is lost to rounding
RADICAND_TOL = 1e-8
DEGENERACY_TOL = 1e-14


def _links_of(chain) -> np.ndarray:
    """Accept a FluxChain or a bare 1-D array of link strengths."""
    links = getattr(chain, "links", chain)
    arr = np.asarray(links, dtype=float)
    if arr.ndim != 1:
        raise ValueError("links must be one-dimensional")
    return arr


def delta_coefficients(chain, max_order: int) -> np.ndarray:
    """The recurrence table of delta_j^(l), l = 0..max_order.

    Returns an (m+1) x (max_order+1) array whose row j-1 holds node j:
    table[j - 1, l] = delta_j^(l).  Accepts a FluxChain or a bare array
    of link strengths (zeros are permitted here; probing the inversion
    uses partially zeroed chains).
    """
    links = _links_of(chain)
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
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


def mu_coefficients(chain, n_orders: int) -> np.ndarray:
    """Taylor coefficients mu_1..mu_K of the chain's signal.

    Requires m >= K: by the light cone, mu_j carries information about
    links 1..j only, so orders beyond the link count determine nothing new.
    """
    links = _links_of(chain)
    if links.size < n_orders:
        raise InsufficientChain(
            f"{n_orders} orders requested but chain has only {links.size} links"
        )
    return _mu_unchecked(links, n_orders)


def eta_coefficients(fit, n_orders: int) -> np.ndarray:
    """Taylor coefficients eta_1..eta_K of a fitted cosine sum.

    For sum_i A_i cos(omega_i t) the t^{2j} coefficient is

        eta_j = (-1)^j / (2j)! * sum_i A_i omega_i^(2j),

    linear in each amplitude.  A dc term contributes only at order zero,
    so it never enters.  ``fit`` is a CosineSumModel or any object with
    ``amplitudes`` and ``frequencies`` arrays.
    """
    A = np.asarray(fit.amplitudes, dtype=float)
    om = np.asarray(fit.frequencies, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(om))):
        raise ValueError("fit parameters must be finite")
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

    Small negative radicands (within RADICAND_TOL) are clamped to zero
    with a warning; larger ones raise InversionError flagging a fit
    inconsistency.  A slope |p1 - p0| at most DEGENERACY_TOL times |p1|
    makes this link unidentifiable: DegenerateError.  The slope is
    exactly zero when an earlier link was estimated at zero; otherwise
    the single round trip that reaches link j is lost to rounding among
    all the others of order 2j, as happens for long chains.
    """
    eta = np.asarray(eta, dtype=float)
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
        if ratio < 0.0:
            warnings.warn(
                f"link {j}: radicand {ratio:.3e} clamped to zero",
                TomographyWarning,
                stacklevel=2,
            )
            ratio = 0.0
        c[j - 1] = math.sqrt(ratio)
    return c


def spectral_couplings(fit) -> np.ndarray:
    """Link magnitudes c_1..c_m of the Jacobi matrix with the fit's spectrum.

    The measure has nodes +-omega_k/2 with weight A_k/2 each, plus node 0
    with weight dc when the fit models a constant (an odd node count).
    A chain has one link fewer than nodes, so the m returned links are
    counted off the fit: 2n - 1 for n lines, 2n with a dc term.
    Lanczos with full reorthogonalisation on diag(nodes), started from
    the normalised square-root weights, returns the links as its
    off-diagonals; the diagonal vanishes because the measure is
    symmetric.  Each of the m steps is a few vector operations, where
    the Taylor route re-runs the recurrence twice per link.  ``fit`` is
    a CosineSumModel or any object with ``amplitudes``, ``frequencies``
    and ``dc``.

    A weight below -WEIGHT_TOL times the total weight raises
    InversionError: no real chain has that spectrum.  Smaller negative
    weights count as zero.  A Lanczos step whose new off-diagonal is at
    most BREAKDOWN_TOL times the spectral radius means the fit has fewer
    distinct nodes of nonzero weight than the chain needs:
    DegenerateError naming that link.
    """
    A = np.asarray(fit.amplitudes, dtype=float)
    half = 0.5 * np.asarray(fit.frequencies, dtype=float)
    dc = getattr(fit, "dc", None)
    nodes = np.concatenate([-half, half, [] if dc is None else [0.0]])
    weights = np.concatenate([0.5 * A, 0.5 * A, [] if dc is None else [dc]])
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise ValueError("fit parameters must be finite")
    worst = int(np.argmin(weights))
    if weights[worst] < -WEIGHT_TOL * float(np.sum(np.abs(weights))):
        raise InversionError(
            f"spectral weight {weights[worst]:.3e} at node {nodes[worst]:.6g} is "
            "negative; the fit is not the spectrum of any real chain",
            link=None,
            radicand=float(weights[worst]),
        )
    q = np.sqrt(np.maximum(weights, 0.0))
    n_links = nodes.size - 1
    basis = np.zeros((nodes.size, nodes.size))
    basis[:, 0] = q / np.linalg.norm(q)
    threshold = BREAKDOWN_TOL * float(np.max(np.abs(nodes)))
    links = np.zeros(n_links)
    for j in range(n_links):
        done = basis[:, : j + 1]
        v = nodes * basis[:, j]
        # subtracting the projection twice keeps the basis orthonormal to
        # rounding ("twice is enough"), which plain three-term Lanczos loses
        v -= done @ (done.T @ v)
        v -= done @ (done.T @ v)
        beta = float(np.linalg.norm(v))
        if not beta > threshold:
            raise DegenerateError(
                f"link {j + 1} is unidentifiable: the fitted spectral measure has "
                f"only {j + 1} distinct nodes of nonzero weight, {nodes.size} needed",
                link=j + 1,
            )
        links[j] = beta
        basis[:, j + 1] = v / beta
    return links
