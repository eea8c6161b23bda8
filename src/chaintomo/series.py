"""The pipeline's inversion: links from the fitted spectrum by Lanczos.

The fitted cosine sum is the spectral measure of the flux chain's
zero-diagonal Jacobi matrix seen from node 1: nodes +-omega_k/2 with
weight A_k/2 each, plus node 0 with the dc weight.  Lanczos on that
measure rebuilds the Jacobi matrix, whose off-diagonals are the links
(de Boor & Golub 1978; Gragg & Harrod 1984).  The paper's Taylor-matching
inversion is kept as a reference in chaintomo.reference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateError, InversionError, _instance
from .fitting import CosineSumModel

# tolerances of spectral_couplings, relative to the total weight and to
# the spectral radius: a negative weight within WEIGHT_TOL is rounding in
# the fit; an off-diagonal within BREAKDOWN_TOL means the measure has run
# out of nodes.  A node of weight w yields a link of about sqrt(w), so a
# rounding-level weight (eps ~ 2e-16) makes a link near sqrt(eps) ~ 1e-8
# of the radius: the floor must sit well above that.  Over-declared
# noiseless xx chains (m = 2-11, windows 1-4x) gave spurious links of at
# most 1.5e-7 of the largest, and genuine links were at least 0.34 of it
WEIGHT_TOL = 1e-8
BREAKDOWN_TOL = 1e-6


def spectral_couplings(fit: CosineSumModel) -> np.ndarray:
    """Link magnitudes c_1..c_m of the Jacobi matrix with the fit's spectrum.

    The measure has nodes +-omega_k/2 with weight A_k/2 each, plus node 0
    with weight dc when the fit models a constant (an odd node count).
    A chain has one link fewer than nodes, so the m returned links are
    counted off the fit: 2n - 1 for n lines, 2n with a dc term.
    Lanczos with full reorthogonalisation on diag(nodes), started from
    the normalised square-root weights, returns the links as its
    off-diagonals; the diagonal vanishes because the measure is
    symmetric.  The basis holds one row per Lanczos vector, so each of
    the m steps is a few operations on contiguous rows, where the Taylor
    route re-runs the recurrence twice per link.

    A weight below -WEIGHT_TOL times the total weight raises
    InversionError: no real chain has that spectrum.  Smaller negative
    weights count as zero.  A Lanczos step whose new off-diagonal is at
    most BREAKDOWN_TOL times the spectral radius means the fit has fewer
    distinct nodes of nonzero weight than the chain needs:
    DegenerateError naming that link.  A node of weight w yields a link
    of about sqrt(w), so the floor sits two decades above sqrt(eps): a
    rounding-level weight, such as the dc of a trace with one node fewer
    than declared, is declined whatever its sign.  Anything but a
    CosineSumModel is a SpecError.
    """
    _instance(fit, CosineSumModel, "spectral_couplings", "a CosineSumModel")
    A, half, dc = fit.amplitudes, 0.5 * fit.frequencies, fit.dc
    nodes = np.concatenate([-half, half, [] if dc is None else [0.0]])
    weights = np.concatenate([0.5 * A, 0.5 * A, [] if dc is None else [dc]])
    worst = int(weights.argmin())
    if weights[worst] < -WEIGHT_TOL * float(abs(weights).sum()):
        raise InversionError(
            f"spectral weight {weights[worst]:.3e} at node {nodes[worst]:.6g} is "
            "negative; the fit is not the spectrum of any real chain",
            link=None,
            radicand=float(weights[worst]),
        )
    q = np.sqrt(np.maximum(weights, 0.0))
    n_links = nodes.size - 1
    basis = np.zeros((nodes.size, nodes.size))
    basis[0] = q / math.sqrt(q @ q)
    threshold = BREAKDOWN_TOL * float(abs(nodes).max())
    links = np.zeros(n_links)
    for j in range(n_links):
        done = basis[: j + 1]
        v = nodes * basis[j]
        # subtracting the projection twice keeps the basis orthonormal to
        # rounding ("twice is enough"), which plain three-term Lanczos loses
        v -= (done @ v) @ done
        v -= (done @ v) @ done
        beta = math.sqrt(v @ v)
        if not beta > threshold:
            raise DegenerateError(
                f"link {j + 1} is unidentifiable: the fitted spectral measure has "
                f"only {j + 1} distinct nodes of nonzero weight, {nodes.size} needed",
                link=j + 1,
            )
        links[j] = beta
        basis[j + 1] = v / beta
    return links
