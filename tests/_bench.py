"""Reference numbers and spec builders shared across the test suite.

BENCH_J is the eight-spin reference coupling set used for end-to-end
checks; EVAL_J the reference estimates for the same chain used as a
cross-check target; FIT_TABLE the reference cosine-sum fit (sorted here
by ascending frequency, the package's canonical order).  The builders
make specs of each model and two frozen noisy benchmark inputs.
"""

import numpy as np

from chaintomo import ChainSpec, Model, NoiseSpec, TomographyConfig

BENCH_J = np.array([1.40, 1.48, 1.06, 0.80, 1.36, 0.97, 0.66])

EVAL_J = np.array([1.39998, 1.48005, 1.06003, 0.800058, 1.36050, 0.970524, 0.660894])

# (amplitude, angular frequency), ascending frequency
FIT_TABLE = np.array(
    [
        (0.3155, 0.7821),
        (0.3176, 1.6909),
        (0.0921, 3.5929),
        (0.2748, 4.4941),
    ]
)

# four-site transverse-field Ising benchmark: the same seven strengths
# as BENCH_J once interleaved as B_1, JZ_1, B_2, ..., B_4
ISING_B = np.array([1.40, 1.06, 1.36, 0.66])
ISING_JZ = np.array([1.48, 0.80, 0.97])


def xx_spec(J, allow_signed: bool = False) -> ChainSpec:
    J = np.asarray(J, dtype=float)
    return ChainSpec(
        model=Model.XX,
        n_spins=J.size + 1,
        couplings={"J": J},
        allow_signed=allow_signed,
    )


def xy_spec(JX, JY) -> ChainSpec:
    JX = np.asarray(JX, dtype=float)
    return ChainSpec(
        model=Model.XY,
        n_spins=JX.size + 1,
        couplings={"JX": JX, "JY": np.asarray(JY, dtype=float)},
    )


def ising_spec(JZ, B) -> ChainSpec:
    B = np.asarray(B, dtype=float)
    return ChainSpec(
        model=Model.ISING_TRANSVERSE,
        n_spins=B.size,
        couplings={"JZ": np.asarray(JZ, dtype=float), "B": B},
    )


def mu_closed(c) -> np.ndarray:
    """mu_1..mu_4 from the closed-form expressions in squared links."""
    c = np.asarray(c, dtype=float)
    c2 = np.zeros(4)
    n = min(4, c.size)
    c2[:n] = c[:n] ** 2
    a, b, d, e = c2  # squared links 1..4 (missing links enter as zero)
    return np.array(
        [
            -2.0 * a,
            (2.0 / 3.0) * (a**2 + a * b),
            -(4.0 / 45.0) * a * ((a + b) ** 2 + b * d),
            (2.0 / 315.0)
            * a
            * (
                a**3
                + 3.0 * a**2 * b
                + a * (3.0 * b**2 + 2.0 * b * d)
                + b * ((b + d) ** 2 + d * e)
            ),
        ]
    )


def out_of_band_input() -> tuple[ChainSpec, TomographyConfig]:
    """A noisy 6-spin transverse-Ising input whose weakest line is below
    the noise; its first refinement step sends a line past pi/dt (found
    in the long-chain benchmark inputs, then frozen)."""
    spec = ising_spec(
        [0.698638, 0.790091, 1.324667, 0.982692, 1.188408],
        [0.517979, 0.678892, 1.35302, 1.446434, 0.897122, 0.65681],
    )
    config = TomographyConfig(
        sample_step=np.pi / 25, window=12 * np.pi, noise=NoiseSpec(0.01, 627355221)
    )
    return spec, config


def weak_line_input() -> tuple[ChainSpec, TomographyConfig]:
    """A noisy 6-spin transverse-Ising input with a weak line (A about
    -1e-3) under sigma = 1e-2 noise, where Gauss-Newton converges only
    linearly (found in the long-chain benchmark inputs, then frozen)."""
    spec = ising_spec(
        [0.6832761439096007, 0.6033354631335849, 1.4511812407987383,
         1.3523970799122584, 1.4823670095058403],
        [0.6872998026734978, 0.5875080285520784, 0.7695365034055598,
         1.2804425065309406, 0.6156049426190445, 1.112202966303433],
    )
    config = TomographyConfig(
        sample_step=np.pi / 25, window=12 * np.pi, noise=NoiseSpec(0.01, 1721657868)
    )
    return spec, config

