"""Acceptance suite: one test per advertised guarantee (AC-1 .. AC-7).

Each test prints a single PASS/FAIL line (visible with `pytest -s`, and
in the failure report otherwise) and enforces the stated tolerance with
plain asserts.  Tolerances are the advertised ones, not the observed
margins, which are orders of magnitude better in most cases.
"""

import itertools
import time

import numpy as np

from chaintomo import (
    NoiseSpec,
    Preparation,
    Probe,
    TomographyConfig,
    flux_chains,
    run_tomography,
    spectral_signal,
)
from chaintomo.reference import (
    BulkState,
    _mu_unchecked,
    delta_coefficients,
    invert_couplings,
    mu_coefficients,
    statevector_signal,
)

from _bench import (
    BENCH_J,
    EVAL_J,
    FIT_TABLE,
    ISING_B,
    ISING_JZ,
    ising_spec,
    mu_closed,
    xx_spec,
    xy_spec,
)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} {detail}"


def test_ac1_benchmark_couplings_within_2e3():
    """Eight-spin reference chain: all seven couplings within 2e-3 of
    truth and of the reference estimates, in under 10 seconds."""
    start = time.perf_counter()
    result = run_tomography(xx_spec(BENCH_J))
    elapsed = time.perf_counter() - start
    recovered = np.array([p.estimate for p in result.parameters])
    dev_truth = float(np.max(np.abs(recovered - BENCH_J)))
    dev_eval = float(np.max(np.abs(recovered - EVAL_J)))
    _verdict(
        "AC-1",
        dev_truth <= 2e-3 and dev_eval <= 2e-3 and elapsed < 10.0,
        f"max|J-truth|={dev_truth:.3e}, max|J-reference|={dev_eval:.3e}, "
        f"elapsed={elapsed:.2f}s (limits 2e-3, 2e-3, 10s)",
    )


def test_ac2_benchmark_fit_table_within_5e3():
    """The fitted (A_i, omega_i), sorted by frequency, match the
    reference table entrywise within 5e-3, and the amplitudes sum to 1
    within 1e-3."""
    result = run_tomography(xx_spec(BENCH_J))
    fit = result.fits["x1"]
    order = np.argsort(fit.frequencies)
    dev_amp = float(np.max(np.abs(fit.amplitudes[order] - FIT_TABLE[:, 0])))
    dev_freq = float(np.max(np.abs(fit.frequencies[order] - FIT_TABLE[:, 1])))
    dev_sum = abs(fit.amplitude_sum - 1.0)
    _verdict(
        "AC-2",
        fit.n_terms == 4 and dev_amp <= 5e-3 and dev_freq <= 5e-3
        and dev_sum <= 1e-3,
        f"max|A-ref|={dev_amp:.3e}, max|omega-ref|={dev_freq:.3e}, "
        f"|sum(A)-1|={dev_sum:.3e} (limits 5e-3, 5e-3, 1e-3)",
    )


def test_ac3_recurrence_matches_closed_forms():
    """Recurrence-derived mu_1..mu_4 equal the printed closed forms on
    100 random positive chains at relative error <= 1e-12; the one-link
    value at J_1 = 1.40 is exactly -3.92."""
    rng = np.random.default_rng(20260301)
    worst = 0.0
    for _ in range(100):
        links = rng.uniform(0.5, 1.5, 6)
        mu = mu_coefficients(links, 4)
        ref = mu_closed(links)
        worst = max(worst, float(np.max(np.abs(mu - ref) / np.abs(ref))))
    anchor = float(mu_coefficients(np.array([1.40]), 1)[0])
    _verdict(
        "AC-3",
        worst <= 1e-12 and abs(anchor - (-3.92)) <= 1e-12,
        f"worst relative error={worst:.3e} over 100 chains (limit 1e-12), "
        f"|mu_1(1.40)+3.92|={abs(anchor + 3.92):.1e}",
    )


def test_ac4_spectral_equals_statevector():
    """The reduced spectral signal and full state-vector evolution agree
    within 1e-9 pointwise over Jt in [0, 4pi] for all three models."""
    times = np.linspace(0.0, 4.0 * np.pi, 81)
    cases = [
        ("xx,N=8", xx_spec(BENCH_J)),
        (
            "xy,N=8",
            xy_spec(
                [1.1, 0.7, 1.3, 0.9, 1.2, 0.8, 1.0],
                [0.9, 1.2, 0.6, 1.4, 0.8, 1.1, 0.7],
            ),
        ),
        ("ising,N=4", ising_spec(ISING_JZ, ISING_B)),
    ]
    worst = 0.0
    details = []
    for name, spec in cases:
        for fc in flux_chains(spec):
            reduced = spectral_signal(fc, times, fc.probe)
            dense = statevector_signal(
                spec, fc.probe, BulkState("product", seed=11), times
            )
            dev = float(np.max(np.abs(reduced.values - dense.values)))
            worst = max(worst, dev)
            details.append(f"{name}/{fc.probe.observable.value}={dev:.2e}")
    _verdict(
        "AC-4",
        worst <= 1e-9,
        f"max pointwise deviation {worst:.3e} (limit 1e-9); " + ", ".join(details),
    )


def test_ac5_bulk_state_independence():
    """For each model, 20 random bulk states (product, entangled pure,
    and sampled mixed) give traces agreeing within 1e-9 pairwise, and
    the opposite spin-1 eigenstate gives the exact negation."""
    times = np.linspace(0.0, 4.0 * np.pi, 41)
    cases = [
        ("xx,N=6", xx_spec([1.1, 0.7, 1.3, 0.9, 1.2])),
        ("xy,N=5", xy_spec([1.1, 0.7, 1.3, 0.9], [0.9, 1.2, 0.6, 1.4])),
        ("ising,N=4", ising_spec(ISING_JZ, ISING_B)),
    ]
    opposite = {
        Preparation.PLUS_X: (Preparation.MINUS_X, -1),
        Preparation.PLUS_Y: (Preparation.MINUS_Y, -1),
        Preparation.ZERO: (Preparation.ONE, -1),
    }
    worst_pair = 0.0
    worst_neg = 0.0
    kinds = itertools.cycle(["product", "pure", "mixed"])
    for name, spec in cases:
        fc = flux_chains(spec)[0]
        stack = np.vstack(
            [
                statevector_signal(
                    spec,
                    fc.probe,
                    BulkState(next(kinds), seed=seed, n_samples=3),
                    times,
                ).values
                for seed in range(20)
            ]
        )
        worst_pair = max(
            worst_pair, float(np.max(stack.max(axis=0) - stack.min(axis=0)))
        )
        flip_prep, flip_sign = opposite[fc.probe.preparation]
        flipped_probe = Probe(fc.probe.observable, flip_prep, flip_sign)
        bulk = BulkState("pure", seed=5)
        plus = statevector_signal(spec, fc.probe, bulk, times)
        minus = statevector_signal(spec, flipped_probe, bulk, times)
        worst_neg = max(
            worst_neg, float(np.max(np.abs(minus.values + plus.values)))
        )
    _verdict(
        "AC-5",
        worst_pair <= 1e-9 and worst_neg <= 1e-12,
        f"max pairwise deviation={worst_pair:.3e} (limit 1e-9), "
        f"max negation defect={worst_neg:.3e} (limit 1e-12)",
    )


def test_ac6_property_suite():
    """Structure of the inverse problem on random instances: round-trip
    recovery within 1e-3 on 50 random chains; light-cone invariance;
    affinity in the newest squared link; odd-coefficient vanishing; the
    sequential solve consistent to 1e-10."""
    rng = np.random.default_rng(20260816)

    # (a) 50-chain round trip through the full pipeline
    worst_rt = 0.0
    for i in range(50):
        n = (4, 6, 8)[i % 3]
        spec = xx_spec(rng.uniform(0.5, 1.5, n - 1))
        result = run_tomography(spec)
        worst_rt = max(worst_rt, max(p.abs_error for p in result.parameters))

    # (b) light cone: mu_j never reacts to links beyond j
    worst_lc = 0.0
    for _ in range(10):
        links = rng.uniform(0.5, 1.5, 8)
        for j in range(1, 6):
            full = mu_coefficients(links, j)[-1]
            trimmed = mu_coefficients(links[:j], j)[-1]
            worst_lc = max(worst_lc, abs(full - trimmed) / abs(full))

    # (c) affinity: mu_j is affine in c_j^2, so the second difference of
    # evaluations at c_j in {0, 1, 2} vanishes
    worst_aff = 0.0
    for _ in range(10):
        j = int(rng.integers(2, 7))
        prefix = rng.uniform(0.5, 1.5, j - 1)
        probes = []
        for value in (0.0, 1.0, 2.0):
            chain = np.concatenate([prefix, [value]])
            probes.append(_mu_unchecked(chain, j)[-1])
        p0, p1, p2 = probes
        scale = max(1.0, abs(p0), abs(p1), abs(p2))
        worst_aff = max(worst_aff, abs((p2 - p0) - 4.0 * (p1 - p0)) / scale)

    # (d) odd Taylor orders of the boundary coefficient vanish exactly
    odd_ok = True
    for _ in range(10):
        table = delta_coefficients(rng.uniform(0.5, 1.5, 7), 14)
        odd_ok = odd_ok and not np.any(table[0, 1::2])

    # (e) sequential-solve consistency loop
    worst_inv = 0.0
    for _ in range(30):
        m = int(rng.integers(1, 10))
        links = rng.uniform(0.5, 1.5, m)
        recovered = invert_couplings(mu_coefficients(links, m))
        worst_inv = max(worst_inv, float(np.max(np.abs(recovered - links))))

    _verdict(
        "AC-6",
        worst_rt <= 1e-3 and worst_lc <= 1e-12 and worst_aff <= 1e-12
        and odd_ok and worst_inv <= 1e-10,
        f"round-trip={worst_rt:.3e} (limit 1e-3), "
        f"light-cone={worst_lc:.3e} (limit 1e-12), "
        f"affinity={worst_aff:.3e} (limit 1e-12), "
        f"odd-vanishing={'exact' if odd_ok else 'violated'}, "
        f"inversion={worst_inv:.3e} (limit 1e-10)",
    )


def test_ac7_noise_robustness_surrogate():
    """Seed-fixed Gaussian noise at sigma = 0.01 on the reference chain
    keeps every per-coupling error within 5e-2.

    This is a surrogate robustness check: the tolerance is an
    engineering margin chosen here, not an externally reported number,
    and it quantifies additive measurement noise only.
    """
    config = TomographyConfig(noise=NoiseSpec(sigma=0.01, seed=7))
    result = run_tomography(xx_spec(BENCH_J), config)
    worst = max(p.abs_error for p in result.parameters)
    _verdict(
        "AC-7",
        worst <= 5e-2,
        f"max per-coupling error={worst:.3e} at sigma=0.01, seed=7 (limit 5e-2)",
    )
