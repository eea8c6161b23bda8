"""Cosine-sum seeding by the matrix pencil, refinement, and the full fit."""

import json
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from chaintomo import (
    CosineSumModel,
    NoiseSpec,
    Probe,
    ResolutionError,
    SignalTrace,
    SpecError,
    TomographyConfig,
    add_noise,
    fit_trace,
    flux_chains,
    simulate_traces,
    spectral_couplings,
    spectral_signal,
)
from chaintomo import fitting
from chaintomo.fitting import _shift_matrix, estimate_spectrum, refine_fit

from _bench import (
    BENCH_J, ISING_B, ISING_JZ, ising_spec, out_of_band_input, weak_line_input, xx_spec,
    xy_spec,
)

# a chain whose lowest two lines fall inside one periodogram bin of the
# default window, so a periodogram seed merges them; the grid-free pencil
# seed must still separate them (found by scanning random chains, then
# frozen)
MERGED_PEAK_J = np.array(
    [1.297069, 0.967935, 0.803032, 0.778426, 0.75487, 0.945076, 1.004548]
)


def _grid(n=200, step=np.pi / 25):
    return step * np.arange(n)


def _signal(times, values):
    """A +x-prepared trace, which fit_trace reads as it is."""
    return SignalTrace(times, values, Probe.PLUS_X)


def _seed(times, values, poles):
    """fit_trace's seed step on a grid known to be uniform: the tuple
    (amplitudes, frequencies, dc, cos) that refine_fit starts from."""
    return estimate_spectrum(times, values, poles, times[1] - times[0])


def _refine(times, values, init):
    """fit_trace's refinement step on a grid known to be uniform, from a
    seed tuple or from a model's parameters."""
    if isinstance(init, CosineSumModel):
        cos = np.cos(init.frequencies[:, None] * times)
        init = (init.amplitudes, init.frequencies, init.dc, cos)
    return refine_fit(times, values, init, times[1] - times[0])


# a grid without a positive step never reaches fit_trace's two steps: the
# SignalTrace that fit_trace must be handed refuses it
@pytest.mark.parametrize("grid", ["reversed", "constant"])
@pytest.mark.parametrize("call", [lambda times, values: fit_trace(_signal(times, values), 8)],
                         ids=["fit_trace"])
def test_grid_without_a_positive_step_is_a_spec_error(call, grid):
    t = _grid()
    values = spectral_signal(BENCH_J, t).values
    times = t[::-1] if grid == "reversed" else np.zeros(t.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero on the way
        with pytest.raises(SpecError, match="strictly increasing"):
            call(times, values)


class TestCosineSumModel:
    def test_invariants(self):
        with pytest.raises(SpecError):
            CosineSumModel(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(SpecError):
            CosineSumModel(np.array([]), np.array([]))
        with pytest.raises(SpecError):
            CosineSumModel(np.array([1.0]), np.array([-1.0]))
        with pytest.raises(SpecError):
            CosineSumModel(np.array([np.nan]), np.array([1.0]))
        # a NaN dc would be written to JSON as a bare NaN
        for dc in (np.nan, np.inf):
            with pytest.raises(SpecError, match="finite"):
                CosineSumModel([1.0], [1.0], dc=dc)

    def test_evaluate_and_amplitude_sum(self):
        model = CosineSumModel(np.array([0.6, 0.3]), np.array([1.0, 2.0]), dc=0.1)
        assert model.amplitude_sum == pytest.approx(1.0, abs=1e-15)
        assert model.evaluate([0.0])[0] == pytest.approx(1.0, abs=1e-15)
        t = np.array([0.5])
        expected = 0.6 * np.cos(0.5) + 0.3 * np.cos(1.0) + 0.1
        assert model.evaluate(t)[0] == pytest.approx(expected, abs=1e-15)

    def test_dict_round_trip(self):
        model = CosineSumModel(
            np.array([0.6, 0.4]), np.array([1.0, 2.0]), dc=0.05,
            residual_rms=1e-9, iterations=12,
        )
        again = CosineSumModel.from_dict(model.to_dict())
        np.testing.assert_array_equal(again.amplitudes, model.amplitudes)
        np.testing.assert_array_equal(again.frequencies, model.frequencies)
        assert again.dc == model.dc
        assert again.residual_rms == model.residual_rms
        assert again.iterations == model.iterations

    def test_unknown_residual_is_written_as_null(self):
        # a hand-built model has no residual; strict JSON has no NaN for it
        model = CosineSumModel([1.0], [1.0])
        text = json.dumps(model.to_dict(), allow_nan=False)
        assert json.loads(text)["residual_rms"] is None
        again = CosineSumModel.from_dict(json.loads(text))
        assert np.isnan(again.residual_rms)
        assert again.to_dict() == model.to_dict()


class TestEstimateSpectrum:
    def test_two_separated_lines(self):
        t = _grid()
        values = 0.4 * np.cos(1.1 * t) + 0.6 * np.cos(3.3 * t)
        amplitudes, frequencies, _, _ = _seed(t, values, 4)
        np.testing.assert_allclose(frequencies, [1.1, 3.3], atol=5e-3)
        np.testing.assert_allclose(amplitudes, [0.4, 0.6], atol=5e-3)

    def test_sub_rayleigh_pair_defeats_the_periodogram_seed(self):
        # 0.1 rad/J apart inside a window resolving only 0.25 rad/J: one
        # merged periodogram lobe, but two poles to the pencil seed
        t = _grid()
        values = 0.5 * np.cos(2.0 * t) + 0.5 * np.cos(2.1 * t)
        seed = _seed(t, values, 4)
        fit = _refine(t, values, seed)
        np.testing.assert_allclose(fit.frequencies, [2.0, 2.1], atol=1e-8)
        np.testing.assert_allclose(fit.amplitudes, [0.5, 0.5], atol=1e-8)

    def test_featureless_trace_raises(self):
        t = _grid()
        with pytest.raises(ResolutionError, match="peaks"):
            _seed(t, np.zeros(t.size), 2)

    def test_dc_is_estimated_when_requested(self):
        t = _grid()
        values = 0.35 + 0.65 * np.cos(2.2 * t)
        _, _, dc, _ = _seed(t, values, 3)
        assert dc == pytest.approx(0.35, abs=1e-3)

    @pytest.mark.parametrize("rows, poles, seed", [
        (9, 3, 0), (25, 8, 1), (67, 11, 2), (139, 23, 3),
    ])
    def test_closed_form_shift_matches_the_pseudoinverse(self, rows, poles, seed):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((rows, poles)))
        np.testing.assert_allclose(
            _shift_matrix(basis),
            np.linalg.pinv(basis[:-1]) @ basis[1:],
            rtol=0, atol=1e-12,
        )

    def test_unit_last_row_is_a_resolution_error(self):
        # every other basis vector vanishes on the last lag, so the rows
        # above it have rank poles - 1 and the shift is undetermined
        rng = np.random.default_rng(4)
        rest, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        basis = np.zeros((21, 5))
        basis[:-1, 1:] = rest
        basis[-1, 0] = 1.0
        with pytest.raises(ResolutionError, match="last lag"):
            _shift_matrix(basis)

    @pytest.mark.parametrize("layout", ["read-only", "strided"])
    def test_a_values_view_seeds_as_its_contiguous_copy(self, layout):
        # the Hankel matrix is a strided view of values, not a copy
        t = _grid()
        clean = spectral_signal(BENCH_J, t).values.copy()
        if layout == "read-only":
            values = clean.copy()
            values.flags.writeable = False
        else:
            values = np.repeat(clean, 2)[::2]
            assert not values.flags.c_contiguous
        before = values.copy()
        got, want = _seed(t, values, 8), _seed(t, clean, 8)
        assert got[2] is want[2] is None
        for mine, theirs in zip(got[:2] + got[3:], want[:2] + want[3:]):
            np.testing.assert_array_equal(mine, theirs, strict=True)
        np.testing.assert_array_equal(values, before, strict=True)

    def test_trace_ending_in_its_only_nonzero_sample_is_declined(self):
        t = _grid()
        values = np.zeros(t.size)
        values[-1] = 1.0
        with pytest.raises(ResolutionError, match="last lag"):
            _seed(t, values, 4)


class TestRefineFit:
    def test_polishes_perturbed_seed_to_machine_precision(self):
        t = _grid()
        values = 0.3 * np.cos(1.0 * t) + 0.7 * np.cos(3.0 * t)
        seed = CosineSumModel(np.array([0.28, 0.73]), np.array([1.02, 2.97]))
        fit = _refine(t, values, seed)
        np.testing.assert_allclose(fit.frequencies, [1.0, 3.0], atol=1e-8)
        np.testing.assert_allclose(fit.amplitudes, [0.3, 0.7], atol=1e-8)
        assert fit.residual_rms < 1e-10

    def test_idempotent_at_the_optimum(self):
        t = _grid()
        values = 0.3 * np.cos(1.0 * t) + 0.7 * np.cos(3.0 * t)
        seed = CosineSumModel(np.array([0.28, 0.73]), np.array([1.02, 2.97]))
        first = _refine(t, values, seed)
        second = _refine(t, values, first)
        np.testing.assert_allclose(
            second.frequencies, first.frequencies, atol=1e-10
        )
        np.testing.assert_allclose(second.amplitudes, first.amplitudes, atol=1e-10)

    def test_stops_once_a_line_leaves_the_band(self):
        # without the band stop this input ran all 500 steps (about 200 ms)
        spec, config = out_of_band_input()
        (trace,) = simulate_traces(spec, config).traces
        seed = _seed(trace.times, trace.values, 12)
        best = _refine(trace.times, trace.values, seed)
        assert best.iterations <= 2
        assert best.frequencies[-1] >= np.pi / (trace.times[1] - trace.times[0])

    def test_newton_steps_finish_where_gauss_newton_stalls(self):
        # the noise makes the dropped second-order term as large as J^T J
        # along the weak line's omega: Gauss-Newton alone shrinks each step
        # by only 0.93x and stops at FTOL after 134 steps, 1e-6 rad short
        # of the minimum, at a scaled gradient of 3.5e-6
        spec, config = weak_line_input()
        (trace,) = simulate_traces(spec, config).traces
        t, values = trace.times, trace.values
        best = _refine(t, values, _seed(t, values, 12))
        assert best.iterations <= 60
        phase = np.outer(t, best.frequencies)
        J = np.hstack([np.cos(phase), -best.amplitudes * t[:, None] * np.sin(phase)])
        r = best.evaluate(t) - values
        cosines = np.abs(J.T @ r) / (np.linalg.norm(J, axis=0) * np.linalg.norm(r))
        assert cosines.max() <= 1e-10

    def test_running_out_of_steps_returns_the_best_model(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        t = _grid()
        values = 0.3 * np.cos(1.0 * t) + 0.7 * np.cos(3.0 * t)
        seed = CosineSumModel(np.array([0.28, 0.73]), np.array([1.02, 2.97]))
        seed_rms = np.sqrt(np.mean((seed.evaluate(t) - values) ** 2))
        best = _refine(t, values, seed)
        assert best.iterations == 1
        assert best.residual_rms < seed_rms


class TestSeedHandoff:
    """The seed's cosine block goes to the refinement as it is; a fit
    started from it ends where one started from a fresh block does."""

    @pytest.mark.parametrize("poles", [8, 9], ids=["no-dc", "dc"])
    def test_seed_block_is_one_contiguous_row_per_line(self, poles):
        t = _grid()
        values = spectral_signal(np.resize(BENCH_J, poles - 1), t).values
        _, frequencies, _, cos = _seed(t, values, poles)
        assert cos.shape == (poles // 2, t.size)
        assert cos.flags.c_contiguous
        np.testing.assert_array_equal(cos, np.cos(frequencies[:, None] * t), strict=True)

    @pytest.mark.parametrize("sigma", [0.0, 1e-3], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("spec", [
        xx_spec(BENCH_J),
        xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]),
        ising_spec(ISING_JZ, ISING_B),
    ], ids=["xx", "xy", "ising"])
    def test_fit_trace_refines_the_seed_block_bit_for_bit(self, spec, sigma):
        noise = NoiseSpec(sigma, seed=3) if sigma else None
        bundle = simulate_traces(spec, TomographyConfig(noise=noise))
        for chain, trace in zip(flux_chains(spec), bundle.traces):
            poles = chain.m + 1
            times, values = trace.times, trace.probe.sign * trace.values
            amplitudes, frequencies, dc, cos = _seed(times, values, poles)
            np.testing.assert_array_equal(cos, np.cos(frequencies[:, None] * times),
                                          strict=True)
            fresh = (amplitudes, frequencies, dc, np.cos(frequencies[:, None] * times))
            want = refine_fit(times, values, fresh, times[1] - times[0])
            got = fit_trace(trace, poles, noise_sigma=sigma)
            np.testing.assert_array_equal(got.amplitudes, want.amplitudes, strict=True)
            np.testing.assert_array_equal(got.frequencies, want.frequencies, strict=True)
            assert (got.dc, got.residual_rms, got.iterations) == (
                want.dc, want.residual_rms, want.iterations)


class TestFitTrace:
    def test_benchmark_lines_match_the_tridiagonal_spectrum(self):
        # fitted frequencies must be twice the positive eigenvalues of the
        # flux-chain matrix, amplitudes the paired boundary weights
        fit = fit_trace(spectral_signal(BENCH_J, _grid()), 8)
        lam, vec = eigh_tridiagonal(np.zeros(8), BENCH_J)
        weight = vec[0, :] ** 2
        positive = lam > 0
        omega_expected = np.sort(2.0 * lam[positive])
        # bipartite +/- pairing: the weight of -lambda joins +lambda's line
        paired = weight[positive][np.argsort(lam[positive])] + weight[~positive][
            np.argsort(-lam[~positive])
        ]
        np.testing.assert_allclose(fit.frequencies, omega_expected, atol=1e-8)
        np.testing.assert_allclose(fit.amplitudes, paired, atol=1e-8)
        assert fit.residual_rms < 1e-12

    def test_noiseless_refinement_stops_at_the_rounding_floor(self):
        # the last steps move theta by a few ulps; the step floor ends the
        # fit there instead of after a run of rejected, ever more damped steps
        fit = fit_trace(spectral_signal(BENCH_J, _grid()), 8)
        assert fit.iterations <= 2
        assert fit.residual_rms <= 1e-14

    def test_step_floor_weighs_each_parameter_by_its_jacobian_column(self):
        # a frequency ulp moves the model about t_max times as much as an
        # amplitude ulp, so an unscaled step floor takes this chain's first
        # step for rounding noise and stops the fit at its seed
        (trace,) = simulate_traces(xx_spec([1.1, 0.8, 1.3, 0.9, 1.2])).traces
        fit = fit_trace(trace, 6)
        assert fit.residual_rms <= 2e-15

    def test_amplitudes_sum_to_one_for_physical_traces(self):
        fit = fit_trace(spectral_signal(BENCH_J, _grid()), 8)
        assert fit.amplitude_sum == pytest.approx(1.0, abs=1e-6)

    def test_unnormalized_trace_is_fitted_as_it_is(self):
        # the fitter holds the amplitudes to no sum; alpha(0) = 1 is the
        # pipeline's to judge
        t = _grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_trace(_signal(t, 0.5 * np.cos(2.0 * t)), 2)
        assert fit.amplitude_sum == pytest.approx(0.5, abs=1e-12)

    def test_dc_term_of_odd_node_chain(self):
        # 3-node flux chain (1.0, 0.8): zero eigenvalue with weight
        # c2^2/(c1^2+c2^2) = 0.64/1.64 appears as the constant term
        fit = fit_trace(spectral_signal(np.array([1.0, 0.8]), _grid()), 3)
        assert fit.dc == pytest.approx(0.64 / 1.64, abs=1e-9)
        assert fit.frequencies[0] == pytest.approx(2.0 * np.sqrt(1.64), abs=1e-9)
        assert fit.amplitudes[0] == pytest.approx(1.0 / 1.64, abs=1e-9)

    def test_noisy_trace_fits_to_the_noise_floor(self):
        trace = spectral_signal(BENCH_J, _grid())
        noisy = add_noise(trace, NoiseSpec(sigma=0.01, seed=3))
        fit = fit_trace(noisy, 8, noise_sigma=0.01)
        assert 0.004 < fit.residual_rms < 0.02
        lam, _ = eigh_tridiagonal(np.zeros(8), BENCH_J)
        omega_expected = np.sort(2.0 * lam[lam > 0])
        np.testing.assert_allclose(fit.frequencies, omega_expected, atol=5e-3)

    def test_rescue_separates_a_sub_rayleigh_pair(self):
        t = _grid()
        values = 0.5 * np.cos(2.0 * t) + 0.5 * np.cos(2.1 * t)
        fit = fit_trace(_signal(t, values), 4)
        np.testing.assert_allclose(fit.frequencies, [2.0, 2.1], atol=1e-9)
        np.testing.assert_allclose(fit.amplitudes, [0.5, 0.5], atol=1e-9)

    def test_rescue_ladder_recovers_merged_peaks(self):
        fit = fit_trace(spectral_signal(MERGED_PEAK_J, _grid()), 8)
        assert fit.residual_rms <= 1e-8
        lam, _ = eigh_tridiagonal(np.zeros(8), MERGED_PEAK_J)
        omega_expected = np.sort(2.0 * lam[lam > 0])
        np.testing.assert_allclose(fit.frequencies, omega_expected, atol=1e-6)

    def test_unresolvable_trace_raises_instead_of_guessing(self):
        rng = np.random.default_rng(0)
        t = _grid()
        values = rng.uniform(-0.9, 0.9, t.size)
        with pytest.raises(ResolutionError):
            fit_trace(_signal(t, values), 8)

    def test_running_out_of_steps_goes_on_with_the_best_model(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        noisy = add_noise(spectral_signal(BENCH_J, _grid()), NoiseSpec(sigma=0.01, seed=3))
        best = _refine(noisy.times, noisy.values, _seed(noisy.times, noisy.values, 8))
        fit = fit_trace(noisy, 8, noise_sigma=0.01)
        assert fit.iterations == 1
        np.testing.assert_array_equal(fit.frequencies, best.frequencies)
        np.testing.assert_array_equal(fit.amplitudes, best.amplitudes)
        assert fit.residual_rms == best.residual_rms

    def test_too_few_samples(self):
        t = _grid(n=12)
        with pytest.raises(SpecError, match="need at least 18 samples to seed 8 poles, got 12$"):
            fit_trace(_signal(t, np.cos(t)), 8)

    def test_single_sample_trace_is_a_spec_error(self):
        with pytest.raises(SpecError, match="need at least 6 samples to seed 2 poles, got 1$"):
            fit_trace(_signal([0.0], [1.0]), 2)

    def test_nonuniform_sampling_rejected(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.7, 0.8])
        with pytest.raises(SpecError, match="^trace sampling must be uniform$"):
            fit_trace(_signal(t, np.cos(t)), 2)

    def test_grid_is_checked_once_and_its_step_feeds_both_steps(self, monkeypatch):
        # the steps are looked up by their module-level names at call time
        calls = []

        def spy(name):
            original = getattr(fitting, name)

            def wrapper(*args):
                calls.append((name, args[-1]))
                return original(*args)
            monkeypatch.setattr(fitting, name, wrapper)

        for name in ("_check_sampling", "estimate_spectrum", "refine_fit"):
            spy(name)
        t = _grid()
        fit_trace(_signal(t, np.cos(2.0 * t) + 0.5 * np.cos(3.0 * t)), 4)
        dt = t[1] - t[0]
        assert calls == [("_check_sampling", 4), ("estimate_spectrum", dt), ("refine_fit", dt)]

    def test_minus_prepared_trace_fits_as_its_plus_twin(self):
        # the fit reads probe.sign * values: alpha(t), whatever the
        # preparation; negation is exact, so the fits agree bit for bit
        t = _grid()
        fit = fit_trace(spectral_signal(BENCH_J, t, Probe.MINUS_X), 8)
        assert fit.to_dict() == fit_trace(spectral_signal(BENCH_J, t, Probe.PLUS_X), 8).to_dict()

    def test_minus_prepared_fit_inverts_to_the_chain(self):
        fit = fit_trace(spectral_signal(BENCH_J, _grid(), Probe.MINUS_X), 8)
        np.testing.assert_allclose(spectral_couplings(fit), BENCH_J, atol=1e-8)

    def test_a_times_values_pair_is_a_spec_error(self):
        trace = spectral_signal(BENCH_J, _grid())
        with pytest.raises(SpecError, match="takes a SignalTrace, got tuple$"):
            fit_trace((trace.times, trace.values), 8)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, -1.0], ids=["inf", "nan", "negative"])
    def test_noise_sigma_is_checked_as_noise_spec_checks_it(self, sigma, monkeypatch):
        # an infinite sigma once raised the residual floor to infinity, so
        # pure noise came back as a fit; a negative one read as 0
        values = np.random.default_rng(0).uniform(-0.9, 0.9, 200)
        trace = SignalTrace(np.pi / 25 * np.arange(200), values, Probe.PLUS_X)
        monkeypatch.setattr(fitting, "estimate_spectrum", None)  # refused before any fit work
        with pytest.raises(SpecError, match="^noise sigma must be finite and nonnegative$"):
            fit_trace(trace, 3, noise_sigma=sigma)
        with pytest.raises(SpecError, match="^noise sigma must be finite and nonnegative$"):
            NoiseSpec(sigma)

    @pytest.mark.parametrize("poles", [2.0, 3.5, 0, 1, -1, True, "3"],
                             ids=["float", "fraction", "zero", "one", "negative", "bool", "str"])
    @pytest.mark.parametrize("fitter", [fit_trace], ids=["fit_trace"])
    def test_pole_count_must_be_an_integer_of_at_least_two(self, fitter, poles):
        t = _grid()
        with pytest.raises(SpecError, match=f"pole count .* got {re.escape(repr(poles))}$"):
            fitter(_signal(t, np.cos(2.0 * t)), poles)

    def test_numpy_integer_pole_count_is_accepted(self):
        t = _grid()
        trace = _signal(t, np.cos(2.0 * t) + 0.5 * np.cos(3.0 * t))
        assert fit_trace(trace, np.int64(4)).to_dict() == fit_trace(trace, 4).to_dict()
