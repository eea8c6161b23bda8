"""End-to-end pipeline: simulate or ingest, fit, match, invert, label."""

import dataclasses
import itertools
import json
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from chaintomo import (
    ChainSpec,
    ChainTomoError,
    CosineSumModel,
    DegenerateError,
    EigenError,
    Model,
    NoiseSpec,
    ResolutionError,
    SignalTrace,
    SpecError,
    TomographyConfig,
    TraceBundle,
    flux_chains,
    read_trace,
    run_tomography,
    sample_times,
    simulate_traces,
    spectral_signal,
    write_trace,
)
from chaintomo import tomography
from chaintomo.chain_model import Observable, Probe, chain_layout

from _bench import (
    BENCH_J,
    ISING_B,
    ISING_JZ,
    ising_spec,
    out_of_band_input,
    xx_spec,
    xy_spec,
)


class TestConfig:
    def test_defaults(self):
        config = TomographyConfig()
        assert config.sample_step == pytest.approx(math.pi / 25)
        assert config.window == pytest.approx(8 * math.pi)
        times = sample_times(config)
        assert times.size == 200
        assert times[0] == 0.0
        assert times[1] == pytest.approx(math.pi / 25)

    def test_invariants(self):
        with pytest.raises(SpecError):
            TomographyConfig(sample_step=0.0)
        with pytest.raises(SpecError):
            TomographyConfig(sample_step=1.0, window=5.0)

    @pytest.mark.parametrize("kwargs", [
        {"sample_step": math.nan},
        {"sample_step": math.inf},
        {"window": math.nan},
        {"window": math.inf},
    ], ids=["step_nan", "step_inf", "window_nan", "window_inf"])
    def test_non_finite_sampling_rejected(self, kwargs):
        words = ("sample_step must be finite and positive" if "sample_step" in kwargs
                 else "window must be finite")
        with pytest.raises(SpecError, match=f"^{words}$"):
            TomographyConfig(**kwargs)


# each link of the 512 three-link chains that the over-declared sweep reads
SHORT_CHAIN_J = [0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4]


class TestSimulateMode:
    def test_two_spin_chain_is_recovered_exactly(self):
        result = run_tomography(xx_spec([0.9]))
        assert [p.name for p in result.parameters] == ["J_1"]
        assert result.parameters[0].estimate == pytest.approx(0.9, abs=1e-6)

    def test_benchmark_chain(self):
        result = run_tomography(xx_spec(BENCH_J))
        assert [p.name for p in result.parameters] == [
            f"J_{i}" for i in range(1, 8)
        ]
        for p, truth in zip(result.parameters, BENCH_J):
            assert p.truth == truth
            assert p.abs_error == pytest.approx(0.0, abs=1e-3)
        assert result.residual_rms < 1e-10
        assert result.fits.keys() == {"x1"}

    def test_three_spin_chain_with_constant_term(self):
        result = run_tomography(xx_spec([1.0, 0.8]))
        for p in result.parameters:
            assert p.abs_error < 1e-6
        assert result.fits["x1"].dc == pytest.approx(0.64 / 1.64, abs=1e-6)

    def test_ising_benchmark(self):
        result = run_tomography(ising_spec(ISING_JZ, ISING_B))
        assert [p.name for p in result.parameters] == [
            "B_1", "JZ_1", "B_2", "JZ_2", "B_3", "JZ_3", "B_4",
        ]
        for p in result.parameters:
            assert p.abs_error < 1e-6
        assert result.fits.keys() == {"z1"}

    def test_xy_recovers_both_families(self):
        spec = xy_spec([1.1, 0.7, 1.3, 0.9, 1.2], [0.9, 1.2, 0.6, 1.4, 0.8])
        result = run_tomography(spec)
        assert set(result.recovered) == {
            label for fc in flux_chains(spec) for label in fc.labels
        }
        for p in result.parameters:
            assert p.abs_error < 1e-6
        assert result.fits.keys() == {"x1", "y1"}

    def test_signed_couplings_recovered_with_truth_signs(self):
        spec = xx_spec([1.0, -0.8, 0.9], allow_signed=True)
        result = run_tomography(spec)
        assert result.recovered["J_2"] == pytest.approx(-0.8, abs=1e-6)

    def test_chains_are_reduced_once_per_run(self, monkeypatch):
        calls = []
        original = tomography.flux_chains

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tomography, "flux_chains", counting)
        result = run_tomography(xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]))
        assert len(result.parameters) == 6
        assert len(calls) == 1

    def test_foreign_warnings_reach_the_caller(self, monkeypatch):
        # a run's notes are values; a warning raised inside a stage is not one
        original = tomography.fit_trace

        def warning_fit(*args, **kwargs):
            warnings.warn("from inside the fit", RuntimeWarning)
            return original(*args, **kwargs)

        monkeypatch.setattr(tomography, "fit_trace", warning_fit)
        with pytest.warns(RuntimeWarning, match="from inside the fit"):
            result = run_tomography(xx_spec([1.0, 0.8]))
        assert result.warnings == ()

    @pytest.mark.parametrize("n_spins", [3.0, True], ids=["float", "bool"])
    def test_non_integer_n_spins_is_refused_when_built(self, n_spins):
        # the spec validates itself when built, outside any pipeline stage
        with pytest.raises(SpecError, match="n_spins") as exc_info:
            ChainSpec(Model.XX, n_spins, {"J": [1.0, 0.8]})
        assert exc_info.value.stage is None

    @pytest.mark.parametrize("n_spins", [3.7, True, 3.0], ids=["fraction", "bool", "float"])
    def test_json_n_spins_is_not_truncated(self, n_spins):
        # from_dict used to pass n_spins through int(): 3.7 ran as 3 spins
        with pytest.raises(SpecError, match="n_spins must be an integer") as exc_info:
            ChainSpec.from_dict(
                {"model": "xx", "n_spins": n_spins, "couplings": {"J": [1.0, 0.8]}}
            )
        assert exc_info.value.stage is None

    def test_unknown_source_type_rejected(self):
        with pytest.raises(SpecError, match="ChainSpec or TraceBundle"):
            run_tomography(42)

    def test_noisy_run_is_deterministic(self):
        config = TomographyConfig(noise=NoiseSpec(sigma=0.005, seed=13))
        a = run_tomography(xx_spec(BENCH_J), config)
        b = run_tomography(xx_spec(BENCH_J), config)
        assert a.to_json() == b.to_json()

    def test_noise_seed_changes_the_estimates(self):
        a = run_tomography(
            xx_spec(BENCH_J), TomographyConfig(noise=NoiseSpec(0.005, seed=13))
        )
        b = run_tomography(
            xx_spec(BENCH_J), TomographyConfig(noise=NoiseSpec(0.005, seed=14))
        )
        assert a.recovered["J_1"] != b.recovered["J_1"]

    def test_noise_robustness_margin(self):
        # regression guard well inside the acceptance tolerance
        config = TomographyConfig(noise=NoiseSpec(sigma=0.01, seed=7))
        result = run_tomography(xx_spec(BENCH_J), config)
        worst = max(p.abs_error for p in result.parameters)
        assert worst < 2e-2

    def test_noisy_xy_chain_fits_without_a_spec_error(self):
        # log-parabolic interpolation of this trace's periodogram peaks
        # lands below zero frequency; a valid input must not end in a
        # SpecError (an input error) from the fit stage
        spec = xy_spec(
            [0.514769, 0.766198, 0.549743, 0.721555, 0.841599],
            [0.832036, 1.324854, 1.347068, 1.085336, 0.867069],
        )
        config = TomographyConfig(
            sample_step=math.pi / 25, window=8 * math.pi,
            noise=NoiseSpec(1e-3, 668481305),
        )
        result = run_tomography(spec, config)
        assert max(p.abs_error for p in result.parameters) < 1e-2

    def test_line_beyond_nyquist_is_a_resolution_error(self):
        # refinement chases a noise line to ~3e14 rad; an aliased line must
        # stop the run at the fit, not reach the inversion
        spec = ising_spec(
            [0.561343, 1.075627, 0.72744, 0.514358, 0.978386],
            [0.875422, 1.225016, 1.203946, 0.858685, 0.99895, 0.863943],
        )
        config = TomographyConfig(
            window=12 * math.pi, noise=NoiseSpec(0.01, 813391443)
        )
        with pytest.raises(ResolutionError, match="Nyquist") as exc_info:
            run_tomography(spec, config)
        assert exc_info.value.stage == "fit"

    def test_line_leaving_the_band_is_declined_at_the_fit(self):
        # refinement stops at the band edge; the fit's Nyquist guard names it
        spec, config = out_of_band_input()
        with pytest.raises(ResolutionError, match="Nyquist") as exc_info:
            run_tomography(spec, config)
        assert exc_info.value.stage == "fit"

    @pytest.mark.parametrize("model, n_spins, tol", [
        pytest.param("xx", 12, 1e-6, id="xx"),
        pytest.param("ising_transverse", 6, 1e-6, id="ising_transverse"),
        # longer chains guard the refinement's step floor against ending a
        # noiseless fit short of full precision; at m = 23 the inversion of
        # a fit at rms 1.6e-15 is off by 2.7e-6 on the first chain
        pytest.param("xx", 16, 1e-8, id="xx-m15"),
        pytest.param("xx", 24, 1e-5, id="xx-m23"),
        pytest.param("ising_transverse", 8, 1e-8, id="ising_transverse-m15"),
    ])
    def test_noiseless_eleven_link_chains_are_recovered(self, model, n_spins, tol):
        # the Taylor route ended every 11-link input in a false DegenerateError
        rng = np.random.default_rng(12)
        for _ in range(3):
            if model == "xx":
                spec = xx_spec(rng.uniform(0.5, 1.5, n_spins - 1))
            else:
                spec = ising_spec(
                    rng.uniform(0.5, 1.5, n_spins - 1), rng.uniform(0.5, 1.5, n_spins)
                )
            m = sum(spec.couplings[k].size for k in spec.couplings)
            result = run_tomography(spec, TomographyConfig(window=(m + 1) * math.pi))
            assert max(p.abs_error for p in result.parameters) < tol
            assert all(fit.residual_rms < 1e-13 for fit in result.fits.values())

    def test_trace_of_a_shorter_chain_is_degenerate_at_invert(self):
        # three links give four nodes; a five-spin bundle needs five
        times = sample_times(TomographyConfig())
        from chaintomo import spectral_signal

        trace = spectral_signal([1.0, 0.8, 0.9], times)
        bundle = TraceBundle(model=Model.XX, n_spins=5, traces=(trace,))
        with pytest.raises(DegenerateError) as exc_info:
            run_tomography(bundle)
        assert exc_info.value.stage == "invert"
        assert exc_info.value.link == 4

    @pytest.mark.parametrize("j1", SHORT_CHAIN_J)
    def test_noiseless_trace_one_node_short_is_degenerate_at_invert(self, j1):
        # a 3-link xx trace read as 5 spins: its fitted dc is rounding of
        # either sign, and no rounding may pass for a fourth link
        times = sample_times(TomographyConfig())
        for j2, j3 in itertools.product(SHORT_CHAIN_J, repeat=2):
            trace = spectral_signal([j1, j2, j3], times)
            bundle = TraceBundle(model=Model.XX, n_spins=5, traces=(trace,))
            with pytest.raises(DegenerateError) as exc_info:
                run_tomography(bundle)
            assert (exc_info.value.stage, exc_info.value.link) == ("invert", 4)

    @pytest.mark.parametrize("m", [5, 7, 9, 11])
    @pytest.mark.parametrize("windows", [1, 2, 4])
    def test_longer_noiseless_trace_one_node_short_is_degenerate(self, m, windows):
        rng = np.random.default_rng(40 + m)
        config = TomographyConfig(window=windows * (m + 1) * math.pi)
        for _ in range(3):
            trace = spectral_signal(rng.uniform(0.5, 1.5, m), sample_times(config))
            bundle = TraceBundle(model=Model.XX, n_spins=m + 2, traces=(trace,))
            with pytest.raises(DegenerateError) as exc_info:
                run_tomography(bundle)
            assert (exc_info.value.stage, exc_info.value.link) == ("invert", m + 1)

    def test_simulation_errors_carry_the_simulate_stage(self, monkeypatch):
        def failing(*args, **kwargs):
            raise EigenError("tridiagonal eigensolve failed")

        monkeypatch.setattr(tomography, "spectral_signal", failing)
        with pytest.raises(EigenError) as exc_info:
            run_tomography(xx_spec(BENCH_J))
        assert exc_info.value.stage == "simulate"

    def test_a_step_that_aliases_the_chain_is_refused(self):
        # the top line 2 max|lambda| = 3.354 rad is above pi / 1.0, so its
        # alias at 2.929 rad would be fitted as a chain with other couplings
        spec = xx_spec([1.1, 0.8, 1.3])
        with pytest.raises(SpecError) as exc_info:
            run_tomography(spec, TomographyConfig(sample_step=1.0))
        assert exc_info.value.stage == "simulate"
        assert str(exc_info.value) == (
            "sample_step 1 cannot resolve the chain probed by x1: its top line "
            "at 3.354 rad is at or above the Nyquist frequency 3.142 rad"
        )
        # just inside Nyquist (pi / 3.354 = 0.937) the chain is recovered
        result = run_tomography(spec, TomographyConfig(sample_step=0.93))
        assert max(p.abs_error for p in result.parameters) < 1e-9

    def test_each_probe_is_judged_against_its_own_chain(self):
        # y1 probes the chain JX_1, JY_2, JX_3, with its top line at 3.54
        # rad; x1's chain JY_1, JX_2, JY_3 tops out at 1.34 rad
        spec = xy_spec([1.5, 0.3, 1.6], [0.5, 0.4, 0.5])
        with pytest.raises(SpecError, match="chain probed by y1") as exc_info:
            simulate_traces(spec, TomographyConfig(sample_step=1.0))
        assert exc_info.value.stage is None

    def test_an_error_keeps_the_stage_it_carries(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ResolutionError("declined", stage="seed")

        monkeypatch.setattr(tomography, "fit_trace", failing)
        with pytest.raises(ResolutionError) as exc_info:
            run_tomography(xx_spec(BENCH_J))
        assert exc_info.value.stage == "seed"


class TestResultObject:
    def test_json_serialization_round_trips_fits(self):
        result = run_tomography(xx_spec(BENCH_J))
        data = json.loads(result.to_json())
        assert data["model"] == "xx"
        assert data["n_spins"] == 8
        fit = CosineSumModel.from_dict(data["fits"]["x1"])
        np.testing.assert_array_equal(
            fit.frequencies, result.fits["x1"].frequencies
        )
        names = [p["parameter"] for p in data["parameters"]]
        assert names == [f"J_{i}" for i in range(1, 8)]

    # numpy integers pass the integer checks; each used to reach json.dumps
    # and fail there with an untyped TypeError
    def test_numpy_n_spins_serialises(self):
        spec = ChainSpec(Model.XX, np.int64(3), {"J": [1.0, 0.8]})
        assert json.loads(run_tomography(spec).to_json())["n_spins"] == 3

    def test_numpy_n_spins_metadata_serialises(self):
        spec = ChainSpec(Model.XX, np.int64(3), {"J": [1.0, 0.8]})
        meta = json.loads(json.dumps(simulate_traces(spec).to_metadata()))
        assert meta["n_spins"] == 3

    # a checked number is stored as a Python number, so a numpy scalar or a
    # Fraction that passes its check also passes json.dumps, and write_trace
    # writes the sidecar beside the CSV
    @pytest.mark.parametrize("make", [
        pytest.param(lambda tmp: simulate_traces(xx_spec([1.0, 0.8]), TomographyConfig(
            noise=NoiseSpec(np.float32(0.01), 3))).to_metadata(), id="noise_sigma_float32"),
        pytest.param(lambda tmp: simulate_traces(xx_spec([1.0, 0.8]), TomographyConfig(
            noise=NoiseSpec(Fraction(1, 100), 3))).to_metadata(), id="noise_sigma_fraction"),
        pytest.param(lambda tmp: _float32_bundle().to_metadata(), id="bundle_sigma_float32"),
        pytest.param(lambda tmp: read_trace(write_trace(
            _float32_bundle().traces[0], tmp / "t.csv", _float32_bundle().to_metadata()))[1],
            id="write_trace_float32_sigma"),
        # the manifest writes a config through asdict
        pytest.param(lambda tmp: dataclasses.asdict(TomographyConfig(
            sample_step=np.float32(0.125))), id="sample_step_float32"),
        pytest.param(lambda tmp: dataclasses.asdict(TomographyConfig(
            window=np.int64(30))), id="window_int64"),
        pytest.param(lambda tmp: dataclasses.asdict(TomographyConfig(
            noise=NoiseSpec(0.01, np.int64(3)))), id="noise_seed_int64"),
    ])
    def test_checked_numbers_serialise(self, make, tmp_path):
        data = make(tmp_path)
        assert json.loads(json.dumps(data)) == data


def _float32_bundle():
    """A noiseless 3-spin XX bundle that declares a float32 noise level."""
    trace = spectral_signal([1.0, 0.8], sample_times(TomographyConfig()))
    return TraceBundle(Model.XX, 3, (trace,), noise_sigma=np.float32(0.01))


def _write_bundle(spec, tmp_path, config=None):
    """Simulate, write to disk, and read back as (trace, meta) pairs."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    bundle = simulate_traces(spec, config)
    meta = bundle.to_metadata()
    pairs = []
    for trace in bundle.traces:
        path = tmp_path / f"trace_{trace.probe.observable.value}.csv"
        write_trace(trace, path, meta)
        pairs.append(read_trace(path))
    return pairs


def _scaled_bundle(factor):
    """A noiseless 4-spin XX bundle whose x1 trace is scaled by factor."""
    (trace,) = simulate_traces(xx_spec([1.1, 0.8, 1.3])).traces
    scaled = SignalTrace(trace.times, factor * trace.values, trace.probe)
    return TraceBundle(Model.XX, 4, (scaled,))


HALF_NOTE = "x1: fitted amplitudes sum to 0.500000, expected 1"
SIGMA_WORDS = "noise sigma must be finite and nonnegative"
TRUTH_WORDS = "traces must agree on the truth couplings and allow_signed"


def _outcome(source, config=None):
    """A run's result as a dict, or its error's class, stage and message."""
    try:
        result = run_tomography(source, config)
    except ChainTomoError as exc:
        return type(exc), exc.stage, str(exc)
    return result.to_dict()


class TestIngestMode:
    @pytest.mark.parametrize("spec, observables", [
        pytest.param(xx_spec([1.1, 0.7, 1.3]), ("x1",), id="xx"),
        pytest.param(xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]), ("x1", "y1"), id="xy"),
        pytest.param(ising_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6, 1.4]), ("z1",),
                     id="ising_transverse"),
    ])
    def test_matches_simulation_mode_exactly(self, tmp_path, spec, observables):
        bundle = TraceBundle.from_metadata(_write_bundle(spec, tmp_path / "clean"))
        result = run_tomography(bundle)
        reference = run_tomography(spec)
        assert result.fits.keys() == set(observables)
        assert len(result.parameters) == len(reference.parameters)
        for got, want in zip(result.parameters, reference.parameters):
            assert got.name == want.name
            assert got.estimate == pytest.approx(want.estimate, abs=1e-12)
            assert got.truth == want.truth  # carried via the sidecar
        # the two routes reconstruct the same bundle, so their results
        # and errors agree to the bit
        assert _outcome(bundle) == _outcome(spec, TomographyConfig())
        noisy = TomographyConfig(noise=NoiseSpec(sigma=1e-2, seed=3))
        bundle = TraceBundle.from_metadata(_write_bundle(spec, tmp_path / "noisy", noisy))
        assert _outcome(bundle) == _outcome(spec, noisy)

    def test_a_spec_simulates_into_the_bundle_it_describes(self):
        spec = xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6])
        config = TomographyConfig(noise=NoiseSpec(sigma=1e-2, seed=3))
        bundle = simulate_traces(spec, config)
        assert bundle.truth is spec
        assert bundle.noise_sigma == config.noise.sigma
        assert (bundle.model, bundle.n_spins) == (spec.model, spec.n_spins)
        layout = chain_layout(spec.model, spec.n_spins)
        assert [t.probe for t in bundle.traces] == [probe for probe, _ in layout]
        # each chain draws its own stream, seeded at seed + chain index
        times = sample_times(config)
        for index, trace in enumerate(bundle.traces):
            clean = spectral_signal(flux_chains(spec)[index].links, times, trace.probe)
            noise = np.random.default_rng(3 + index).normal(0.0, 1e-2, times.size)
            np.testing.assert_array_equal(trace.values, clean.values + noise)

    def test_metadata_round_trips_the_bundle(self):
        spec = xx_spec([1.0, -0.8, 0.9], allow_signed=True)
        config = TomographyConfig(noise=NoiseSpec(sigma=1e-2, seed=3))
        bundle = simulate_traces(spec, config)
        meta = bundle.to_metadata()
        # the noise block states sigma only: the seed differs per trace
        assert meta["noise"] == {"sigma": 0.01}
        assert "seed" not in meta
        again = TraceBundle.from_metadata([(t, meta) for t in bundle.traces])
        assert again.to_metadata() == meta
        assert (again.model, again.n_spins) == (bundle.model, bundle.n_spins)
        assert again.noise_sigma == bundle.noise_sigma
        assert again.truth.to_dict() == spec.to_dict()
        assert TraceBundle(Model.XX, 4, bundle.traces).to_metadata() == {
            "model": "xx", "n_spins": 4, "noise": None,
        }

    def test_bundle_is_ingested_without_a_config(self, tmp_path):
        spec = xx_spec([1.0, 0.8, 1.2])
        bundle = TraceBundle.from_metadata(_write_bundle(spec, tmp_path))
        result = run_tomography(bundle)
        np.testing.assert_allclose(
            [result.recovered[f"J_{i}"] for i in range(1, 4)], [1.0, 0.8, 1.2],
            atol=1e-6,
        )

    @pytest.mark.parametrize("config", [
        pytest.param(TomographyConfig(), id="default"),
        # used to replace the bundle's sigma, dropping the fit floor to 1e-8
        pytest.param(TomographyConfig(noise=NoiseSpec(0.0)), id="noise_zero"),
    ])
    def test_bundle_with_a_config_is_refused(self, config):
        times = sample_times(TomographyConfig())
        from chaintomo import spectral_signal

        trace = spectral_signal([1.0, 0.8], times)
        bundle = TraceBundle(model=Model.XX, n_spins=3, traces=(trace,),
                             noise_sigma=0.01)
        with pytest.raises(SpecError, match="takes no TomographyConfig") as exc_info:
            run_tomography(bundle, config)
        assert exc_info.value.stage == "validate"

    def test_missing_probe_trace_is_an_ingest_error(self, tmp_path):
        # a bundle checks its traces against its chain's probes when built
        spec = xy_spec([1.1, 0.7], [0.9, 1.2])
        pairs = _write_bundle(spec, tmp_path)
        only_x1 = [p for p in pairs if p[0].probe.observable is Observable.X1]
        with pytest.raises(SpecError, match="y1") as exc_info:
            TraceBundle(model=Model.XY, n_spins=3, traces=tuple(t for t, _ in only_x1))
        assert exc_info.value.stage is None

    def test_unphysical_values_are_rejected_at_ingest(self):
        times = sample_times(TomographyConfig())
        trace = SignalTrace(
            times, np.full(times.size, 1.5),
            Probe.PLUS_X,
        )
        with pytest.raises(SpecError, match="bound") as exc_info:
            TraceBundle(model=Model.XX, n_spins=3, traces=(trace,))
        assert exc_info.value.stage is None

    @pytest.mark.parametrize("peak, sigma, accepted", [
        pytest.param(1.05, 0.0, True, id="within_0.1"),
        pytest.param(1.15, 0.0, False, id="beyond_0.1"),
        pytest.param(1.25, 0.05, True, id="within_6_sigma"),
    ])
    def test_physical_bound_allows_for_the_noise(self, peak, sigma, accepted):
        # the bound is 1 + max(0.1, 6 * noise_sigma)
        trace = SignalTrace([0.0, 1.0], [1.0, peak], Probe.PLUS_X)
        if accepted:
            assert TraceBundle(Model.XX, 3, (trace,), noise_sigma=sigma).traces == (trace,)
        else:
            with pytest.raises(SpecError, match=r"bound 1 \+ 0.1$"):
                TraceBundle(Model.XX, 3, (trace,), noise_sigma=sigma)

    def test_nonuniform_trace_is_refused_at_the_fit(self):
        # the grid is fit_trace's to check, so the bundle builds
        times = sample_times(TomographyConfig())
        times[5:] += 0.01
        trace = SignalTrace(
            times, np.cos(times), Probe.PLUS_X
        )
        bundle = TraceBundle(model=Model.XX, n_spins=3, traces=(trace,))
        with pytest.raises(SpecError, match="uniform") as exc_info:
            run_tomography(bundle)
        assert exc_info.value.stage == "fit"

    def test_too_short_trace_is_refused_at_the_fit(self):
        # a 7-link chain's fit seeds 8 poles, which takes 18 samples
        trace = spectral_signal([1.0] * 7, np.arange(6) * 0.1)
        with pytest.raises(SpecError, match="need at least 18 samples") as exc_info:
            run_tomography(TraceBundle(Model.XX, 8, (trace,)))
        assert exc_info.value.stage == "fit"

    def test_unnormalized_trace_is_noted_not_warned(self):
        # alpha(0) = 1 is judged by the pipeline and reported as a value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_tomography(_scaled_bundle(0.5))
        assert result.warnings == (HALF_NOTE,)
        assert json.loads(result.to_json())["warnings"] == [HALF_NOTE]
        assert run_tomography(_scaled_bundle(1.0)).warnings == ()

    def test_concurrent_runs_keep_their_own_notes(self):
        # a run keeps no process-wide warning state, so a note can neither
        # cross into another thread's result nor go missing from its own;
        # a tiny switch interval makes the threads interleave inside runs
        clean, scaled = _scaled_bundle(1.0), _scaled_bundle(0.5)

        def notes(bundle):
            return [run_tomography(bundle).warnings for _ in range(200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                clean_runs, scaled_runs = pool.map(notes, [clean, scaled], timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert set(clean_runs) == {()}
        assert set(scaled_runs) == {(HALF_NOTE,)}

    def test_duplicate_probe_traces_are_an_ingest_error(self, tmp_path):
        # from_metadata raises the bundle's refusal as the bundle words it
        (pair,) = _write_bundle(xx_spec([1.1, 0.7]), tmp_path)
        with pytest.raises(SpecError,
                           match="^ingest needs exactly one trace probing x1, got 2$") as exc_info:
            TraceBundle.from_metadata([pair, pair])
        assert exc_info.value.stage is None

    def test_traces_are_kept_in_layout_order(self):
        x1, y1 = simulate_traces(xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6])).traces
        assert TraceBundle(Model.XY, 4, [y1, x1]).traces == (x1, y1)

    def test_trace_no_probe_reads_is_an_ingest_error(self):
        # an xx chain is probed on x1 only; its y1 trace used to be dropped
        x1, y1 = simulate_traces(xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6])).traces
        words = "^ingest has no probe for the trace probing y1: xx chains are probed on x1 only$"
        with pytest.raises(SpecError, match=words) as exc_info:
            TraceBundle(Model.XX, 4, (x1, y1))
        assert exc_info.value.stage is None

    def test_garbage_trace_fails_in_the_fit_stage(self):
        rng = np.random.default_rng(1)
        times = sample_times(TomographyConfig())
        trace = SignalTrace(
            times, rng.uniform(-0.9, 0.9, times.size),
            Probe.PLUS_X,
        )
        bundle = TraceBundle(model=Model.XX, n_spins=8, traces=(trace,))
        with pytest.raises(ResolutionError) as exc_info:
            run_tomography(bundle)
        assert exc_info.value.stage == "fit"

    def test_undeclared_noise_is_declined_without_naming_a_cause(self):
        # the fit reaches the noise; only the floor max(1e-8, 2 * 0) is
        # wrong, so the message states the declared sigma, not "the window
        # cannot separate" the lines
        noisy = simulate_traces(
            xx_spec([1.1, 0.8, 1.3, 0.9, 1.2]),
            TomographyConfig(window=6 * math.pi, noise=NoiseSpec(1e-3, 5)),
        )
        bundle = TraceBundle(model=Model.XX, n_spins=6, traces=noisy.traces)
        with pytest.raises(ResolutionError, match=r"declared noise_sigma 0$") as exc_info:
            run_tomography(bundle)
        assert exc_info.value.stage == "fit"
        assert "cannot separate" not in str(exc_info.value)

    def test_metadata_must_agree(self, tmp_path):
        pairs_a = _write_bundle(xx_spec([1.0]), tmp_path / "a")
        pairs_b = _write_bundle(ising_spec([1.0], [0.9, 1.1]), tmp_path / "b")
        with pytest.raises(SpecError, match="model"):
            TraceBundle.from_metadata(pairs_a + pairs_b)

    @pytest.mark.parametrize("field, value, words", [
        pytest.param("model", "q", "traces must agree on one model", id="model-q"),
        pytest.param("n_spins", "three", "traces must agree on n_spins", id="n_spins-three"),
        pytest.param("noise", {"sigma": "x"}, SIGMA_WORDS, id="noise-value2"),
        pytest.param("noise", 0.1, "", id="noise-0.1"),
        pytest.param("truth_couplings", [1.0], "couplings must map family names to arrays",
                     id="truth_couplings-value4"),
        # json reads Infinity and NaN; either would lift the physical bound
        # and the fit's residual floor
        pytest.param("noise", {"sigma": math.inf}, SIGMA_WORDS, id="noise-sigma_inf"),
        pytest.param("noise", {"sigma": math.nan}, SIGMA_WORDS, id="noise-sigma_nan"),
        pytest.param("noise", {"sigma": -0.01}, SIGMA_WORDS, id="noise-sigma_negative"),
        # a sidecar's sigma is a JSON number: float() once read true as 1.0
        pytest.param("noise", {"sigma": True}, SIGMA_WORDS, id="noise-sigma_true"),
        pytest.param("noise", {"sigma": "0.01"}, SIGMA_WORDS, id="noise-sigma_string"),
        # bool() used to read the string "false" as true
        pytest.param("allow_signed", "false", "allow_signed must be true or false, got 'false'",
                     id="allow_signed-false"),
        pytest.param("allow_signed", 1, "allow_signed must be true or false, got 1",
                     id="allow_signed-1"),
        pytest.param("allow_signed", None, "allow_signed must be true or false, got None",
                     id="allow_signed-None"),
        # valid on its own, but the y1 sidecar states another truth or chain
        pytest.param("truth_couplings", {"JX": [2.0, 0.8], "JY": [0.9, 1.2]}, TRUTH_WORDS,
                     id="truth_couplings-disagree"),
        pytest.param("allow_signed", True, TRUTH_WORDS, id="allow_signed-disagree"),
        pytest.param("n_spins", 4, "traces must agree on n_spins", id="n_spins-disagree"),
    ])
    def test_malformed_metadata_is_a_spec_error(self, tmp_path, field, value, words):
        # one bad sidecar spoils the bundle: only the x1 sidecar is edited
        (x1, x1_meta), y1_pair = _write_bundle(xy_spec([1.1, 0.8], [0.9, 1.2]), tmp_path)
        pairs = [(x1, {**x1_meta, field: value}), y1_pair]
        with pytest.raises(SpecError, match=re.escape(f"malformed trace metadata: {words}")):
            TraceBundle.from_metadata(pairs)

    def test_sidecars_without_truth_defer_to_those_with_one(self, tmp_path):
        spec = xy_spec([1.1, 0.8], [0.9, 1.2])
        (x1, x1_meta), y1_pair = _write_bundle(spec, tmp_path)
        x1_meta = {k: v for k, v in x1_meta.items()
                   if k not in ("truth_couplings", "allow_signed")}
        bundle = TraceBundle.from_metadata([(x1, x1_meta), y1_pair])
        assert bundle.truth.to_dict() == spec.to_dict()

    @pytest.mark.parametrize("n_spins", [3.7, True, 3.0], ids=["fraction", "bool", "float"])
    def test_sidecar_n_spins_is_not_truncated(self, tmp_path, n_spins):
        pairs = _write_bundle(xx_spec([1.0, 0.8]), tmp_path)
        pairs = [(trace, {**meta, "n_spins": n_spins}) for trace, meta in pairs]
        with pytest.raises(SpecError, match="n_spins must be an integer"):
            TraceBundle.from_metadata(pairs)

    def test_sidecar_integer_sigma_is_stored_as_a_float(self, tmp_path):
        pairs = _write_bundle(xx_spec([1.0, 0.8]), tmp_path)
        pairs = [(trace, {**meta, "noise": {"sigma": 1}}) for trace, meta in pairs]
        sigma = TraceBundle.from_metadata(pairs).noise_sigma
        assert sigma == 1.0 and type(sigma) is float

    def test_empty_bundle_rejected(self):
        with pytest.raises(SpecError, match="no traces"):
            TraceBundle.from_metadata([])

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -0.01],
                             ids=["inf", "nan", "negative"])
    def test_bundle_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        # an infinite sigma lifts the physical bound, so an unphysical trace
        # would be fitted and inverted without a word
        times = sample_times(TomographyConfig())
        trace = SignalTrace(times, 40.0 * np.cos(2.0 * times),
                            Probe.PLUS_X)
        with pytest.raises(SpecError, match="sigma"):
            TraceBundle(model=Model.XX, n_spins=3, traces=(trace,),
                        noise_sigma=sigma)

    def test_minus_preparation_traces_are_handled(self):
        # a trace measured from the -1 eigenstate arrives sign-flipped;
        # the pipeline must undo the sign before fitting
        times = sample_times(TomographyConfig())
        from chaintomo import spectral_signal

        plus = spectral_signal(BENCH_J, times)
        minus = SignalTrace(
            times, -plus.values, Probe.MINUS_X
        )
        bundle = TraceBundle(model=Model.XX, n_spins=8, traces=(minus,))
        result = run_tomography(bundle)
        np.testing.assert_allclose(
            [result.recovered[f"J_{i}"] for i in range(1, 8)], BENCH_J, atol=1e-6
        )

    def test_signed_truth_sets_the_signs(self):
        times = sample_times(TomographyConfig())
        from chaintomo import spectral_signal

        trace = spectral_signal([1.0, 0.8, 0.9], times)
        truth = xx_spec([1.0, -0.8, 0.9], allow_signed=True)
        bundle = TraceBundle(model=Model.XX, n_spins=4, traces=(trace,), truth=truth)
        result = run_tomography(bundle)
        assert result.recovered["J_2"] == pytest.approx(-0.8, abs=1e-6)
        assert all(p.abs_error < 1e-6 for p in result.parameters)
        assert result.warnings == ()

    @pytest.mark.parametrize("truth", [
        pytest.param(xx_spec([1.0, 0.8]), id="n_spins"),
        pytest.param(xy_spec([1.0, 0.8, 0.9], [1.0, 0.8, 0.9]), id="model"),
    ])
    def test_truth_of_another_chain_is_refused(self, truth):
        times = sample_times(TomographyConfig())
        from chaintomo import spectral_signal

        trace = spectral_signal([1.0, 0.8, 0.9], times)
        with pytest.raises(SpecError, match="truth must describe"):
            TraceBundle(model=Model.XX, n_spins=4, traces=(trace,), truth=truth)

    @pytest.mark.parametrize("model, n_spins", [
        pytest.param("q", 3, id="unknown_model"),
        pytest.param(Model.XX, 1, id="one_spin"),
        pytest.param(Model.XX, 3.0, id="float_n_spins"),
        pytest.param(Model.XX, True, id="bool_n_spins"),
    ])
    def test_bundle_chain_is_checked_at_validate(self, model, n_spins):
        times = sample_times(TomographyConfig())
        trace = SignalTrace(times, np.cos(times),
                            Probe.PLUS_X)
        # the bundle validates its chain when built, outside any pipeline stage
        with pytest.raises(SpecError) as exc_info:
            TraceBundle(model=model, n_spins=n_spins, traces=(trace,))
        assert exc_info.value.stage is None

    def test_sidecar_truth_feeds_error_columns(self, tmp_path):
        spec = xx_spec([1.2, 0.9])
        bundle = TraceBundle.from_metadata(_write_bundle(spec, tmp_path))
        assert bundle.truth is not None
        result = run_tomography(bundle)
        assert result.parameters[0].truth == 1.2
        assert result.parameters[0].abs_error < 1e-6

    def test_noise_metadata_raises_the_fit_floor(self, tmp_path):
        config = TomographyConfig(noise=NoiseSpec(sigma=0.01, seed=2))
        bundle = TraceBundle.from_metadata(
            _write_bundle(xx_spec(BENCH_J), tmp_path, config)
        )
        assert bundle.noise_sigma == 0.01
        result = run_tomography(bundle)
        worst = max(p.abs_error for p in result.parameters)
        assert worst < 5e-2
