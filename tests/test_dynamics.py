"""Signal generation routes: spectral, truncated series, state vector."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from chaintomo import (
    EigenError,
    NoiseSpec,
    Probe,
    Observable,
    Preparation,
    SignalTrace,
    SpecError,
    add_noise,
    read_trace,
    spectral_signal,
    write_trace,
)
from chaintomo.errors import CapExceeded
from chaintomo.reference import (
    BulkState,
    build_hamiltonian,
    statevector_signal,
    taylor_signal,
)

from _bench import BENCH_J, ising_spec, xx_spec, xy_spec


class TestSignalTrace:
    def test_rejects_length_mismatch(self):
        with pytest.raises(SpecError):
            SignalTrace(np.array([0.0, 1.0]), np.array([1.0]), _probe_x())

    def test_rejects_empty(self):
        with pytest.raises(SpecError):
            SignalTrace(np.array([]), np.array([]), _probe_x())

    def test_rejects_nonfinite(self):
        with pytest.raises(SpecError):
            SignalTrace(np.array([0.0, 1.0]), np.array([1.0, np.nan]), _probe_x())

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(SpecError):
            SignalTrace(np.array([0.0, 1.0, 1.0]), np.zeros(3), _probe_x())

    def test_check_physical(self):
        trace = SignalTrace(np.array([0.0, 1.0]), np.array([1.0, 1.05]), _probe_x())
        assert trace.check_physical(allowance=0.1) is trace
        with pytest.raises(SpecError, match="bound"):
            trace.check_physical(allowance=0.01)


def _probe_x() -> Probe:
    return Probe(Observable.X1, Preparation.PLUS_X, +1)


class TestSpectralSignal:
    def test_normalized_at_time_zero(self):
        trace = spectral_signal(BENCH_J, [0.0])
        assert trace.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_link_is_plain_cosine(self):
        # one link c: the probed signal is exactly cos(2 c t)
        t = np.linspace(0.0, 5.0, 200)
        trace = spectral_signal(np.array([0.8]), t)
        np.testing.assert_allclose(trace.values, np.cos(1.6 * t), atol=1e-12)

    def test_minus_preparation_flips_the_trace(self):
        t = np.linspace(0.0, 4.0, 50)
        plus = spectral_signal(BENCH_J, t)
        minus = spectral_signal(
            BENCH_J, t, probe=Probe(Observable.X1, Preparation.MINUS_X, -1)
        )
        np.testing.assert_allclose(minus.values, -plus.values, atol=1e-14)

    def test_even_node_chain_has_no_zero_frequency(self):
        lam, _ = eigh_tridiagonal(np.zeros(4), np.array([1.0, 0.8, 1.2]))
        assert np.min(np.abs(lam)) > 1e-6
        np.testing.assert_allclose(np.sort(lam), -np.sort(lam)[::-1], atol=1e-12)

    def test_odd_node_chain_has_exact_zero_frequency(self):
        # bipartite symmetry forces a zero eigenvalue on odd node counts,
        # which the fit must model as a constant term
        lam, _ = eigh_tridiagonal(np.zeros(3), np.array([1.0, 0.8]))
        assert np.min(np.abs(lam)) < 1e-12

    @pytest.mark.parametrize("m", range(1, 32))
    def test_matches_the_banded_tridiagonal_solver(self, m):
        # an independent reference: the signal rebuilt from LAPACK's
        # tridiagonal eigensolver, not the dense one production uses
        links = np.random.default_rng(m).uniform(0.5, 1.5, m)
        t = np.linspace(0.0, 40.0, 1000)
        lam, vec = eigh_tridiagonal(np.zeros(m + 1), links)
        expected = (vec[0, :] ** 2 * np.cos(2.0 * np.outer(t, lam))).sum(axis=1)
        trace = spectral_signal(links, t)
        np.testing.assert_allclose(trace.values, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_links_are_an_eigen_error(self, bad):
        with pytest.raises(EigenError):
            spectral_signal(np.array([1.0, bad, 0.8]), [0.0, 1.0])

    def test_no_links_is_the_constant_signal(self):
        t = np.linspace(0.0, 5.0, 11)
        trace = spectral_signal(np.array([]), t)
        np.testing.assert_array_equal(trace.values, np.ones(11))


class TestTaylorSignal:
    def test_order_zero_is_constant_one(self):
        t = np.linspace(0.0, 2.0, 20)
        trace = taylor_signal(BENCH_J, t, order=0)
        np.testing.assert_array_equal(trace.values, np.ones(20))

    def test_order_two_is_leading_parabola(self):
        # alpha(t) = 1 - 2 J1^2 t^2 + O(t^4)
        t = np.linspace(0.0, 0.1, 10)
        trace = taylor_signal(BENCH_J, t, order=2)
        np.testing.assert_allclose(trace.values, 1.0 - 3.92 * t**2, atol=1e-14)

    def test_high_order_matches_spectral_at_short_times(self):
        t = np.linspace(0.0, 0.15, 16)
        series = taylor_signal(BENCH_J, t, order=20)
        exact = spectral_signal(BENCH_J, t)
        np.testing.assert_allclose(series.values, exact.values, atol=1e-8)

    @pytest.mark.parametrize("order", [4, 8, 14])
    def test_remainder_bound(self, order):
        # |alpha - T_L| <= (2 t c_max (m+1))^(L+1) / (L+1)!  pointwise;
        # the small absolute allowance covers the double-precision floor
        # where the bound itself drops below machine epsilon
        t = np.linspace(0.0, 0.3, 31)
        series = taylor_signal(BENCH_J, t, order=order)
        exact = spectral_signal(BENCH_J, t)
        lhs = np.abs(series.values - exact.values)
        scale = 2.0 * t * BENCH_J.max() * (BENCH_J.size + 1)
        rhs = scale ** (order + 1) / math.factorial(order + 1)
        assert np.all(lhs <= rhs + 1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            taylor_signal(BENCH_J, [0.0], order=-1)


class TestStateVector:
    def test_agrees_with_spectral_for_xx(self):
        spec = xx_spec([1.1, 0.7, 0.9])
        t = np.linspace(0.0, 6.0, 40)
        dense = statevector_signal(
            spec, _probe_x(), BulkState("product", seed=3), t
        )
        exact = spectral_signal([1.1, 0.7, 0.9], t)
        np.testing.assert_allclose(dense.values, exact.values, atol=1e-11)

    def test_bulk_state_never_matters(self):
        spec = xx_spec([1.0, 0.8, 1.2, 0.9])
        t = np.linspace(0.0, 5.0, 30)
        kinds = [
            BulkState("product", seed=1),
            BulkState("product", seed=2),
            BulkState("pure", seed=3),
            BulkState("mixed", seed=4, n_samples=3),
        ]
        traces = [statevector_signal(spec, _probe_x(), b, t).values for b in kinds]
        for other in traces[1:]:
            np.testing.assert_allclose(other, traces[0], atol=1e-11)

    def test_opposite_preparation_negates_exactly(self):
        spec = ising_spec(JZ=[1.48, 0.80, 0.97], B=[1.40, 1.06, 1.36, 0.66])
        t = np.linspace(0.0, 4.0, 25)
        bulk = BulkState("pure", seed=5)
        zero = statevector_signal(
            spec, Probe(Observable.Z1, Preparation.ZERO, +1), bulk, t
        )
        one = statevector_signal(
            spec, Probe(Observable.Z1, Preparation.ONE, -1), bulk, t
        )
        np.testing.assert_allclose(one.values, -zero.values, atol=1e-12)

    def test_site_cap(self):
        spec = xx_spec(np.ones(12))  # 13 spins
        with pytest.raises(CapExceeded):
            statevector_signal(spec, _probe_x(), BulkState(), [0.0, 0.1])

    def test_hamiltonian_is_hermitian(self):
        for spec in (
            xx_spec([1.1, 0.7]),
            xy_spec([1.1, 0.7], [0.9, 1.2]),
            ising_spec(JZ=[1.0, 0.8], B=[0.9, 1.1, 0.7]),
        ):
            H = build_hamiltonian(spec)
            assert H.shape == (2**spec.n_spins, 2**spec.n_spins)
            np.testing.assert_allclose(H, H.conj().T, atol=1e-14)


class TestNoise:
    def test_seeded_noise_is_reproducible(self):
        trace = spectral_signal(BENCH_J, np.linspace(0.0, 5.0, 100))
        a = add_noise(trace, NoiseSpec(sigma=0.01, seed=9))
        b = add_noise(trace, NoiseSpec(sigma=0.01, seed=9))
        c = add_noise(trace, NoiseSpec(sigma=0.01, seed=10))
        np.testing.assert_array_equal(a.values, b.values)
        assert np.max(np.abs(a.values - c.values)) > 1e-4

    def test_negative_sigma_rejected(self):
        with pytest.raises(SpecError):
            NoiseSpec(sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(SpecError, match="finite"):
            NoiseSpec(sigma=sigma)

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, "7", None],
                             ids=["negative", "fraction", "float", "bool", "str", "none"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # numpy refuses a negative seed untyped, a float with TypeError,
        # and would read True as 1
        with pytest.raises(SpecError, match="seed"):
            NoiseSpec(sigma=0.01, seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert NoiseSpec(sigma=0.01, seed=np.int64(5)).seed == 5


class TestTraceFiles:
    def test_round_trip_is_exact(self, tmp_path):
        trace = spectral_signal(BENCH_J, np.linspace(0.0, 5.0, 64))
        path = tmp_path / "trace.csv"
        write_trace(trace, path, {"model": "xx", "n_spins": 8})
        again, meta = read_trace(path)
        np.testing.assert_array_equal(again.times, trace.times)
        np.testing.assert_array_equal(again.values, trace.values)
        assert again.probe.observable is Observable.X1
        assert meta["model"] == "xx"
        assert meta["n_spins"] == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            read_trace(tmp_path / "nope.csv")

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,value\n0.0,1.0\n1.0,0.5\n")
        with pytest.raises(SpecError, match="sidecar"):
            read_trace(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,signal\n0.0,1.0\n")
        with pytest.raises(SpecError, match="header"):
            read_trace(path)

    def test_malformed_row(self, tmp_path):
        trace = spectral_signal(BENCH_J, [0.0, 1.0])
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        path.write_text(path.read_text() + "oops\n")
        with pytest.raises(SpecError, match="malformed"):
            read_trace(path)

    def test_sidecar_must_identify_probe(self, tmp_path):
        trace = spectral_signal(BENCH_J, [0.0, 1.0])
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        (tmp_path / "trace.meta.json").write_text("{}")
        with pytest.raises(SpecError, match="probe"):
            read_trace(path)

    @pytest.mark.parametrize("sidecar", ["{not json", "3"])
    def test_unreadable_sidecar_is_a_spec_error(self, tmp_path, sidecar):
        trace = spectral_signal(BENCH_J, [0.0, 1.0])
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        (tmp_path / "trace.meta.json").write_text(sidecar)
        with pytest.raises(SpecError, match="trace.meta.json"):
            read_trace(path)

    @pytest.mark.parametrize("probe", [
        {"observable": "q", "preparation": "plus_x", "sign": 1},
        {"observable": "x1", "preparation": "plus_x"},
        {"observable": "x1", "preparation": "plus_x", "sign": [1]},
        "x1",
    ])
    def test_malformed_probe_is_a_spec_error(self, tmp_path, probe):
        trace = spectral_signal(BENCH_J, [0.0, 1.0])
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        (tmp_path / "trace.meta.json").write_text(json.dumps({"probe": probe}))
        with pytest.raises(SpecError, match="probe"):
            read_trace(path)
