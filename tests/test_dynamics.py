"""Signal generation routes: spectral, truncated series, state vector."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from chaintomo import (
    CosineSumModel,
    EigenError,
    FluxChain,
    NoiseSpec,
    Probe,
    Observable,
    SignalTrace,
    SpecError,
    add_noise,
    read_trace,
    spectral_signal,
    write_trace,
)
from chaintomo.reference import (
    BulkState,
    build_hamiltonian,
    statevector_signal,
    taylor_signal,
)

from _bench import BENCH_J, ising_spec, xx_spec, xy_spec

# trace CSV bodies, each written after the `t,value` header, in the dialect
# read_trace reads; every one gives times [0, 0.5] and values [1, -0.25]
DIALECT_CSVS = {
    "blank_lines": "\n0,1\n\n0.5,-0.25\n\n",
    "crlf_line_ends": "0,1\r\n0.5,-0.25\r\n",
    "cr_line_ends": "0,1\r0.5,-0.25\r",
    "extra_columns": "0,1,x\n0.5,-0.25,2\n",
    "quoted_numbers": '"0","1"\n0.5,"-0.25"\n',
    "spaces_around_numbers": " 0 , 1\n0.5 ,\t-0.25 \n",
    "no_final_newline": "0,1\n0.5,-0.25",
}

# trace CSV bodies, each after the header, with a row that read_trace
# refuses and the 1-based line of the file its refusal names
REFUSED_CSV_ROWS = {
    "one_column": ("0,1\n0.5\n", 3),
    "empty_field": ("0,1\n0.5,\n", 3),
    "comment_line": ("# measured\n0,1\n", 2),
    "spaces_only_line": ("0,1\n   \n0.5,-0.25\n", 3),
    # Python's float reads 1_0 as 10; numpy's reader takes no digit separators
    "digit_separator": ("0,1\n1_0,0.5\n", 3),
    "after_blank_lines": ("\n\n0,1\n\noops\n", 6),
}

# trace CSVs cut short, each as a cut of the full text and the words of
# read_trace's refusal
TRUNCATED_CSVS = {
    "last_row_after_comma": (lambda text: text[: text.rindex(",") + 1], "malformed row"),
    # keeps the first three characters of the last row's time
    "last_row_inside_time": (lambda text: text[: text.rindex("\n", 0, -1) + 4], "malformed row"),
    "short_header": (lambda text: "t,val", "expected CSV header 't,value'"),
    "header_only": (lambda text: "t,value\n", "trace is empty"),
}


@pytest.fixture
def trace_path(tmp_path):
    """A two-sample trace CSV with its sidecar, for a test to edit."""
    return write_trace(spectral_signal(BENCH_J, [0.0, 1.0]), tmp_path / "trace.csv")


def _probe_refusal(trace_path, probe):
    """The words read_trace refuses a sidecar probe block in, after the sidecar's path."""
    sidecar = trace_path.with_suffix(".meta.json")
    sidecar.write_text(json.dumps({"probe": probe}))
    with pytest.raises(SpecError) as exc_info:
        read_trace(trace_path)
    prefix = f"{sidecar}: "
    assert str(exc_info.value).startswith(prefix)
    return str(exc_info.value).removeprefix(prefix)


class TestSignalTrace:
    def test_rejects_length_mismatch(self):
        with pytest.raises(SpecError):
            SignalTrace(np.array([0.0, 1.0]), np.array([1.0]), Probe.PLUS_X)

    def test_rejects_empty(self):
        with pytest.raises(SpecError):
            SignalTrace(np.array([]), np.array([]), Probe.PLUS_X)

    def test_rejects_nonfinite(self):
        with pytest.raises(SpecError, match="values must be a 1-D array of finite numbers"):
            SignalTrace(np.array([0.0, 1.0]), np.array([1.0, np.nan]), Probe.PLUS_X)
        # a NaN time would make a NaN sample step, which no grid check can use
        t_nan = np.array([0.0, 0.1, 0.2, np.nan, 0.4, 0.5, 0.6, 0.7])
        with pytest.raises(SpecError, match="times must be a 1-D array of finite numbers"):
            SignalTrace(t_nan, np.cos(t_nan), Probe.PLUS_X)

    def test_rejects_nonincreasing_times(self):
        # a repeated, constant or reversed grid has no band edge pi/dt
        t = np.arange(8.0)
        for times in (np.array([0.0, 1.0, 1.0]), np.zeros(8), t[::-1]):
            with pytest.raises(SpecError, match="strictly increasing"):
                SignalTrace(times, np.zeros(times.size), Probe.PLUS_X)

    @pytest.mark.parametrize("probe", ["plus_x", "up", None, 3],
                             ids=["member_value", "unknown_str", "none", "int"])
    def test_rejects_a_probe_that_is_not_a_member(self, probe):
        # the pipeline would end in an untyped AttributeError on .observable
        message = f"^SignalTrace takes a Probe, got {type(probe).__name__}$"
        with pytest.raises(SpecError, match=message):
            SignalTrace(np.array([0.0, 1.0]), np.array([1.0, 0.5]), probe)

    def test_stores_read_only_copies(self):
        # a write after construction would undo its checks: a NaN written
        # into the caller's times once reached LAPACK through fit_trace
        t = 0.1 * np.arange(100)
        v = np.cos(t)
        traces = (SignalTrace(t, v, Probe.PLUS_X), spectral_signal(BENCH_J, t))
        t[50] = v[50] = np.nan
        for trace in traces:
            assert np.all(np.isfinite(trace.times)) and np.all(np.isfinite(trace.values))
            assert trace.times[50] == 5.0
            for array in (trace.times, trace.values):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = np.nan

    @pytest.mark.parametrize("build, stored", [
        pytest.param(lambda a: CosineSumModel(a, a), lambda f: (f.amplitudes, f.frequencies),
                     id="cosine_sum_model"),
        pytest.param(lambda a: FluxChain(a, (("J", 1), ("J", 2), ("J", 3))), lambda c: (c.links,),
                     id="flux_chain"),
    ])
    def test_every_checked_array_is_a_read_only_copy(self, build, stored):
        # a NaN amplitude written after construction once made spectral_couplings
        # raise a false DegenerateError, and a zero link outlived FluxChain's check
        a = np.array([0.5, 1.0, 1.5])
        arrays = stored(build(a))
        a[:] = [np.nan, 0.0, -1.0]
        for array in arrays:
            np.testing.assert_array_equal(array, [0.5, 1.0, 1.5])
            with pytest.raises(ValueError, match="read-only"):
                array[0] = np.nan


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
            BENCH_J, t, probe=Probe.MINUS_X
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

    @pytest.mark.parametrize("links", [
        [1.0, np.nan, 0.8], [1.0, np.inf, 0.8], [1.0, -np.inf, 0.8], [[1.0, 2.0]],
    ], ids=["nan", "inf", "-inf", "2-D"])
    def test_nonfinite_links_are_a_spec_error(self, links):
        # refused before any solve: EigenError means only that a solver failed
        with pytest.raises(SpecError, match="links must be a 1-D array of finite numbers"):
            spectral_signal(links, [0.0, 1.0])

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
        with pytest.raises(SpecError, match="order must be at least 0"):
            taylor_signal(BENCH_J, [0.0], order=-1)


class TestStateVector:
    def test_agrees_with_spectral_for_xx(self):
        spec = xx_spec([1.1, 0.7, 0.9])
        t = np.linspace(0.0, 6.0, 40)
        dense = statevector_signal(
            spec, Probe.PLUS_X, BulkState("product", seed=3), t
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
        traces = [statevector_signal(spec, Probe.PLUS_X, b, t).values for b in kinds]
        for other in traces[1:]:
            np.testing.assert_allclose(other, traces[0], atol=1e-11)

    def test_opposite_preparation_negates_exactly(self):
        spec = ising_spec(JZ=[1.48, 0.80, 0.97], B=[1.40, 1.06, 1.36, 0.66])
        t = np.linspace(0.0, 4.0, 25)
        bulk = BulkState("pure", seed=5)
        zero = statevector_signal(
            spec, Probe.ZERO, bulk, t
        )
        one = statevector_signal(
            spec, Probe.ONE, bulk, t
        )
        np.testing.assert_allclose(one.values, -zero.values, atol=1e-12)

    def test_site_cap(self):
        spec = xx_spec(np.ones(12))  # 13 spins
        with pytest.raises(SpecError, match="n_spins=13 exceeds the state-vector cap 12"):
            statevector_signal(spec, Probe.PLUS_X, BulkState(), [0.0, 0.1])

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
        with pytest.raises(SpecError, match="^noise sigma must be finite and nonnegative$"):
            NoiseSpec(sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(SpecError, match="^noise sigma must be finite and nonnegative$"):
            NoiseSpec(sigma=sigma)

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, "7", None],
                             ids=["negative", "fraction", "float", "bool", "str", "none"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # numpy refuses a negative seed untyped, a float with TypeError,
        # and would read True as 1
        words = ("noise seed must be at least 0, got -1" if seed == -1
                 else f"noise seed must be an integer, got {seed!r}")
        with pytest.raises(SpecError, match=f"^{re.escape(words)}$"):
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

    def test_round_trip_is_bit_exact_at_scale(self, tmp_path):
        rng = np.random.default_rng(20)
        n = 20_000
        times = np.cumsum(rng.uniform(1e-3, 1.0, n))
        values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n)
        values[:5] = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
        # about a quarter of random doubles need all 17 significant digits
        assert sum(float(f"{v:.16g}") != v for v in values.tolist()) > n // 5
        trace = SignalTrace(times, values, Probe.PLUS_X)
        again, _ = read_trace(write_trace(trace, tmp_path / "trace.csv"))
        for read, written in ((again.times, trace.times), (again.values, trace.values)):
            assert np.array_equal(read, written)
            assert np.array_equal(np.signbit(read), np.signbit(written))

    def test_written_bytes(self, tmp_path):
        trace = SignalTrace([0.0, 0.1, 2.5], [1.0, -0.0, 1 / 3], Probe.PLUS_X)
        path = write_trace(trace, tmp_path / "trace.csv", {"model": "xx"})
        assert path.read_bytes() == b"t,value\n0.0,1.0\n0.1,-0.0\n2.5,0.3333333333333333\n"
        assert (tmp_path / "trace.meta.json").read_bytes() == (
            b'{\n  "probe": {\n    "observable": "x1",\n    "preparation": "plus_x",\n'
            b'    "sign": 1\n  },\n  "model": "xx"\n}\n'
        )

    def test_metadata_cannot_replace_the_probe(self, tmp_path):
        # a plus_x trace whose sidecar said minus_x would be read back negated
        trace = spectral_signal(BENCH_J, [0.0, 1.0])
        with pytest.raises(SpecError, match="metadata must not name a probe"):
            write_trace(trace, tmp_path / "trace.csv", {"probe": Probe.MINUS_X.to_dict()})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body", DIALECT_CSVS.values(), ids=list(DIALECT_CSVS))
    def test_csv_dialect(self, trace_path, body):
        trace_path.write_bytes(f"t,value\n{body}".encode())
        trace, _ = read_trace(trace_path)
        assert trace.times.tolist() == [0.0, 0.5]
        assert trace.values.tolist() == [1.0, -0.25]

    @pytest.mark.parametrize("body, line", REFUSED_CSV_ROWS.values(), ids=list(REFUSED_CSV_ROWS))
    def test_refused_row_names_the_file_and_line(self, trace_path, body, line):
        trace_path.write_bytes(f"t,value\n{body}".encode())
        with pytest.raises(SpecError,
                           match=re.escape(f"{trace_path}: malformed row at line {line}:")):
            read_trace(trace_path)

    def test_quoted_field_across_lines_is_refused(self, trace_path):
        # each line reads alone, so no one line is named
        trace_path.write_text('t,value\n0,"1\n2,3\n')
        with pytest.raises(SpecError, match=re.escape(f"{trace_path}: malformed rows:")):
            read_trace(trace_path)

    def test_header_only_is_empty_without_a_warning(self, trace_path):
        trace_path.write_text("t,value\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SpecError, match=re.escape(f"{trace_path}: trace is empty")):
                read_trace(trace_path)
        assert caught == []

    def test_nan_is_refused_by_the_trace(self, trace_path):
        trace_path.write_text("t,value\n0,nan\n0.5,-0.25\n")
        words = f"{trace_path}: values must be a 1-D array of finite numbers"
        with pytest.raises(SpecError, match=f"^{re.escape(words)}$"):
            read_trace(trace_path)

    @pytest.mark.parametrize("body", ["0,1\n0,0.5\n", "0.5,1\n0,0.5\n"],
                             ids=["repeated", "decreasing"])
    def test_a_time_out_of_order_is_refused_naming_the_file(self, trace_path, body):
        # an xy run reads two traces; the words say which file is bad
        trace_path.write_text(f"t,value\n{body}")
        words = f"{trace_path}: times must be strictly increasing"
        with pytest.raises(SpecError, match=f"^{re.escape(words)}$"):
            read_trace(trace_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            read_trace(tmp_path / "nope.csv")

    def test_trace_that_is_not_utf8_is_a_spec_error_naming_the_file(self, trace_path):
        trace_path.write_bytes(b"t,value\n0,\xff1\n")
        with pytest.raises(SpecError, match=re.escape(f"{trace_path}: trace is not UTF-8 text")):
            read_trace(trace_path)

    def test_byte_order_mark_is_read(self, trace_path):
        # spreadsheets save "CSV UTF-8" with a byte-order mark before the header
        written = spectral_signal(BENCH_J, [0.0, 1.0])
        trace_path.write_bytes(b"\xef\xbb\xbf" + trace_path.read_bytes())
        trace, _ = read_trace(trace_path)
        assert trace.times.tolist() == written.times.tolist()
        assert trace.values.tolist() == written.values.tolist()

    def test_sidecar_that_is_not_utf8_is_a_spec_error_naming_the_file(self, trace_path):
        sidecar = trace_path.with_suffix(".meta.json")
        sidecar.write_bytes(b"\xff")
        with pytest.raises(SpecError, match=re.escape(f"metadata sidecar {sidecar} is not")):
            read_trace(trace_path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,value\n0.0,1.0\n1.0,0.5\n")
        with pytest.raises(SpecError, match="sidecar"):
            read_trace(path)

    def test_sidecar_must_identify_probe(self, trace_path):
        sidecar = trace_path.with_suffix(".meta.json")
        sidecar.write_text("{}")
        # the words that name no probe block: a fallback "malformed probe" has "probe" too
        with pytest.raises(SpecError, match=re.escape(f"{sidecar}: metadata must identify the probe")):
            read_trace(trace_path)

    @pytest.mark.parametrize("sidecar, words", [
        pytest.param("{not json", "metadata sidecar {} is not valid JSON", id="{not json"),
        pytest.param("3", "{}: metadata must identify the probe", id="3"),
    ])
    def test_unreadable_sidecar_is_a_spec_error(self, trace_path, sidecar, words):
        path = trace_path.with_suffix(".meta.json")
        path.write_text(sidecar)
        with pytest.raises(SpecError, match=re.escape(words.format(path))):
            read_trace(trace_path)

    @pytest.mark.parametrize("probe", [
        {"observable": "q", "preparation": "plus_x", "sign": 1},
        {"observable": "x1", "preparation": "plus_x"},
        {"observable": "x1", "preparation": "plus_x", "sign": [1]},
        "x1",
    ])
    def test_malformed_probe_is_a_spec_error(self, trace_path, probe):
        # Probe.from_dict's KeyError and TypeError are wrapped like its SpecError
        assert _probe_refusal(trace_path, probe).startswith("malformed probe: ")

    def test_contradictory_probe_is_a_spec_error(self, trace_path):
        # Probe.from_dict's own refusal, after the sidecar's path
        probe = {"observable": "x1", "preparation": "plus_x", "sign": -1}
        assert _probe_refusal(trace_path, probe) == (
            "malformed probe: probe sign -1 inconsistent with preparation plus_x")

    @pytest.mark.parametrize("cut, message", TRUNCATED_CSVS.values(), ids=list(TRUNCATED_CSVS))
    def test_truncated_csv_is_a_spec_error_naming_the_file(self, tmp_path, cut, message):
        path = tmp_path / "trace.csv"
        write_trace(spectral_signal(BENCH_J, np.linspace(0.0, 5.0, 64)), path)
        path.write_text(cut(path.read_text()))
        with pytest.raises(SpecError, match=re.escape(f"{path}: {message}")):
            read_trace(path)
