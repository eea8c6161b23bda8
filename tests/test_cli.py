"""Command-line interface: subcommands, settings files, outputs, exit codes."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaintomo
from chaintomo import (
    CosineSumModel,
    Probe,
    SignalTrace,
    TomographyConfig,
    sample_times,
    simulate_traces,
    write_trace,
)
from chaintomo import tomography
from chaintomo.cli import main

from _bench import BENCH_J, xx_spec, xy_spec


@pytest.fixture
def bench_spec_path(tmp_path):
    path = tmp_path / "spec.json"
    xx_spec(BENCH_J).to_json(path)
    return path


@pytest.fixture
def simulate(tmp_path, bench_spec_path):
    """A function that runs `simulate` with extra flags into tmp_path/sim and
    returns that directory: on the benchmark chain, or on a given spec saved
    as tmp_path/sim.json."""

    def simulate(*flags, spec=None):
        spec_path = bench_spec_path
        if spec is not None:
            spec_path = tmp_path / "sim.json"
            spec.to_json(spec_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(out), *flags]) == 0
        return out

    return simulate


def _read_json(path):
    return json.loads(path.read_text())


def _edit_json(path, **fields):
    """Rewrite a JSON object file with some fields replaced."""
    path.write_text(json.dumps({**_read_json(path), **fields}))


def _settings_file(path, *lines):
    """Write one argument per line; return the argument that reads them."""
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


SIMULATE_CONFIG_KEYS = {"command", "spec", "step", "window", "noise_sigma", "seed", "out",
                        "resolved"}
MANIFEST_KEYS = {"version", "config", "outputs", "started", "finished"}


def _refused(capsys, argv):
    """stderr of main(argv), which must exit 2 without creating its --out."""
    out = Path(argv[argv.index("--out") + 1])
    capsys.readouterr()
    assert main(argv) == 2
    assert not out.exists()
    return capsys.readouterr().err


def _exit_code(argv):
    """main's return value, or the status argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSimulate:
    def test_writes_trace_and_manifest(self, simulate, capsys):
        out = simulate()
        trace_path = out / "trace_x1.csv"
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 1 + 200
        t0, v0 = lines[1].split(",")
        assert float(t0) == 0.0
        assert float(v0) == pytest.approx(1.0, abs=1e-12)
        meta = _read_json(out / "trace_x1.meta.json")
        assert meta["model"] == "xx"
        assert meta["n_spins"] == 8
        assert "truth_couplings" in meta
        manifest = _read_json(out / "manifest.json")
        assert manifest["config"]["command"] == "simulate"
        assert str(trace_path) in manifest["outputs"]
        assert "wrote" in capsys.readouterr().out

    def test_sidecars_state_only_their_own_noise(self, simulate):
        # trace_y1's noise is drawn with seed 8 (seed + chain index), so a
        # sidecar that recorded seed 7 misdescribed it
        out = simulate("--noise-sigma", "0.01", "--seed", "7",
                       spec=xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]))
        for observable in ("x1", "y1"):
            meta = _read_json(out / f"trace_{observable}.meta.json")
            assert meta["noise"] == {"sigma": 0.01}
            assert "seed" not in meta
        manifest = _read_json(out / "manifest.json")
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["resolved"]["noise"] == {"sigma": 0.01, "seed": 7}

    def test_step_flag_is_honored(self, simulate):
        trace = simulate("--step", "0.2", "--window", "10.0") / "trace_x1.csv"
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 1 + 50
        assert float(lines[2].split(",")[0]) == pytest.approx(0.2)

    def test_requires_spec(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--out", str(tmp_path)])
        assert exc_info.value.code == 2
        assert "the following arguments are required: --spec" in capsys.readouterr().err

    def test_manifest_states_each_setting_once(self, simulate):
        manifest = _read_json(simulate("--noise-sigma", "0.01", "--seed", "7") / "manifest.json")
        assert set(manifest) == MANIFEST_KEYS
        assert set(manifest["config"]) == SIMULATE_CONFIG_KEYS


class TestRunFromSpec:
    def test_full_reconstruction(self, tmp_path, bench_spec_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--spec", str(bench_spec_path), "--out", str(out)])
        assert code == 0
        result = _read_json(out / "result.json")
        assert result["model"] == "xx"
        estimates = {p["parameter"]: p["estimate"] for p in result["parameters"]}
        np.testing.assert_allclose(
            [estimates[f"J_{i}"] for i in range(1, 8)], BENCH_J, atol=1e-6
        )
        for p in result["parameters"]:
            assert p["abs_error"] < 1e-6
        fit = result["fits"]["x1"]
        assert len(fit["terms"]) == 4
        # the fitted curve is drawn from result.json; simulate writes the trace
        (trace,) = simulate_traces(xx_spec(BENCH_J)).traces
        fitted = trace.probe.sign * CosineSumModel.from_dict(fit).evaluate(trace.times)
        np.testing.assert_allclose(fitted, trace.values, rtol=0, atol=1e-9)
        manifest = _read_json(out / "manifest.json")
        assert manifest["config"]["command"] == "run"
        assert {path.name for path in out.iterdir()} == {"result.json", "manifest.json"}
        assert manifest["outputs"] == [str(out / "result.json")]
        table = capsys.readouterr().out
        assert "J_7" in table
        assert "residual rms" in table

    def test_xy_model_writes_both_fits(self, tmp_path):
        spec_path = tmp_path / "xy.json"
        xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]).to_json(spec_path)
        out = tmp_path / "out"
        code = main(["run", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        result = _read_json(out / "result.json")
        assert set(result["fits"]) == {"x1", "y1"}
        assert len(result["parameters"]) == 6

    def test_each_probe_is_simulated_once(self, tmp_path, monkeypatch):
        calls = []
        original = tomography.spectral_signal

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tomography, "spectral_signal", counting)
        spec_path = tmp_path / "xy.json"
        xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]).to_json(spec_path)
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert len(calls) == 2  # one trace per probe: x1 and y1

    def test_noisy_runs_are_reproducible(self, tmp_path, bench_spec_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "run", "--spec", str(bench_spec_path), "--out", str(out),
                "--noise-sigma", "0.01", "--seed", "7",
            ])
            assert code == 0
            outs.append((out / "result.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("source", ["spec", "trace"])
    def test_manifest_states_each_setting_once(self, tmp_path, bench_spec_path, simulate,
                                               source):
        if source == "spec":
            argv = ["--spec", str(bench_spec_path)]
        else:
            argv = ["--trace", str(simulate() / "trace_x1.csv")]
        out = tmp_path / "out"
        assert main(["run", *argv, "--out", str(out)]) == 0
        manifest = _read_json(out / "manifest.json")
        assert set(manifest) == MANIFEST_KEYS
        assert set(manifest["config"]) == SIMULATE_CONFIG_KEYS | {"trace"}
        assert manifest["config"]["seed"] is None


class TestRunFromTraces:
    def test_ingest_matches_simulation(self, tmp_path, bench_spec_path, simulate):
        run_out = tmp_path / "run"
        assert main(["run", "--trace", str(simulate() / "trace_x1.csv"),
                     "--out", str(run_out)]) == 0
        direct_out = tmp_path / "direct"
        assert main(["run", "--spec", str(bench_spec_path),
                     "--out", str(direct_out)]) == 0
        ingest = _read_json(run_out / "result.json")["parameters"]
        direct = _read_json(direct_out / "result.json")["parameters"]
        for a, b in zip(ingest, direct):
            assert a["parameter"] == b["parameter"]
            assert a["estimate"] == pytest.approx(b["estimate"], abs=1e-12)

    @pytest.mark.parametrize("spec", [
        pytest.param(xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]), id="xy"),
        # an odd-node chain carries a dc term through the CSV round trip
        pytest.param(xx_spec([1.1, 0.7, 1.3, 0.9]), id="odd_node_xx"),
    ])
    def test_noisy_xy_traces_match_the_spec_run(self, tmp_path, simulate, spec):
        noise = ["--noise-sigma", "0.01", "--seed", "7"]
        traces = [arg for path in sorted(simulate(*noise, spec=spec).glob("trace_*.csv"))
                  for arg in ("--trace", str(path))]
        assert main(["run", *traces, "--out", str(tmp_path / "run")]) == 0
        assert main(["run", "--spec", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path / "direct"), *noise]) == 0
        assert (tmp_path / "run" / "result.json").read_bytes() == (
            tmp_path / "direct" / "result.json"
        ).read_bytes()

    def test_a_minus_prepared_trace_gives_the_plus_parameters(self, tmp_path, simulate):
        # negated values with a minus_x sidecar are read as that probe measured them
        sim_out = simulate()
        path = sim_out / "trace_x1.csv"
        assert main(["run", "--trace", str(path), "--out", str(tmp_path / "plus")]) == 0
        header, *rows = path.read_text().splitlines()
        rows = [f"{t},{-float(v)!r}" for t, v in (row.split(",") for row in rows)]
        path.write_text("\n".join([header, *rows]) + "\n")
        _edit_json(sim_out / "trace_x1.meta.json", probe=Probe.MINUS_X.to_dict())
        assert main(["run", "--trace", str(path), "--out", str(tmp_path / "minus")]) == 0
        plus, minus = (_read_json(tmp_path / name / "result.json")["parameters"]
                       for name in ("plus", "minus"))
        assert plus == minus

    def test_a_trace_that_is_not_utf8_exits_2(self, tmp_path, simulate, capsys):
        path = simulate() / "trace_x1.csv"
        path.write_bytes(b"t,value\n0,\xff1\n")
        err = _refused(capsys, ["run", "--trace", str(path), "--out", str(tmp_path / "run")])
        assert err.startswith(f"error: {path}: trace is not UTF-8 text")

    def test_repeated_calls_do_not_share_trace_lists(self, tmp_path, simulate):
        # the parser is built once per process; --trace appends must not leak
        # from one call into the next
        trace = str(simulate() / "trace_x1.csv")
        for name in ("a", "b"):
            assert main(["run", "--trace", trace, "--out", str(tmp_path / name)]) == 0
            assert _read_json(tmp_path / name / "manifest.json")["config"]["trace"] == [trace]

    def test_unnormalized_trace_prints_its_warning(self, tmp_path, simulate, capsys):
        # a halved trace misses alpha(0) = 1: the run succeeds, prints the
        # note and writes the same note to result.json
        path = simulate(spec=xx_spec([1.1, 0.8, 1.3])) / "trace_x1.csv"
        header, *rows = path.read_text().splitlines()
        rows = [f"{t},{float(v) / 2!r}" for t, v in (row.split(",") for row in rows)]
        path.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["run", "--trace", str(path), "--out", str(tmp_path / "run")]) == 0
        note = "x1: fitted amplitudes sum to 0.500000, expected 1"
        assert f"\nwarning: {note}\n" in capsys.readouterr().out
        assert _read_json(tmp_path / "run" / "result.json")["warnings"] == [note]

    def test_failed_run_leaves_no_result(self, tmp_path, simulate, capsys):
        out = tmp_path / "d"
        short = simulate(spec=xx_spec([1.1, 0.8, 1.3])) / "trace_x1.csv"
        assert main(["run", "--spec", str(tmp_path / "sim.json"), "--out", str(out)]) == 0
        # five samples: too few to fit
        short.write_text("\n".join(short.read_text().splitlines()[:6]) + "\n")
        # the earlier run's outputs are gone, so none passes for this run's
        assert main(["run", "--trace", str(short), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []
        assert _refused(capsys, ["run", "--trace", str(short),
                                 "--out", str(tmp_path / "new")]) == (
            "error: need at least 10 samples to seed 4 poles, got 5\n"
        )

    def test_spec_and_trace_are_mutually_exclusive(
        self, tmp_path, bench_spec_path, capsys
    ):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "run", "--spec", str(bench_spec_path),
                "--trace", str(tmp_path / "x.csv"), "--out", str(tmp_path),
            ])
        assert exc_info.value.code == 2
        assert "argument --trace: not allowed with argument --spec" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--step", "0.5"], ["--window", "100"], ["--seed", "7"]],
                             ids=["step_flag", "window_flag", "seed_flag"])
    def test_sampling_settings_are_refused_with_traces(self, tmp_path, simulate, capsys, flags):
        # the trace files fix the sampling and the noise draws; the manifest
        # must not record other values
        trace = str(simulate() / "trace_x1.csv")
        assert _refused(capsys, ["run", "--trace", trace, "--out", str(tmp_path / "run"),
                                 *flags]) == (
            "error: step, window and seed do not apply to --trace: "
            "the traces carry their own sampling and noise\n"
        )

    def test_ingested_result_records_no_config(self, tmp_path, simulate):
        # the trace's own sampling is not a TomographyConfig, and the defaults
        # would misdescribe it; result.json records no config for any run
        trace = simulate("--step", "0.1", "--window", "30") / "trace_x1.csv"
        run_out = tmp_path / "run"
        assert main(["run", "--trace", str(trace), "--out", str(run_out)]) == 0
        assert _read_json(run_out / "manifest.json")["config"]["resolved"] is None

    def test_noise_sigma_flag_sets_the_bundle_sigma(self, tmp_path, simulate):
        # a noisy trace whose sidecar lost its sigma fails the noiseless fit
        # floor; the flag restores it
        sim_out = simulate("--noise-sigma", "0.01", "--seed", "3")
        _edit_json(sim_out / "trace_x1.meta.json", noise=None)
        trace = str(sim_out / "trace_x1.csv")
        assert main(["run", "--trace", trace, "--out", str(tmp_path / "a")]) == 3
        assert main(["run", "--trace", trace, "--noise-sigma", "0.01",
                     "--out", str(tmp_path / "b")]) == 0

    def test_noise_sigma_flag_widens_the_physical_bound(self, tmp_path, simulate, capsys):
        # this sigma = 0.05 trace peaks past the noiseless bound 1.1; the
        # flag's sigma must reach the bundle before it bounds the traces
        sim_out = simulate("--noise-sigma", "0.05", "--seed", "3")
        _edit_json(sim_out / "trace_x1.meta.json", noise=None)
        trace = str(sim_out / "trace_x1.csv")
        assert _refused(capsys, ["run", "--trace", trace, "--out", str(tmp_path / "a")]) == (
            "error: trace values exceed the physical bound 1 + 0.1\n"
        )
        assert main(["run", "--trace", trace, "--noise-sigma", "0.05",
                     "--out", str(tmp_path / "b")]) == 0

    def test_invalid_noise_sigma_flag_with_traces_exits_2(self, tmp_path, simulate, capsys):
        # the flag's sigma is refused as the sidecars' is
        assert _refused(capsys, ["run", "--trace", str(simulate() / "trace_x1.csv"),
                                 "--noise-sigma", "-0.01", "--out", str(tmp_path / "run")]) == (
            "error: noise sigma must be finite and nonnegative\n"
        )

    def test_run_requires_an_input(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--out", str(tmp_path)])
        assert exc_info.value.code == 2
        assert "one of the arguments --spec --trace is required" in capsys.readouterr().err

    def test_missing_input_keeps_an_earlier_run(self, tmp_path, bench_spec_path):
        # the parser refuses before cmd_run clears the directory
        out = tmp_path / "out"
        assert main(["run", "--spec", str(bench_spec_path), "--out", str(out)]) == 0
        before = (out / "result.json").read_bytes()
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--out", str(out)])
        assert exc_info.value.code == 2
        assert (out / "result.json").read_bytes() == before

    def test_garbage_trace_exits_with_pipeline_code(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        times = sample_times(TomographyConfig())
        trace = SignalTrace(
            times, rng.uniform(-0.9, 0.9, times.size),
            Probe.PLUS_X,
        )
        path = tmp_path / "garbage.csv"
        write_trace(trace, path, {"model": "xx", "n_spins": 8})
        code = main(["run", "--trace", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "[stage=fit]" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_mirrors_flags(self, tmp_path, bench_spec_path):
        settings = _settings_file(tmp_path / "run.args", "--noise-sigma=0.01", "--seed=7")
        out_cfg = tmp_path / "cfg"
        assert main(["run", "--spec", str(bench_spec_path), settings,
                     "--out", str(out_cfg)]) == 0
        out_flags = tmp_path / "flags"
        assert main(["run", "--spec", str(bench_spec_path),
                     "--noise-sigma", "0.01", "--seed", "7",
                     "--out", str(out_flags)]) == 0
        assert (out_cfg / "result.json").read_bytes() == (
            out_flags / "result.json"
        ).read_bytes()

    def test_flags_override_the_config_file(self, tmp_path, bench_spec_path):
        settings = _settings_file(tmp_path / "run.args", "--noise-sigma=0.05", "--seed=7")
        out = tmp_path / "out"
        assert main(["run", "--spec", str(bench_spec_path), settings,
                     "--noise-sigma", "0.01", "--out", str(out)]) == 0
        resolved = _read_json(out / "manifest.json")["config"]["resolved"]
        assert resolved["noise"] == {"sigma": 0.01, "seed": 7}

    def test_later_lines_override_earlier_ones(self, tmp_path, bench_spec_path):
        settings = _settings_file(tmp_path / "run.args",
                                  "--noise-sigma=0.05", "--noise-sigma=0.01")
        out = tmp_path / "out"
        assert main(["run", "--spec", str(bench_spec_path), settings,
                     "--out", str(out)]) == 0
        resolved = _read_json(out / "manifest.json")["config"]["resolved"]
        assert resolved["noise"]["sigma"] == 0.01

    def test_manifest_records_the_file_settings(self, tmp_path, bench_spec_path):
        settings = _settings_file(tmp_path / "run.args", "--noise-sigma=0.01",
                                  "--seed=7", "--window=30")
        out = tmp_path / "out"
        assert main(["run", "--spec", str(bench_spec_path), settings,
                     "--out", str(out)]) == 0
        config = _read_json(out / "manifest.json")["config"]
        assert (config["noise_sigma"], config["seed"]) == (0.01, 7)
        assert (config["window"], config["step"]) == (30.0, None)
        assert config["resolved"]["window"] == 30.0
        assert config["resolved"]["noise"] == {"sigma": 0.01, "seed": 7}

    def test_blank_lines_are_skipped(self, tmp_path, bench_spec_path):
        # argparse reads a blank line as an empty argument by default
        settings = _settings_file(tmp_path / "run.args", "", "--noise-sigma=0.01",
                                  "   ", "--seed=7", "")
        out = tmp_path / "out"
        assert _exit_code(["run", "--spec", str(bench_spec_path), settings,
                           "--out", str(out)]) == 0
        resolved = _read_json(out / "manifest.json")["config"]["resolved"]
        assert resolved["noise"] == {"sigma": 0.01, "seed": 7}

    def test_unknown_config_keys_rejected(self, tmp_path, bench_spec_path, capsys):
        settings = _settings_file(tmp_path / "run.args", "--sigma=0.01")
        code = _exit_code(["run", "--spec", str(bench_spec_path), settings,
                           "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: unrecognized arguments: --sigma=0.01\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, bench_spec_path):
        code = _exit_code(["run", "--spec", str(bench_spec_path),
                           f"@{tmp_path / 'nope.args'}", "--out", str(tmp_path)])
        assert code == 2


class TestErrors:
    @pytest.mark.parametrize("command", ["run", "simulate"])
    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_in_place_of_a_file_exits_2(self, tmp_path, bench_spec_path, capsys,
                                            command, out):
        # the system refuses the path in its own words: run at clearing an
        # earlier result.json, simulate at creating --out
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        code = main([command, "--spec", str(bench_spec_path), "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        if command == "run":
            words, path = "Not a directory", tmp_path / out / "result.json"
        else:
            words = "File exists" if out == "afile" else "Not a directory"
            path = tmp_path / out
        assert err.startswith("error: ")
        assert f"{words}: '{path}'" in err
        assert afile.read_text() == "kept\n"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores mode bits")
    def test_out_under_a_read_only_directory_exits_2(self, tmp_path, bench_spec_path,
                                                     capsys):
        ro = tmp_path / "ro"
        ro.mkdir(mode=0o555)
        out = ro / "sub"
        assert main(["run", "--spec", str(bench_spec_path), "--out", str(out)]) == 2
        assert f"Permission denied: '{out}'" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["read_text", "write_text"])
    def test_a_path_the_system_refuses_exits_2(self, tmp_path, bench_spec_path, capsys,
                                               monkeypatch, method):
        # reading the spec or writing result.json is denied: no traceback
        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        monkeypatch.setattr(Path, method, refuse)
        out = tmp_path / "out"
        code = main(["run", "--spec", str(bench_spec_path), "--out", str(out)])
        assert code == 2
        path = bench_spec_path if method == "read_text" else out / "result.json"
        assert capsys.readouterr().err == f"error: [Errno {errno.EACCES}] Permission denied: '{path}'\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_a_step_that_aliases_the_chain_exits_2(self, tmp_path, capsys, command):
        spec_path = tmp_path / "xx.json"
        xx_spec([1.1, 0.8, 1.3]).to_json(spec_path)
        assert _refused(capsys, [command, "--spec", str(spec_path), "--step", "1.0",
                                 "--out", str(tmp_path / "out")]) == (
            "error: sample_step 1 cannot resolve the chain probed by x1: its top line "
            "at 3.354 rad is at or above the Nyquist frequency 3.142 rad\n"
        )

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_invalid_spec_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "xx", "n_spins": 3, "couplings": {"J": [1.0, -0.8]}}))
        assert _refused(capsys, [command, "--spec", str(path), "--out", str(tmp_path / "out")]) == (
            "error: J must be strictly positive (set allow_signed to permit signs)\n"
        )

    def test_malformed_sidecar_field_exits_2(self, tmp_path, simulate, capsys):
        sidecar = simulate() / "trace_x1.meta.json"
        _edit_json(sidecar, n_spins="three")
        assert _refused(capsys, ["run", "--trace", str(sidecar.with_name("trace_x1.csv")),
                                 "--out", str(tmp_path / "run")]) == (
            "error: malformed trace metadata: n_spins must be an integer, got 'three'\n"
        )

    def test_contradictory_probe_exits_2(self, tmp_path, simulate, capsys):
        sidecar = simulate() / "trace_x1.meta.json"
        _edit_json(sidecar, probe={"observable": "x1", "preparation": "plus_y", "sign": 1})
        assert _refused(capsys, ["run", "--trace", str(sidecar.with_name("trace_x1.csv")),
                                 "--out", str(tmp_path / "run")]) == (
            f"error: {sidecar}: malformed probe: preparation plus_y is not an eigenstate of x1\n"
        )

    @pytest.mark.parametrize("line", [
        "--taylor-order=3",
        "--noise-sigma=abc",
        "--window=big",
        "--format=xml",
        "--n-terms=4.7",
        "--seed=2.5",
        "--n-terms=inf",
        "--n-terms=4",
        # result.json is the one result file, so there is no format to choose
        "--format=csv",
    ], ids=["taylor_order", "noise_sigma", "window", "format", "n_terms_fraction",
            "seed_fraction", "n_terms_inf", "n_terms", "format_csv"])
    def test_malformed_config_value_exits_2(self, tmp_path, bench_spec_path,
                                            capsys, line):
        # argparse refuses what it cannot read, naming the flag; a removed
        # flag (--taylor-order, --format; the chain length fixes the cosine
        # count, so no --n-terms) is an unknown one
        settings = _settings_file(tmp_path / "run.args", line)
        code = _exit_code(["run", "--spec", str(bench_spec_path), settings,
                           "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        flag = line.partition("=")[0]
        if flag in ("--taylor-order", "--format", "--n-terms"):
            assert err.endswith(f"error: unrecognized arguments: {line}\n")
        else:
            assert "error: " in err and flag in err
        assert not (tmp_path / "out").exists()

    def test_invalid_noise_sigma_flag_exits_2(self, tmp_path, bench_spec_path, capsys):
        # argparse reads a NaN as a float; the NoiseSpec built for every
        # sigma, not only a positive one, refuses it
        assert _refused(capsys, ["run", "--spec", str(bench_spec_path), "--noise-sigma", "nan",
                                 "--out", str(tmp_path / "out")]) == (
            "error: noise sigma must be finite and nonnegative\n"
        )

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.strip()


def test_import_and_noisy_run_leave_scipy_unloaded(tmp_path):
    # the runtime is numpy only: scipy.linalg alone used to be most of the
    # package's import time, and a route could import it only when it runs
    spec_path = tmp_path / "xy.json"
    xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]).to_json(spec_path)
    code = (
        "import sys, chaintomo, chaintomo.cli; "
        "assert chaintomo.cli.main(['run', '--spec', sys.argv[1], "
        "'--noise-sigma', '0.01', '--out', sys.argv[2]]) == 0; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = Path(chaintomo.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code, str(spec_path), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, check=True)
    # the run prints its table first
    assert proc.stdout.splitlines()[-1] == "[]"
