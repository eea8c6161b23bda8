"""Command-line interface: subcommands, settings files, outputs, exit codes."""

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
    Model,
    Probe,
    SignalTrace,
    TomographyConfig,
    sample_times,
    simulate_traces,
    write_trace,
)
from chaintomo import tomography
from chaintomo.cli import main

from _bench import (
    BENCH_J, CONTRADICTORY_PROBES, NON_INTEGER_SIGNS, TRUNCATED_CSVS, xx_spec, xy_spec,
)


@pytest.fixture
def bench_spec_path(tmp_path):
    path = tmp_path / "spec.json"
    xx_spec(BENCH_J).to_json(path)
    return path


def _read_json(path):
    return json.loads(path.read_text())


def _settings_file(path, *lines):
    """Write one argument per line; return the argument that reads them."""
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


def _nudge_third_time(rows):
    """Trace CSV rows with the third sample's time moved 0.01 off the grid."""
    t, v = rows[3].split(",")
    return [*rows[:3], f"{float(t) + 0.01!r},{v}", *rows[4:]]


SIMULATE_CONFIG_KEYS = {"command", "spec", "step", "window", "noise_sigma", "seed", "out",
                        "resolved"}
MANIFEST_KEYS = {"version", "config", "outputs", "started", "finished"}


def _exit_code(argv):
    """main's return value, or the status argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSimulate:
    def test_writes_trace_and_manifest(self, tmp_path, bench_spec_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--spec", str(bench_spec_path), "--out", str(out)])
        assert code == 0
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

    def test_sidecars_state_only_their_own_noise(self, tmp_path):
        # trace_y1's noise is drawn with seed 8 (seed + chain index), so a
        # sidecar that recorded seed 7 misdescribed it
        spec_path = tmp_path / "xy.json"
        xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]).to_json(spec_path)
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(out),
                     "--noise-sigma", "0.01", "--seed", "7"]) == 0
        for observable in ("x1", "y1"):
            meta = _read_json(out / f"trace_{observable}.meta.json")
            assert meta["noise"] == {"sigma": 0.01}
            assert "seed" not in meta
        manifest = _read_json(out / "manifest.json")
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["resolved"]["noise"] == {"sigma": 0.01, "seed": 7}

    def test_step_flag_is_honored(self, tmp_path, bench_spec_path):
        out = tmp_path / "out"
        code = main([
            "simulate", "--spec", str(bench_spec_path), "--out", str(out),
            "--step", "0.2", "--window", "10.0",
        ])
        assert code == 0
        lines = (out / "trace_x1.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 50
        assert float(lines[2].split(",")[0]) == pytest.approx(0.2)

    def test_requires_spec(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--out", str(tmp_path)])
        assert exc_info.value.code == 2
        assert "the following arguments are required: --spec" in capsys.readouterr().err

    def test_manifest_states_each_setting_once(self, tmp_path, bench_spec_path):
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(bench_spec_path), "--out", str(out),
                     "--noise-sigma", "0.01", "--seed", "7"]) == 0
        manifest = _read_json(out / "manifest.json")
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
    def test_manifest_states_each_setting_once(self, tmp_path, bench_spec_path, source):
        if source == "spec":
            argv = ["--spec", str(bench_spec_path)]
        else:
            assert main(["simulate", "--spec", str(bench_spec_path),
                         "--out", str(tmp_path / "sim")]) == 0
            argv = ["--trace", str(tmp_path / "sim" / "trace_x1.csv")]
        out = tmp_path / "out"
        assert main(["run", *argv, "--out", str(out)]) == 0
        manifest = _read_json(out / "manifest.json")
        assert set(manifest) == MANIFEST_KEYS
        assert set(manifest["config"]) == SIMULATE_CONFIG_KEYS | {"trace"}
        assert manifest["config"]["seed"] is None


class TestRunFromTraces:
    def test_ingest_matches_simulation(self, tmp_path, bench_spec_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path),
                     "--out", str(sim_out)]) == 0
        run_out = tmp_path / "run"
        code = main([
            "run", "--trace", str(sim_out / "trace_x1.csv"),
            "--out", str(run_out),
        ])
        assert code == 0
        direct_out = tmp_path / "direct"
        assert main(["run", "--spec", str(bench_spec_path),
                     "--out", str(direct_out)]) == 0
        ingest = _read_json(run_out / "result.json")["parameters"]
        direct = _read_json(direct_out / "result.json")["parameters"]
        for a, b in zip(ingest, direct):
            assert a["parameter"] == b["parameter"]
            assert a["estimate"] == pytest.approx(b["estimate"], abs=1e-12)

    def test_noisy_xy_traces_match_the_spec_run(self, tmp_path):
        spec_path = tmp_path / "xy.json"
        xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]).to_json(spec_path)
        noise = ["--noise-sigma", "0.01", "--seed", "7"]
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(sim_out),
                     *noise]) == 0
        assert main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--trace", str(sim_out / "trace_y1.csv"),
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "direct"),
                     *noise]) == 0
        ingest = _read_json(tmp_path / "run" / "result.json")
        direct = _read_json(tmp_path / "direct" / "result.json")
        assert ingest["parameters"] == direct["parameters"]
        assert ingest["fits"] == direct["fits"]

    def test_repeated_calls_do_not_share_trace_lists(self, tmp_path, bench_spec_path):
        # the parser is built once per process; --trace appends must not leak
        # from one call into the next
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path),
                     "--out", str(sim_out)]) == 0
        trace = str(sim_out / "trace_x1.csv")
        for name in ("a", "b"):
            assert main(["run", "--trace", trace, "--out", str(tmp_path / name)]) == 0
            assert _read_json(tmp_path / name / "manifest.json")["config"]["trace"] == [trace]

    def test_trace_no_probe_reads_exits_2(self, tmp_path, capsys):
        # a y1 trace whose sidecar names an xx chain, which only x1 probes
        xx_path, xy_path = tmp_path / "xx.json", tmp_path / "xy.json"
        xx_spec([1.1, 0.8, 1.3]).to_json(xx_path)
        xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]).to_json(xy_path)
        for spec_path, out in ((xx_path, "xx"), (xy_path, "xy")):
            assert main(["simulate", "--spec", str(spec_path),
                         "--out", str(tmp_path / out)]) == 0
        y1_sidecar = tmp_path / "xy" / "trace_y1.meta.json"
        y1_sidecar.write_text(json.dumps({
            **_read_json(tmp_path / "xx" / "trace_x1.meta.json"),
            "probe": _read_json(y1_sidecar)["probe"],
        }))
        run_out = tmp_path / "run"
        code = main(["run", "--trace", str(tmp_path / "xx" / "trace_x1.csv"),
                     "--trace", str(tmp_path / "xy" / "trace_y1.csv"),
                     "--out", str(run_out)])
        assert code == 2
        assert "no probe for the trace probing y1" in capsys.readouterr().err
        assert not (run_out / "result.json").exists()

    def test_unnormalized_trace_prints_its_warning(self, tmp_path, capsys):
        # a halved trace misses alpha(0) = 1: the run succeeds, prints the
        # note and writes the same note to result.json
        spec_path = tmp_path / "xx.json"
        xx_spec([1.1, 0.8, 1.3]).to_json(spec_path)
        assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "sim")]) == 0
        path = tmp_path / "sim" / "trace_x1.csv"
        header, *rows = path.read_text().splitlines()
        rows = [f"{t},{float(v) / 2!r}" for t, v in (row.split(",") for row in rows)]
        path.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["run", "--trace", str(path), "--out", str(tmp_path / "run")]) == 0
        note = "x1: fitted amplitudes sum to 0.500000, expected 1"
        assert f"\nwarning: {note}\n" in capsys.readouterr().out
        assert _read_json(tmp_path / "run" / "result.json")["warnings"] == [note]

    def test_failed_run_leaves_no_result(self, tmp_path, capsys):
        spec_path = tmp_path / "xx.json"
        xx_spec([1.1, 0.8, 1.3]).to_json(spec_path)
        out = tmp_path / "d"
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "sim")]) == 0
        short = tmp_path / "sim" / "trace_x1.csv"  # five samples: too few to fit
        short.write_text("\n".join(short.read_text().splitlines()[:6]) + "\n")
        # the earlier run's outputs are gone, so none passes for this run's
        assert main(["run", "--trace", str(short), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []
        assert main(["run", "--trace", str(short), "--out", str(tmp_path / "new")]) == 2
        assert not (tmp_path / "new").exists()

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

    @pytest.mark.parametrize("flags, lines", [
        pytest.param(["--step", "0.5"], None, id="step_flag"),
        pytest.param(["--window", "100"], None, id="window_flag"),
        pytest.param([], ["--window=100"], id="window_in_config"),
        pytest.param(["--seed", "7"], None, id="seed_flag"),
        pytest.param([], ["--seed=7"], id="seed_in_config"),
    ])
    def test_sampling_settings_are_refused_with_traces(
        self, tmp_path, bench_spec_path, capsys, flags, lines
    ):
        # the trace files fix the sampling and the noise draws; the manifest
        # must not record other values
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path),
                     "--out", str(sim_out)]) == 0
        if lines is not None:
            flags = [_settings_file(tmp_path / "run.args", *lines)]
        run_out = tmp_path / "run"
        code = main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--out", str(run_out), *flags])
        assert code == 2
        assert "do not apply to --trace" in capsys.readouterr().err
        assert not (run_out / "result.json").exists()

    def test_ingested_result_records_no_config(self, tmp_path, bench_spec_path):
        # the trace's own sampling is not a TomographyConfig, and the defaults
        # would misdescribe it
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path), "--out", str(sim_out),
                     "--step", "0.1", "--window", "30"]) == 0
        run_out = tmp_path / "run"
        assert main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--out", str(run_out)]) == 0
        assert _read_json(run_out / "result.json")["config"] is None
        assert _read_json(run_out / "manifest.json")["config"]["resolved"] is None

    def test_noise_sigma_flag_sets_the_bundle_sigma(self, tmp_path, bench_spec_path):
        # a noisy trace whose sidecar lost its sigma fails the noiseless fit
        # floor; the flag restores it
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path), "--out", str(sim_out),
                     "--noise-sigma", "0.01", "--seed", "3"]) == 0
        sidecar = sim_out / "trace_x1.meta.json"
        sidecar.write_text(json.dumps({**_read_json(sidecar), "noise": None}))
        trace = str(sim_out / "trace_x1.csv")
        assert main(["run", "--trace", trace, "--out", str(tmp_path / "a")]) == 3
        assert main(["run", "--trace", trace, "--noise-sigma", "0.01",
                     "--out", str(tmp_path / "b")]) == 0
        assert _read_json(tmp_path / "b" / "result.json")["config"] is None

    def test_noise_sigma_flag_widens_the_physical_bound(self, tmp_path, bench_spec_path,
                                                         capsys):
        # this sigma = 0.05 trace peaks past the noiseless bound 1.1; the
        # flag's sigma must reach the bundle before it bounds the traces
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path), "--out", str(sim_out),
                     "--noise-sigma", "0.05", "--seed", "3"]) == 0
        sidecar = sim_out / "trace_x1.meta.json"
        sidecar.write_text(json.dumps({**_read_json(sidecar), "noise": None}))
        trace = str(sim_out / "trace_x1.csv")
        capsys.readouterr()
        assert main(["run", "--trace", trace, "--out", str(tmp_path / "a")]) == 2
        assert capsys.readouterr().err == "error: trace values exceed the physical bound 1 + 0.1\n"
        assert main(["run", "--trace", trace, "--noise-sigma", "0.05",
                     "--out", str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.01"])
    def test_invalid_noise_sigma_flag_with_traces_exits_2(self, tmp_path, bench_spec_path,
                                                          capsys, sigma):
        # the bundle refuses the flag's sigma as the sidecars' is refused
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path), "--out", str(sim_out)]) == 0
        capsys.readouterr()
        assert main(["run", "--trace", str(sim_out / "trace_x1.csv"), "--noise-sigma", sigma,
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: noise sigma must be finite and nonnegative\n"

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
                           "--out", str(tmp_path)])
        assert code == 2
        assert "unrecognized arguments: --sigma=0.01" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, bench_spec_path):
        code = _exit_code(["run", "--spec", str(bench_spec_path),
                           f"@{tmp_path / 'nope.args'}", "--out", str(tmp_path)])
        assert code == 2


class TestErrors:
    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        code = main(["run", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "simulate"])
    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_in_place_of_a_file_exits_2(self, tmp_path, bench_spec_path, capsys,
                                            command, out):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        code = main([command, "--spec", str(bench_spec_path), "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out must name a directory")
        assert str(tmp_path / out) in err
        assert afile.read_text() == "kept\n"

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "model": "xx", "n_spins": 8, "couplings": {"J": [1.0, 2.0]},
        }))
        code = main(["run", "--spec", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_malformed_sidecar_exits_2(self, tmp_path, bench_spec_path, capsys):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path),
                     "--out", str(sim_out)]) == 0
        capsys.readouterr()
        (sim_out / "trace_x1.meta.json").write_text('{"probe": {"observable": "q"}}')
        code = main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("field, value", [
        ("model", "q"),
        ("n_spins", "three"),
        ("noise", {"sigma": "x"}),
        ("noise", 0.1),
    ])
    def test_malformed_sidecar_field_exits_2(self, tmp_path, bench_spec_path,
                                             capsys, field, value):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path),
                     "--out", str(sim_out)]) == 0
        capsys.readouterr()
        sidecar = sim_out / "trace_x1.meta.json"
        meta = _read_json(sidecar)
        meta.pop("truth_couplings", None)
        sidecar.write_text(json.dumps({**meta, field: value}))
        code = main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("field, value", [
        ("truth_couplings", {"JX": [2.0, 0.7, 1.3], "JY": [0.9, 1.2, 0.6]}),
        ("allow_signed", True),
    ], ids=["truth_couplings", "allow_signed"])
    def test_sidecars_disagreeing_on_the_truth_exit_2(self, tmp_path, capsys,
                                                     field, value):
        spec_path = tmp_path / "spec.json"
        xy_spec([1.1, 0.7, 1.3], [0.9, 1.2, 0.6]).to_json(spec_path)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(sim_out)]) == 0
        capsys.readouterr()
        sidecar = sim_out / "trace_x1.meta.json"
        sidecar.write_text(json.dumps({**_read_json(sidecar), field: value}))
        code = main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--trace", str(sim_out / "trace_y1.csv"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "must agree on the truth" in capsys.readouterr().err

    @pytest.mark.parametrize("n_spins", [3.7, True, 3.0], ids=["fraction", "bool", "float"])
    def test_non_integer_n_spins_in_json_exits_2(self, tmp_path, capsys, n_spins):
        # int() used to read 3.7 as a 3-spin chain, on both JSON routes
        spec = {"model": "xx", "n_spins": n_spins, "couplings": {"J": [1.0, 0.8]}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 2
        assert "n_spins must be an integer" in capsys.readouterr().err
        sim_out = tmp_path / "sim"
        xx_spec([1.0, 0.8]).to_json(spec_path)
        assert main(["simulate", "--spec", str(spec_path), "--out", str(sim_out)]) == 0
        sidecar = sim_out / "trace_x1.meta.json"
        sidecar.write_text(json.dumps({**_read_json(sidecar), "n_spins": n_spins}))
        capsys.readouterr()
        assert main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--out", str(tmp_path / "b")]) == 2
        assert "n_spins must be an integer" in capsys.readouterr().err

    def test_non_bool_allow_signed_exits_2(self, tmp_path, capsys):
        # bool("false") is True: J_2 = -0.8 used to be recovered as signed
        spec = {"model": "xx", "n_spins": 3, "couplings": {"J": [1.0, -0.8]},
                "allow_signed": "false"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 2
        assert "allow_signed must be true or false" in capsys.readouterr().err
        sim_out = tmp_path / "sim"
        xx_spec([1.0, -0.8], allow_signed=True).to_json(spec_path)
        assert main(["simulate", "--spec", str(spec_path), "--out", str(sim_out)]) == 0
        sidecar = sim_out / "trace_x1.meta.json"
        sidecar.write_text(json.dumps({**_read_json(sidecar), "allow_signed": "false"}))
        capsys.readouterr()
        assert main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--out", str(tmp_path / "b")]) == 2
        assert "malformed trace metadata" in capsys.readouterr().err

    @pytest.mark.parametrize("sign", NON_INTEGER_SIGNS.values(), ids=list(NON_INTEGER_SIGNS))
    def test_non_integer_probe_sign_exits_2(self, tmp_path, bench_spec_path,
                                            capsys, sign):
        # int() used to read 1.9 and True as +1
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path),
                     "--out", str(sim_out)]) == 0
        sidecar = sim_out / "trace_x1.meta.json"
        meta = _read_json(sidecar)
        sidecar.write_text(json.dumps({**meta, "probe": {**meta["probe"], "sign": sign}}))
        capsys.readouterr()
        assert main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "probe sign must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("probe, message", CONTRADICTORY_PROBES.values(),
                             ids=list(CONTRADICTORY_PROBES))
    def test_contradictory_probe_exits_2(self, tmp_path, bench_spec_path, capsys,
                                         probe, message):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path),
                     "--out", str(sim_out)]) == 0
        sidecar = sim_out / "trace_x1.meta.json"
        sidecar.write_text(json.dumps({**_read_json(sidecar), "probe": probe}))
        capsys.readouterr()
        assert main(["run", "--trace", str(sim_out / "trace_x1.csv"),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"{sidecar}: malformed probe: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cut, message", TRUNCATED_CSVS.values(), ids=list(TRUNCATED_CSVS))
    def test_truncated_trace_csv_exits_2_naming_the_file(self, tmp_path, bench_spec_path,
                                                         capsys, cut, message):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(bench_spec_path),
                     "--out", str(sim_out)]) == 0
        path = sim_out / "trace_x1.csv"
        path.write_text(cut(path.read_text()))
        capsys.readouterr()
        assert main(["run", "--trace", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("edit, message", [
        pytest.param(_nudge_third_time, "trace sampling must be uniform", id="nudged_time"),
        pytest.param(lambda rows: rows[:6],
                     "need at least 10 samples to seed 4 poles, got 5", id="five_rows"),
    ])
    def test_trace_grid_the_fit_cannot_use_exits_2(self, tmp_path, capsys, edit, message):
        spec_path = tmp_path / "xx.json"
        xx_spec([1.1, 0.8, 1.3]).to_json(spec_path)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(sim_out)]) == 0
        path = sim_out / "trace_x1.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert main(["run", "--trace", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run" / "result.json").exists()

    @pytest.mark.parametrize("line", [
        "--taylor-order=3",
        "--noise-sigma=abc",
        "--window=big",
        "--format=xml",
        "--n-terms=4.7",
        "--seed=2.5",
        "--n-terms=inf",
        "--noise-sigma=nan",
        "--n-terms=4",
        # result.json is the one result file, so there is no format to choose
        "--format=csv",
    ], ids=["taylor_order", "noise_sigma", "window", "format", "n_terms_fraction",
            "seed_fraction", "n_terms_inf", "noise_sigma_nan", "n_terms", "format_csv"])
    def test_malformed_config_value_exits_2(self, tmp_path, bench_spec_path,
                                            capsys, line):
        settings = _settings_file(tmp_path / "run.args", line)
        code = _exit_code(["run", "--spec", str(bench_spec_path), settings,
                           "--out", str(tmp_path / "out")])
        assert code == 2
        # argparse refuses what it cannot read; a NaN sigma reads as a float
        # and is refused by the package
        err = capsys.readouterr().err
        assert err.startswith("error: " if line == "--noise-sigma=nan" else "usage: ")
        assert "error: " in err
        assert not (tmp_path / "out" / "result.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--step", "nan"],
        ["--window", "nan"],
        ["--window", "inf"],
        ["--noise-sigma", "nan"],
        ["--noise-sigma", "-0.01"],
        ["--noise-sigma", "0.01", "--seed", "-1"],
    ], ids=["step_nan", "window_nan", "window_inf", "noise_sigma_nan",
            "noise_sigma_negative", "seed_negative"])
    def test_invalid_sampling_or_noise_flag_exits_2(self, tmp_path, capsys, flags):
        spec_path = tmp_path / "xx.json"
        xx_spec([1.1, 0.8, 1.3]).to_json(spec_path)
        code = main(["run", "--spec", str(spec_path),
                     "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "result.json").exists()

    def test_n_terms_flag_is_gone(self, tmp_path, bench_spec_path, capsys):
        # the chain length fixes the cosine count, so there is no flag for it
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--spec", str(bench_spec_path), "--n-terms", "3",
                  "--out", str(tmp_path / "out")])
        assert exc_info.value.code == 2
        assert "--n-terms" in capsys.readouterr().err
        assert not (tmp_path / "out" / "result.json").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.strip()


def test_cold_import_leaves_scipy_unloaded():
    # scipy.linalg alone used to be most of the package's import time
    code = (
        "import sys, chaintomo, chaintomo.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = Path(chaintomo.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
