"""Command-line front end.

Two subcommands: `simulate` writes probe traces for a chain description,
`run` executes the full reconstruction from a spec (simulated) or from
trace CSVs (ingested).  A JSON config file can mirror every flag;
flags override the file.  Every output directory gets a RunManifest.

Exit codes: 0 success, 2 input or spec error, 3 pipeline error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .chain_model import ChainSpec, Observable
from .dynamics import NoiseSpec, write_trace, read_trace
from .errors import ChainTomoError, SpecError
from .tomography import (
    TomographyConfig,
    TraceBundle,
    run_tomography,
    simulate_traces,
)


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly."""

    command: str
    version: str
    config: dict
    inputs: list[str]
    outputs: list[str] = field(default_factory=list)
    seed: int | None = None
    started: str = ""
    finished: str = ""

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(self.__dict__, indent=2) + "\n")
        return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


_SETTING_KEYS = (
    "spec",
    "trace",
    "step",
    "window",
    "noise_sigma",
    "seed",
    "out",
    "format",
)


def _resolve_settings(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then explicit flags."""
    settings: dict = {"out": ".", "format": "json", "noise_sigma": 0.0, "seed": 0}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise SpecError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SpecError(f"config file {path} is not valid JSON: {exc}") from exc
        unknown = set(loaded) - set(_SETTING_KEYS)
        if unknown:
            raise SpecError(f"config file has unknown keys: {sorted(unknown)}")
        settings.update(loaded)
    for key in _SETTING_KEYS:
        value = getattr(args, key, None)
        if value is not None and value != []:
            settings[key] = value
    return settings


def _number(settings: dict, key: str, kind: type):
    """settings[key] as a float or int; a value that is neither is a SpecError.

    int() would truncate 4.7 and read true as 1, so booleans and
    non-integral floats are refused; integral floats such as 4.0 pass.
    """
    value = settings.get(key)
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise SpecError(f"{key} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{key} must be {noun}, got {value!r}") from exc


def _build_config(settings: dict) -> TomographyConfig:
    sigma = _number(settings, "noise_sigma", float)
    seed = _number(settings, "seed", int)
    # built for every sigma, so NaN and negative values are refused too
    noise = NoiseSpec(sigma=sigma, seed=seed)
    kwargs = {"noise": noise if sigma > 0 else None}
    for key, field_name in (("step", "sample_step"), ("window", "window")):
        if settings.get(key) is not None:
            kwargs[field_name] = _number(settings, key, float)
    return TomographyConfig(**kwargs)


def _print_table(result) -> None:
    has_truth = any(p.truth is not None for p in result.parameters)
    header = f"{'parameter':<10} {'estimate':>12}"
    if has_truth:
        header += f" {'truth':>12} {'abs_error':>12}"
    print(header)
    for p in result.parameters:
        line = f"{p.name:<10} {p.estimate:>12.6f}"
        if has_truth:
            truth = f"{p.truth:>12.6f}" if p.truth is not None else " " * 12
            err = f"{p.abs_error:>12.3e}" if p.abs_error is not None else " " * 12
            line += f" {truth} {err}"
        print(line)
    print(f"residual rms: {result.residual_rms:.3e}")
    for note in result.warnings:
        print(f"warning: {note}")


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    if not settings.get("spec"):
        raise SpecError("simulate requires --spec")
    started = _now()
    spec = ChainSpec.from_json(settings["spec"])
    config = _build_config(settings)
    out_dir = Path(settings["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command="simulate",
        version=__version__,
        config={**settings, "resolved": config.to_dict()},
        inputs=[str(settings["spec"])],
        seed=int(settings.get("seed", 0)),
        started=started,
    )
    meta_common = {
        "model": spec.model.value,
        "n_spins": spec.n_spins,
        "noise": None if config.noise is None else config.noise.to_dict(),
        "seed": int(settings.get("seed", 0)),
        "truth_couplings": spec.to_dict()["couplings"],
        "allow_signed": spec.allow_signed,
    }
    for trace in simulate_traces(spec, config):
        observable = Observable(trace.probe.observable).value
        path = out_dir / f"trace_{observable}.csv"
        write_trace(trace, path, meta_common)
        manifest.outputs.append(str(path))
        print(f"wrote {path} ({trace.times.size} samples)")
    manifest.finished = _now()
    manifest.write(out_dir)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    spec_path = settings.get("spec")
    trace_paths = settings.get("trace") or []
    if bool(spec_path) == bool(trace_paths):
        raise SpecError("run requires exactly one of --spec or --trace")
    if trace_paths and (settings.get("step") is not None
                        or settings.get("window") is not None):
        # the trace files fix their own sampling; a config that records
        # other values would misdescribe the run
        raise SpecError("step and window do not apply to --trace: "
                        "the traces carry their own sampling")
    if settings["format"] not in ("json", "csv"):
        raise SpecError(f"format must be json or csv, got {settings['format']!r}")
    started = _now()
    out_dir = Path(settings["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    if spec_path:
        source = ChainSpec.from_json(spec_path)
        inputs = [str(spec_path)]
    else:
        source = TraceBundle.from_metadata([read_trace(p) for p in trace_paths])
        inputs = [str(p) for p in trace_paths]
    config = _build_config(settings)

    result = run_tomography(source, config)

    manifest = RunManifest(
        command="run",
        version=__version__,
        config={**settings, "resolved": config.to_dict()},
        inputs=inputs,
        seed=int(settings.get("seed", 0)),
        started=started,
    )
    if settings["format"] == "csv":
        result_path = out_dir / "result.csv"
        result.to_csv(result_path)
    else:
        result_path = out_dir / "result.json"
        result.to_json(result_path)
    manifest.outputs.append(str(result_path))

    for observable, fit in result.fits.items():
        fit_path = out_dir / f"fit_{observable}.json"
        fit_path.write_text(json.dumps(fit.to_dict(), indent=2) + "\n")
        manifest.outputs.append(str(fit_path))
        trace = result.traces[observable]
        fitted = trace.probe.sign * fit.evaluate(trace.times)
        plot_path = out_dir / f"plot_{observable}.csv"
        rows = zip(trace.times.tolist(), trace.values.tolist(), fitted.tolist())
        with open(plot_path, "w", newline="") as fh:
            fh.write("t,measured,fitted\n" + "".join(
                f"{t!r},{meas!r},{mod!r}\n" for t, meas, mod in rows
            ))
        manifest.outputs.append(str(plot_path))

    manifest.finished = _now()
    manifest.write(out_dir)
    _print_table(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaintomo",
        description="Reconstruct spin-chain couplings from boundary-spin traces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_fit_flags: bool) -> None:
        p.add_argument("--spec", help="chain description JSON")
        p.add_argument("--config", help="JSON file mirroring these flags")
        p.add_argument("--step", type=float, help="sample step in units of 1/J")
        p.add_argument("--window", type=float, help="total window in units of 1/J")
        p.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                       help="additive Gaussian noise level")
        p.add_argument("--seed", type=int, help="noise seed")
        p.add_argument("--out", help="output directory (default .)")
        if with_fit_flags:
            p.add_argument("--trace", action="append", default=[],
                           help="measured trace CSV (repeatable)")
            p.add_argument("--format", choices=("json", "csv"),
                           help="result file format (default json)")

    p_sim = sub.add_parser("simulate", help="write probe traces for a spec")
    common(p_sim, with_fit_flags=False)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="full tomography from spec or traces")
    common(p_run, with_fit_flags=True)
    p_run.set_defaults(func=cmd_run)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state between calls, and
    # argparse copies the --trace default list before appending to it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainTomoError as exc:
        stage = exc.stage or "pipeline"
        print(f"error [stage={stage}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
