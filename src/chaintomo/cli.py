"""Command-line front end.

Two subcommands: `simulate` writes probe traces for a chain description,
`run` executes the full reconstruction from a spec (simulated) or from
trace CSVs (ingested).  Settings can also come from a file, one
`--flag=value` per line, given as `@run.args`.  Every output directory
gets a RunManifest.

Exit codes: 0 success, 2 input or spec error (argparse exits with 2 on a
setting it refuses), 3 pipeline error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, replace
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


def _build_config(args: argparse.Namespace) -> TomographyConfig:
    # built for every sigma, so NaN and negative values are refused too
    noise = NoiseSpec(sigma=args.noise_sigma, seed=args.seed)
    kwargs = {"noise": noise if args.noise_sigma > 0 else None}
    if args.step is not None:
        kwargs["sample_step"] = args.step
    if args.window is not None:
        kwargs["window"] = args.window
    return TomographyConfig(**kwargs)


def _flags(args: argparse.Namespace) -> dict:
    """The parsed settings, as the manifest records them."""
    return {key: value for key, value in vars(args).items() if key != "func"}


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
    if not args.spec:
        raise SpecError("simulate requires --spec")
    started = _now()
    spec = ChainSpec.from_json(args.spec)
    config = _build_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command="simulate",
        version=__version__,
        config={**_flags(args), "resolved": config.to_dict()},
        inputs=[str(args.spec)],
        seed=args.seed,
        started=started,
    )
    meta_common = {
        "model": spec.model.value,
        "n_spins": spec.n_spins,
        "noise": None if config.noise is None else config.noise.to_dict(),
        "seed": args.seed,
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
    if bool(args.spec) == bool(args.trace):
        raise SpecError("run requires exactly one of --spec or --trace")
    if args.trace and (args.step is not None or args.window is not None):
        # the trace files fix their own sampling; a manifest that records
        # other values would misdescribe the run
        raise SpecError("step and window do not apply to --trace: "
                        "the traces carry their own sampling")
    started = _now()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.spec:
        source = ChainSpec.from_json(args.spec)
        inputs = [str(args.spec)]
        config = _build_config(args)
    else:
        source = TraceBundle.from_metadata([read_trace(p) for p in args.trace])
        inputs = [str(p) for p in args.trace]
        # a bundle takes no config: a given sigma replaces the sidecars'
        noise = _build_config(args).noise
        if noise is not None:
            source = replace(source, noise_sigma=noise.sigma)
        config = None

    result = run_tomography(source, config)

    manifest = RunManifest(
        command="run",
        version=__version__,
        config={**_flags(args),
                "resolved": None if config is None else config.to_dict()},
        inputs=inputs,
        seed=args.seed,
        started=started,
    )
    if args.format == "csv":
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
    # "@run.args" reads one argument per line from run.args, in place; a
    # later setting overrides an earlier one, from a file or a flag
    parser = argparse.ArgumentParser(
        prog="chaintomo",
        description="Reconstruct spin-chain couplings from boundary-spin traces.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_fit_flags: bool) -> None:
        p.add_argument("--spec", help="chain description JSON")
        p.add_argument("--step", type=float, help="sample step in units of 1/J")
        p.add_argument("--window", type=float, help="total window in units of 1/J")
        p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.0,
                       help="additive Gaussian noise level (default 0)")
        p.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
        p.add_argument("--out", default=".", help="output directory (default .)")
        if with_fit_flags:
            p.add_argument("--trace", action="append", default=[],
                           help="measured trace CSV (repeatable)")
            p.add_argument("--format", choices=("json", "csv"), default="json",
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
