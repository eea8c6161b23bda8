"""Command-line front end.

Two subcommands: `simulate` writes the TraceBundle of a chain description,
one trace CSV plus metadata sidecar per probe; `run` executes the full
reconstruction from a spec (simulated into its bundle) or from trace CSVs
and writes `result.json`, which holds the parameters and every probe's
fit.  `run --spec` writes no traces: `simulate` with the same flags writes
the ones it fits.  Settings can also come from a file, one `--flag=value`
per line, given as `@run.args` (blank lines are skipped).  A success adds
manifest.json, which states each parsed setting once; a failed `run`
leaves no result.json or manifest.json.

Exit codes: 0 success, 2 input or spec error (argparse exits with 2 on a
setting it refuses, and on a missing or doubled input), 3 pipeline error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .chain_model import ChainSpec
from .dynamics import NoiseSpec, _check_sigma, write_trace, read_trace
from .errors import ChainTomoError, SpecError
from .tomography import (
    TomographyConfig,
    TraceBundle,
    run_tomography,
    simulate_traces,
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _build_config(args: argparse.Namespace) -> TomographyConfig:
    # built for every sigma, so NaN and negative values are refused too
    noise = NoiseSpec(sigma=args.noise_sigma, seed=args.seed or 0)
    kwargs = {"noise": noise if args.noise_sigma > 0 else None}
    if args.step is not None:
        kwargs["sample_step"] = args.step
    if args.window is not None:
        kwargs["window"] = args.window
    return TomographyConfig(**kwargs)


def _out_dir(args: argparse.Namespace) -> Path:
    """--out as a directory path; a file at it or at a parent is a SpecError."""
    out_dir = Path(args.out)
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        raise SpecError(f"--out must name a directory, but a file is in the way: {out_dir}")
    return out_dir


def _write_manifest(out_dir: Path, args: argparse.Namespace,
                    config: TomographyConfig | None, outputs: list[Path],
                    started: str) -> None:
    """manifest.json: the parsed flags, the config they resolve to and the outputs."""
    flags = {key: value for key, value in vars(args).items() if key != "func"}
    manifest = {
        "version": __version__,
        "config": {**flags, "resolved": None if config is None else asdict(config)},
        "outputs": [str(path) for path in outputs],
        "started": started,
        "finished": _now(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


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
    started = _now()
    spec = ChainSpec.from_json(args.spec)
    config = _build_config(args)
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = simulate_traces(spec, config)
    metadata = bundle.to_metadata()
    outputs = []
    for trace in bundle.traces:
        path = out_dir / f"trace_{trace.probe.observable.value}.csv"
        write_trace(trace, path, metadata)
        outputs.append(path)
        print(f"wrote {path} ({trace.times.size} samples)")
    _write_manifest(out_dir, args, config, outputs, started)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    for stale in ("result.json", "manifest.json"):  # a failed run leaves neither
        (out_dir / stale).unlink(missing_ok=True)
    if args.trace and any(v is not None for v in (args.step, args.window, args.seed)):
        # the trace files fix their own sampling and noise draws; a manifest
        # that records other values would misdescribe the run
        raise SpecError("step, window and seed do not apply to --trace: "
                        "the traces carry their own sampling and noise")
    started = _now()
    if args.spec is not None:
        source = ChainSpec.from_json(args.spec)
        config = _build_config(args)
    else:
        pairs = [read_trace(p) for p in args.trace]
        # a bundle takes no config: a given sigma replaces the sidecars' before it is built
        if args.noise_sigma:
            noise = {"sigma": _check_sigma(args.noise_sigma)}
            pairs = [(trace, {**meta, "noise": noise}) for trace, meta in pairs]
        source = TraceBundle.from_metadata(pairs)
        config = None

    result = run_tomography(source, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "result.json"
    result.to_json(result_path)
    _write_manifest(out_dir, args, config, [result_path], started)
    _print_table(result)
    return 0


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        # a blank line in a settings file is no argument, not an empty one
        return [arg_line] if arg_line.strip() else []


def build_parser() -> argparse.ArgumentParser:
    # "@run.args" reads one argument per line from run.args, in place; a
    # later setting overrides an earlier one, from a file or a flag
    parser = _Parser(
        prog="chaintomo",
        description="Reconstruct spin-chain couplings from boundary-spin traces.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--step", type=float, help="sample step in units of 1/J")
        p.add_argument("--window", type=float, help="total window in units of 1/J")
        p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.0,
                       help="additive Gaussian noise level (default 0)")
        p.add_argument("--seed", type=int, help="noise seed (default 0)")
        p.add_argument("--out", default=".", help="output directory (default .)")

    p_sim = sub.add_parser("simulate", help="write probe traces for a spec")
    p_sim.add_argument("--spec", required=True, help="chain description JSON")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="full tomography from spec or traces")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="chain description JSON")
    source.add_argument("--trace", action="append",
                        help="measured trace CSV (repeatable)")
    common(p_run)
    p_run.set_defaults(func=cmd_run)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state between calls, and
    # --trace has no default list to append to, so each parse starts afresh
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
