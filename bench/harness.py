"""Closed-loop chaintomo reconstructions, each checked against the truth.

One attempt runs at a time.  Its input (couplings drawn uniformly from
[0.5, 1.5], a noise seed) comes from the workload seed and the attempt
index alone, so a seed fixes the inputs whatever the timing.  Only the
call into the package is timed; building the input, checking the result
and cleaning up happen outside that interval.  The run stops at the first
whole cycle of cells that ends after ``--seconds``, so every run sees the
same mix of cells.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import chaintomo
from chaintomo import (ChainSpec, ChainTomoError, Model, NoiseSpec, TomographyConfig, cli,
                       flux_chains, tomography)

from spans import LayerStats, Tracer

SIGMAS = (0.0, 1e-3, 1e-2)
COUPLINGS = (0.5, 1.5)
STEP = math.pi / 25
# an estimate is right when every parameter is within max(1e-6, 10 sigma),
# and tight when within a tenth of that
TOL_FLOOR = 1e-6
TOL_PER_SIGMA = 10.0
TIGHT = 0.1
SETUP_PROBES = 4  # fresh processes that repeat set-up, beside this one
LAUNCHER = Path(__file__).resolve().parent / "run.py"
WORK_DIR = Path(__file__).resolve().parent / ".work"

SHORT_CELLS = (
    ("xx", 4), ("xx", 6), ("xy", 4), ("xy", 6),
    ("ising_transverse", 2), ("ising_transverse", 3),
)
# flux chains of m = 7 and 11 links.  m = 15 and 23 are left out: their
# cost per input ranges from 50 ms to 1.1 s, which made 35 s runs differ
# by 15-40 % between seeds; the inverter's failures show from m = 11.
LONG_CELLS = (
    ("xx", 8), ("xx", 12), ("xy", 8), ("xy", 12),
    ("ising_transverse", 4), ("ising_transverse", 6),
)


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[tuple[str, int], ...]
    window: Callable[[int], float]  # sampling window for a chain of m links
    modes: tuple[str, ...] = ("library",)

    @property
    def combos(self) -> list[tuple[tuple[str, int], float, str]]:
        return list(product(self.cells, SIGMAS, self.modes))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short_chain", SHORT_CELLS, lambda m: 8 * math.pi),
        Workload("long_chain", LONG_CELLS, lambda m: (m + 1) * math.pi),
        Workload("cli_roundtrip", SHORT_CELLS, lambda m: 40 * math.pi,
                 modes=("simulate_then_run", "run_spec")),
    )
}

END_TO_END_UNITS = {
    "ok_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_p98_ref": "ref",
    "ok_frac": "fraction",
    "returned_frac": "fraction",
    "ok_tight_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Attempt:
    index: int
    spec: ChainSpec
    sigma: float
    noise_seed: int
    window: float
    mode: str
    truth: dict[str, float]
    observables: tuple[str, ...]

    @property
    def tolerance(self) -> float:
        return max(TOL_FLOOR, TOL_PER_SIGMA * self.sigma)

    def config(self) -> TomographyConfig:
        noise = NoiseSpec(self.sigma, self.noise_seed) if self.sigma > 0 else None
        return TomographyConfig(sample_step=STEP, window=self.window, noise=noise)


def make_attempt(workload: Workload, seed: int, index: int, stream: int = 0) -> Attempt:
    combos = workload.combos
    (model, n), sigma, mode = combos[index % len(combos)]
    rng = np.random.default_rng([seed, index, stream])
    families = {
        "xx": {"J": n - 1},
        "xy": {"JX": n - 1, "JY": n - 1},
        "ising_transverse": {"JZ": n - 1, "B": n},
    }[model]
    spec = ChainSpec(
        model=Model(model),
        n_spins=n,
        couplings={f: rng.uniform(*COUPLINGS, size) for f, size in families.items()},
    )
    chains = flux_chains(spec)
    truth = {label: float(c) for fc in chains for label, c in zip(fc.labels, fc.links)}
    return Attempt(
        index=index,
        spec=spec,
        sigma=sigma,
        noise_seed=int(rng.integers(2**31)),
        window=workload.window(max(fc.m for fc in chains)),
        mode=mode,
        truth=truth,
        observables=tuple(fc.probe.observable.value for fc in chains),
    )


@dataclass
class Outcome:
    seconds: float
    estimates: dict[str, float] | None = None
    error: str | None = None  # exception class (or exit code) @ stage
    malformed: str | None = None  # an output that cannot be checked
    # ended outside the package's own error taxonomy: an exception that is
    # not a ChainTomoError, a CLI exit other than 0, 2 or 3, or malformed output
    broken: bool = False
    status: str = ""  # ok, wrong or failed, set by the check
    err_tol: float | None = None  # max |estimate - truth| over the tolerance
    ref: float = 1.0  # seconds the reference kernel took just before

    @property
    def in_refs(self) -> float:
        return self.seconds / self.ref


def _error_label(exc: BaseException) -> str:
    return f"{type(exc).__name__}@{getattr(exc, 'stage', None) or '-'}"


def run_library(attempt: Attempt) -> Outcome:
    config = attempt.config()
    t0 = time.perf_counter()
    try:
        result = tomography.run_tomography(attempt.spec, config)
    except ChainTomoError as exc:  # the package declined this input
        return Outcome(time.perf_counter() - t0, error=_error_label(exc))
    except Exception as exc:  # an untyped escape is counted, not raised
        return Outcome(time.perf_counter() - t0, error=_error_label(exc), broken=True)
    elapsed = time.perf_counter() - t0
    return Outcome(elapsed, estimates=result.recovered)


def _cli_main(argv: list[str]) -> tuple[int, str | None]:
    """Exit code and, when the call did not return 0, 2 or 3 (the codes
    cli.main gives for success, SpecError and other ChainTomoErrors), a
    label of how it ended instead."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refused the arguments
        return (exc.code if isinstance(exc.code, int) else 1), "SystemExit@args"
    except Exception as exc:
        return 1, _error_label(exc)
    return code, None if code in (0, 2, 3) else f"exit{code}@-"


def cli_calls(attempt: Attempt, out: Path) -> list[list[str]]:
    spec_path = str(out / "spec.json")
    sampling = ["--step", repr(STEP), "--window", repr(attempt.window),
                "--noise-sigma", repr(attempt.sigma), "--seed", str(attempt.noise_seed)]
    result = ["--out", str(out / "result")]
    if attempt.mode == "run_spec":
        return [["run", "--spec", spec_path, *sampling, *result]]
    traces = out / "traces"
    return [
        ["simulate", "--spec", spec_path, "--out", str(traces), *sampling],
        ["run", *(f"--trace={traces / f'trace_{o}.csv'}" for o in attempt.observables),
         *result],
    ]


def run_cli(attempt: Attempt, out: Path) -> Outcome:
    out.mkdir(parents=True)
    attempt.spec.to_json(out / "spec.json")
    calls = cli_calls(attempt, out)
    log = io.StringIO()
    code, escaped = 0, None
    t0 = time.perf_counter()
    with redirect_stdout(log), redirect_stderr(log):
        for argv in calls:
            code, escaped = _cli_main(argv)
            if code != 0:
                break
    elapsed = time.perf_counter() - t0
    if code != 0:
        stage = re.search(r"error \[stage=(\w+)\]", log.getvalue())
        where = stage.group(1) if stage else ("input" if code == 2 else "-")
        return Outcome(elapsed, error=escaped or f"exit{code}@{where}",
                       broken=escaped is not None)
    return _read_cli_result(out / "result", elapsed)


def _read_cli_result(result_dir: Path, elapsed: float) -> Outcome:
    try:
        result = json.loads((result_dir / "result.json").read_text())
        manifest = json.loads((result_dir / "manifest.json").read_text())
        estimates = {p["parameter"]: float(p["estimate"]) for p in result["parameters"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(elapsed, malformed=f"unreadable CLI output: {exc!r}")
    missing = [p for p in manifest.get("outputs", []) if not Path(p).is_file()]
    if missing:
        return Outcome(elapsed, malformed=f"manifest lists missing files {missing}")
    return Outcome(elapsed, estimates=estimates)


def check(attempt: Attempt, outcome: Outcome) -> None:
    """Classify an attempt as ok, wrong or failed against the truth."""
    if outcome.error is not None or outcome.malformed is not None:
        outcome.status = "failed"
        outcome.broken = outcome.broken or outcome.malformed is not None
        return
    est = outcome.estimates
    if set(est) != set(attempt.truth) or not all(map(math.isfinite, est.values())):
        outcome.malformed = f"estimates {sorted(est)} do not match {sorted(attempt.truth)}"
        outcome.status = "failed"
        outcome.broken = True
        return
    max_err = max(abs(est[k] - v) for k, v in attempt.truth.items())
    outcome.err_tol = max_err / attempt.tolerance
    outcome.status = "ok" if outcome.err_tol <= 1.0 else "wrong"
    outcome.estimates = None  # keep memory flat however many attempts run


class Reference:
    """A fixed kernel that tracks how fast the machine runs right now.

    The shared box's speed drifts by 15-25 % from minute to minute: the
    same 180 inputs took 4.8 s in one run and 6.5 s in the next.  This
    FFT and SVD at the pipeline's sizes does not touch chaintomo; timed
    every 0.1 s between attempts (the faster of two tries), it moves with
    the machine, and attempt times divided by it move much less.
    """

    EVERY_S = 0.1

    def __init__(self):
        t = np.linspace(0.0, 30.0, 300)
        self.signal = np.cos(np.outer(t, np.linspace(0.5, 6.0, 11))).sum(axis=1)
        self.hankel = np.lib.stride_tricks.sliding_window_view(self.signal, 101)[:200].copy()
        self.latest = 0.0
        self.taken = -math.inf

    def _once(self) -> float:
        t0 = time.perf_counter()
        np.fft.rfft(self.signal * np.hanning(self.signal.size), n=9600)
        np.linalg.svd(self.hankel, compute_uv=False)
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """The latest timing, renewed when it is older than EVERY_S."""
        if time.perf_counter() - self.taken >= self.EVERY_S:
            self.latest = min(self._once(), self._once())
            self.taken = time.perf_counter()
        return self.latest


class Runner:
    """Runs attempts of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer() if trace else None
        self.layers = LayerStats()
        self.reference = Reference()
        self.work = WORK_DIR / str(os.getpid())
        if self.tracer is not None:
            self.tracer.install()

    def attempt(self, index: int, stream: int = 0, traced: bool = False) -> Outcome:
        attempt = make_attempt(self.workload, self.seed, index, stream)
        out = self.work / f"a{index}-{stream}"
        run = (partial(run_library, attempt) if attempt.mode == "library"
               else partial(run_cli, attempt, out))
        ref = self.reference.seconds()
        try:
            if traced:
                with self.tracer.attempt():
                    outcome = run()
                self.layers.add(self.tracer.spans, outcome.seconds)
            else:
                outcome = run()
            outcome.ref = ref
            check(attempt, outcome)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return outcome

    def loop(self, seconds: float, paired: bool = False):
        """Closed loop over the inputs in order.  Stops at the first whole
        cycle of cells that ends past ``seconds``, or mid-cycle at
        1.2 * ``seconds`` (so ``seconds`` 0 makes one attempt).  A paired
        loop runs each input untraced and then traced, and returns
        (untraced, traced) pairs."""
        cycle = len(self.workload.combos)
        done: list = []
        start = time.perf_counter()
        while True:
            i = len(done)
            done.append((self.attempt(i), self.attempt(i, traced=True)) if paired
                        else self.attempt(i))
            elapsed = time.perf_counter() - start
            if ((i + 1) % cycle == 0 and elapsed >= seconds) or elapsed >= 1.2 * seconds:
                return done

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        shutil.rmtree(self.work, ignore_errors=True)


def summarize(outcomes: list[Outcome]) -> dict:
    """Counts, failures by class and stage, and wall-clock figures."""
    statuses = [o.status for o in outcomes]
    n = len(outcomes)
    ok, wrong = statuses.count("ok"), statuses.count("wrong")
    busy = sum(o.seconds for o in outcomes)
    lat = np.array([o.seconds for o in outcomes]) * 1e3
    errs = [o.err_tol for o in outcomes if o.err_tol is not None]
    errors: dict[str, int] = {}
    for o in outcomes:
        if o.status == "failed":
            key = o.error or "malformed"
            errors[key] = errors.get(key, 0) + 1
    return {
        "attempted": n,
        "ok": ok,
        "wrong": wrong,
        "failed": n - ok - wrong,
        "broken": sum(o.broken for o in outcomes),
        "fail_frac": (n - ok - wrong) / n,
        "wrong_frac": wrong / n,
        "errors": errors,
        "malformed": [o.malformed for o in outcomes if o.malformed][:3],
        "busy_s": busy,
        "ok_per_s": ok / busy if busy > 0 else 0.0,
        "latency_p50_ms": float(np.percentile(lat, 50)),
        "latency_p98_ms": float(np.percentile(lat, 98)),
        "ref_ms_p50": 1e3 * float(np.median([o.ref for o in outcomes])),
        "max_err_tol_p50": float(np.median(errs)) if errs else None,
    }


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict[str, float]:
    """Times are in reference-kernel durations (see Reference)."""
    n = len(outcomes)
    ok = sum(o.status == "ok" for o in outcomes)
    refs = np.array([o.in_refs for o in outcomes])
    errs = [o.err_tol for o in outcomes if o.err_tol is not None]
    return {
        "ok_per_kref": 1e3 * ok / refs.sum(),
        "latency_p50_ref": float(np.percentile(refs, 50)),
        "latency_p98_ref": float(np.percentile(refs, 98)),
        "ok_frac": ok / n,
        "returned_frac": len(errs) / n,
        "ok_tight_frac": sum(e <= TIGHT for e in errs) / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    found: dict[str, int] = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "chaintomo": chaintomo.__version__,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "tolerance": f"max({TOL_FLOOR:g}, {TOL_PER_SIGMA:g} * sigma)",
    }


def setup(workload: Workload, seed: int, trace: bool) -> Runner:
    """Everything before the timed loop.  One untimed warm-up attempt, on
    an input stream of its own, lets lazy set-up inside the libraries finish."""
    runner = Runner(workload, seed, trace)
    runner.attempt(0, stream=1)
    return runner


def probe_setup_seconds(name: str, seed: int) -> list[float]:
    """Repeat import and set-up in fresh processes; each prints its time."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER), "--workload", name, "--seed", str(seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def result_line(correct: bool, s: dict, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": s["attempted"],
        "failed": s["broken"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def bench_workload(workload: Workload, args, started: float) -> str:
    runner = setup(workload, args.seed, trace=bool(args.trace))
    own_setup = time.perf_counter() - started
    try:
        if args.setup_only:
            return f"{own_setup!r}"
        if not args.trace:
            outcomes = runner.loop(args.seconds)
            s = summarize(outcomes)
            setup_samples = [own_setup] + probe_setup_seconds(workload.name, args.seed)
            values = end_to_end(outcomes, float(np.median(setup_samples)))
            correct = not s["malformed"] and s["ok"] + s["wrong"] > 0
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            extra = {"setup_samples_s": setup_samples}
        else:
            # each input runs untraced, then traced: the difference is the
            # tracing overhead, and the outcome must not change
            pairs = runner.loop(args.seconds, paired=True)
            plain = [p for p, _ in pairs]
            outcomes = [t for _, t in pairs]
            s, p = summarize(outcomes), summarize(plain)
            same = [o.status for o in plain] == [o.status for o in outcomes]
            correct = (not s["malformed"] and s["ok"] + s["wrong"] > 0
                       and runner.layers.consistent and same)
            metrics = runner.layers.metrics()
            metrics["trace.ok_per_s_untraced"] = (p["ok_per_s"], "1/s")
            metrics["trace.ok_per_s_traced"] = (s["ok_per_s"], "1/s")
            metrics["trace.overhead_frac"] = (s["busy_s"] / p["busy_s"] - 1.0, "fraction")
            extra = {"spans_consistent": runner.layers.consistent,
                     "uncovered_frac": runner.layers.uncovered / runner.layers.timed,
                     "outcomes_unchanged_by_tracing": same}
    finally:
        runner.close()
    print("# " + workload.name + " " + json.dumps({**s, **extra}))
    return result_line(correct, s, metrics)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Closed-loop chaintomo benchmark with a result check.",
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", action="store_true",
                        help="print the set-up time of a fresh process of one workload and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def run_each(args: argparse.Namespace) -> int:
    """Every workload, one after another, each in a fresh process of its
    own, so that set-up time and peak memory are each workload's own."""
    for name in WORKLOADS:
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER), "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        )
        if proc.returncode != 0:
            return proc.returncode
    return 0


def main(argv, started: float) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_each(args)
    if not args.setup_only:
        print("# env " + json.dumps(environment()))
    print(bench_workload(WORKLOADS[args.workload], args, started), flush=True)
    return 0
