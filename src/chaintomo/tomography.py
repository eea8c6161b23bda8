"""End-to-end pipeline from a chain description or measured traces to
named coupling estimates.

A ChainSpec source is simulated: one trace per required probe from the
spectral oracle (optionally with seeded Gaussian noise).  A TraceBundle
source is ingested: traces measured elsewhere, matched to the required
probes by observable.  Either way each trace is fitted to a cosine sum,
the fit is inverted as the spectral measure of the flux chain for its
links, and the links are mapped back to Hamiltonian parameter names.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chain_model import (
    ChainSpec, FluxChain, Model, Observable, chain_layout, flux_chains, parameter_label,
    validate_spec,
)
from .dynamics import NoiseSpec, SignalTrace, add_noise, spectral_signal
from .errors import ChainTomoError, SpecError, TomographyWarning
from .fitting import CosineSumModel, _check_uniform, fit_trace
# eta_coefficients and invert_couplings, the paper's Taylor-matching
# route, are not called here; they stay importable from this module
# because the benchmark's span tracer looks them up on it by name
from .series import eta_coefficients, invert_couplings, spectral_couplings  # noqa: F401


@dataclass(frozen=True)
class TomographyConfig:
    """Pipeline knobs.

    sample_step and window are in units of 1/J; the defaults (pi/25 and
    8*pi, i.e. 200 samples) resolve the slowest line of the reference
    chain with two full periods.  The number of cosines is not a knob:
    an m-link chain has (m+1)//2 lines, plus a dc term when m + 1 is odd.
    A config describes how a ChainSpec is simulated; a TraceBundle takes
    none, since its traces fix the sampling and its noise_sigma the noise.
    """

    sample_step: float = math.pi / 25
    window: float = 8 * math.pi
    noise: NoiseSpec | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sample_step) and self.sample_step > 0):
            raise SpecError("sample_step must be finite and positive")
        if not math.isfinite(self.window):
            raise SpecError("window must be finite")
        if self.window < 10 * self.sample_step:
            raise SpecError("window must cover at least 10 sample steps")

    def to_dict(self) -> dict:
        return {
            "sample_step": self.sample_step,
            "window": self.window,
            "noise": None if self.noise is None else self.noise.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TomographyConfig":
        noise = d.get("noise")
        try:
            return cls(
                sample_step=float(d.get("sample_step", math.pi / 25)),
                window=float(d.get("window", 8 * math.pi)),
                noise=None if noise is None else NoiseSpec(**noise),
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"malformed config: {exc}") from exc


@dataclass(frozen=True, eq=False)
class TraceBundle:
    """Measured traces plus the chain identity they came from.

    The model and site count determine the flux-chain structure (and so
    the expected probes and link labels); couplings stay unknown unless a
    ground-truth spec of the same chain is attached.  The truth feeds the
    error columns, and its allow_signed decides whether the recovered
    magnitudes take its signs.  noise_sigma, the data's noise level, sets
    the fit's residual floor and must be finite and nonnegative.
    """

    model: Model
    n_spins: int
    traces: tuple[SignalTrace, ...]
    truth: ChainSpec | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        # an infinite or NaN sigma would lift the physical bound and the
        # fit's residual floor, so it is refused as NoiseSpec refuses it
        NoiseSpec(self.noise_sigma)
        truth = self.truth
        if truth is not None and (
            truth.model != self.model or truth.n_spins != self.n_spins
        ):
            raise SpecError(
                "truth must describe the bundle's chain; got a "
                f"{truth.model.value} chain of {truth.n_spins} spins"
            )

    @classmethod
    def from_metadata(cls, pairs) -> "TraceBundle":
        """Assemble from (SignalTrace, metadata) pairs as read from disk.

        Metadata that disagree between traces, or fields of the wrong type
        or value (the sidecar truth included), raise SpecError.
        """
        if not pairs:
            raise SpecError("no traces supplied")
        try:
            models = {meta.get("model") for _, meta in pairs}
            counts = {meta.get("n_spins") for _, meta in pairs}
            if len(models) != 1 or None in models:
                raise SpecError("traces must agree on one model")
            if len(counts) != 1 or None in counts:
                raise SpecError("traces must agree on n_spins")
            # convert before the truth block, so a bad field is not named as
            # a malformed chain description
            model = Model(next(iter(models)))
            n_spins = int(next(iter(counts)))
            sigma = 0.0
            for _, meta in pairs:
                noise = meta.get("noise")
                if noise:
                    # checked per sidecar: max() would drop a NaN or negative sigma
                    sigma = max(sigma, NoiseSpec(float(noise.get("sigma", 0.0))).sigma)
            truth = None
            for _, meta in pairs:
                if meta.get("truth_couplings"):
                    truth = ChainSpec.from_dict(
                        {
                            "model": meta["model"],
                            "n_spins": meta["n_spins"],
                            "couplings": meta["truth_couplings"],
                            "allow_signed": meta.get("allow_signed", False),
                        }
                    )
                    break
            return cls(
                model=model,
                n_spins=n_spins,
                traces=tuple(trace for trace, _ in pairs),
                truth=truth,
                noise_sigma=sigma,
            )
        except (KeyError, TypeError, ValueError, AttributeError, SpecError) as exc:
            raise SpecError(f"malformed trace metadata: {exc}") from exc


@dataclass(frozen=True)
class ParameterEstimate:
    name: str
    estimate: float
    truth: float | None = None
    abs_error: float | None = None

    def to_dict(self) -> dict:
        return {
            "parameter": self.name,
            "estimate": self.estimate,
            "truth": self.truth,
            "abs_error": self.abs_error,
        }


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Recovered parameters with fit diagnostics.

    parameters follow chain-traversal order; fits are keyed by the probed
    observable, and so are traces, the signals the fits were made to
    (not serialized).  residual_rms is the worst fit residual across
    chains.  config is None for an ingested TraceBundle.  Serialization
    is deterministic: identical config and seed give byte-identical JSON.
    """

    model: Model
    n_spins: int
    parameters: tuple[ParameterEstimate, ...]
    fits: dict[str, CosineSumModel]
    config: TomographyConfig | None
    warnings: tuple[str, ...] = ()
    traces: dict[str, SignalTrace] = field(default_factory=dict)

    @property
    def residual_rms(self) -> float:
        return max(fit.residual_rms for fit in self.fits.values())

    @property
    def recovered(self) -> dict[str, float]:
        return {p.name: p.estimate for p in self.parameters}

    def to_dict(self) -> dict:
        return {
            "model": Model(self.model).value,
            "n_spins": self.n_spins,
            "parameters": [p.to_dict() for p in self.parameters],
            "fits": {obs: fit.to_dict() for obs, fit in self.fits.items()},
            "residual_rms": self.residual_rms,
            "warnings": list(self.warnings),
            "config": None if self.config is None else self.config.to_dict(),
        }

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_csv(self, path: str | Path | None = None) -> str:
        lines = ["parameter,estimate,truth,abs_error"]
        for p in self.parameters:
            truth = "" if p.truth is None else repr(p.truth)
            err = "" if p.abs_error is None else repr(p.abs_error)
            lines.append(f"{p.name},{p.estimate!r},{truth},{err}")
        text = "\n".join(lines) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text


@contextmanager
def _stage(name: str):
    """Tag errors escaping a pipeline stage with the stage name."""
    try:
        yield
    except ChainTomoError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


def sample_times(config: TomographyConfig) -> np.ndarray:
    """The uniform grid the config describes: step * (0, 1, ..., n-1)."""
    n_samples = int(round(config.window / config.sample_step))
    return config.sample_step * np.arange(n_samples)


def simulate_traces(spec: ChainSpec, config: TomographyConfig | None = None) -> list[SignalTrace]:
    """One spectral-oracle trace per required probe, noise per config.

    With noise configured, each chain's trace gets an independent stream
    seeded at noise.seed + chain index, so multi-probe models do not
    share a realization.
    """
    return _simulate_chains(flux_chains(spec), config or TomographyConfig())


def _simulate_chains(
    chains: list[FluxChain], config: TomographyConfig
) -> list[SignalTrace]:
    times = sample_times(config)
    traces = []
    for index, fc in enumerate(chains):
        trace = spectral_signal(fc, times, fc.probe)
        if config.noise is not None and config.noise.sigma > 0:
            per_chain = NoiseSpec(
                sigma=config.noise.sigma, seed=config.noise.seed + index
            )
            trace = add_noise(trace, per_chain)
        traces.append(trace)
    return traces


def run_tomography(source, config: TomographyConfig | None = None) -> TomographyResult:
    """Recover all couplings from a ChainSpec or a TraceBundle.

    The source type picks the route: a ChainSpec is simulated per config;
    a TraceBundle is ingested and takes no config, since its traces fix
    the sampling and its noise_sigma the noise level.  Per flux chain:
    obtain the trace (simulate or look up by probe), fit the cosine sum,
    recover the links from its spectrum by Lanczos, and label them.
    Deterministic for a fixed config and noise seed.  Errors raised inside
    a stage carry that stage's name; warnings other than
    TomographyWarning, which goes into the result, reach the caller.
    """
    collected: list[str] = []

    with _stage("validate"):
        if isinstance(source, ChainSpec):
            config = config or TomographyConfig()
            chains = flux_chains(source)
            layout = [(fc.probe, fc.label_map) for fc in chains]
            truth = source
            noise_sigma = config.noise.sigma if config.noise else 0.0
        elif isinstance(source, TraceBundle):
            if config is not None:
                raise SpecError(
                    "a TraceBundle takes no TomographyConfig: its traces fix "
                    "the sampling and its noise_sigma the noise level"
                )
            layout = chain_layout(source.model, source.n_spins)
            truth = source.truth
            if truth is not None:
                validate_spec(truth)
            noise_sigma = source.noise_sigma
        else:
            raise SpecError(
                f"expected ChainSpec or TraceBundle, got {type(source).__name__}"
            )
        signed = truth is not None and truth.allow_signed

    if isinstance(source, ChainSpec):
        with _stage("simulate"):
            simulated = _simulate_chains(chains, config)

    parameters: list[ParameterEstimate] = []
    fits: dict[str, CosineSumModel] = {}
    traces: dict[str, SignalTrace] = {}

    for index, (probe, labels) in enumerate(layout):
        observable = probe.observable.value

        if isinstance(source, ChainSpec):
            trace = simulated[index]
        else:
            with _stage("ingest"):
                matching = [
                    tr
                    for tr in source.traces
                    if Observable(tr.probe.observable) is probe.observable
                ]
                if len(matching) != 1:
                    raise SpecError(
                        f"ingest needs exactly one trace probing {observable}, "
                        f"got {len(matching)}"
                    )
                trace = matching[0].check_physical(
                    allowance=max(0.1, 6.0 * noise_sigma)
                )
                _check_uniform(trace.times)
        traces[observable] = trace

        m = len(labels)
        with _stage("fit"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TomographyWarning)
            # fit against +alpha regardless of the preparation's sign; the
            # m + 1 nodes pair up into (m+1)//2 lines, the odd one out at 0
            fit = fit_trace(
                (trace.times, trace.probe.sign * trace.values),
                (m + 1) // 2,
                include_dc=m % 2 == 0,
                noise_sigma=noise_sigma,
            )
            fits[observable] = fit

        with _stage("invert"):
            links = spectral_couplings(fit, m)

        with _stage("assemble"):
            for w in caught:
                if issubclass(w.category, TomographyWarning):
                    collected.append(f"{observable}: {w.message}")
                else:  # not the pipeline's own: the caller's filters decide
                    warnings.warn_explicit(w.message, w.category, w.filename,
                                           w.lineno, source=w.source)
            for (family, k), magnitude in zip(labels, links):
                estimate = float(magnitude)
                truth_val = None if truth is None else truth.coupling(family, k)
                if signed:
                    estimate = math.copysign(estimate, truth_val)
                parameters.append(
                    ParameterEstimate(
                        name=parameter_label(family, k),
                        estimate=estimate,
                        truth=truth_val,
                        abs_error=None
                        if truth_val is None
                        else abs(estimate - truth_val),
                    )
                )

    return TomographyResult(
        model=Model(source.model),
        n_spins=source.n_spins,
        parameters=tuple(parameters),
        fits=fits,
        config=config,
        warnings=tuple(collected),
        traces=traces,
    )
