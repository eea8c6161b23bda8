"""End-to-end pipeline from a chain description or measured traces to
named coupling estimates.

The pipeline reconstructs a TraceBundle: one boundary-spin trace per
required probe plus what is known of the chain.  A ChainSpec source is
first simulated into the bundle it describes (spectral-oracle traces,
optionally with seeded Gaussian noise); a measured bundle comes from
elsewhere.  Every bundle is ingested the same way: each trace is matched
to its probe by observable, fitted to a cosine sum, the fit is inverted
as the spectral measure of the flux chain for its links, and the links
are mapped back to Hamiltonian parameter names.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chain_model import (
    ChainSpec, Model, chain_layout, flux_chains, parameter_label,
)
from .dynamics import NoiseSpec, SignalTrace, add_noise, spectral_signal
from .errors import ChainTomoError, SpecError
from .fitting import CosineSumModel, _check_sampling, fit_trace
# eta_coefficients and invert_couplings, the paper's Taylor-matching
# route, are not called here; they stay importable from this module
# because the benchmark's span tracer looks them up on it by name
from .reference import eta_coefficients, invert_couplings  # noqa: F401
from .series import spectral_couplings


@dataclass(frozen=True)
class TomographyConfig:
    """Pipeline knobs.

    sample_step and window are in units of 1/J; the defaults (pi/25 and
    8*pi, i.e. 200 samples) resolve the slowest line of the reference
    chain with two full periods.  The number of cosines is not a knob:
    the m + 1 nodes of an m-link chain are its fit's poles.
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
    """Boundary-spin traces plus the chain identity they came from.

    This is what run_tomography reconstructs, whether the traces were
    measured or simulated from a ChainSpec (simulate_traces).  The model
    and site count determine the flux-chain structure (and so the
    expected probes and link labels); couplings stay unknown unless a
    ground-truth spec of the same chain is attached.  The truth feeds the
    error columns, and its allow_signed decides whether the recovered
    magnitudes take its signs.  noise_sigma, the data's noise level, sets
    the fit's residual floor and must be finite and nonnegative.
    to_metadata and from_metadata write and read the per-trace sidecar.
    A bundle checks its chain (chain_layout), noise_sigma and truth when
    built and raises SpecError if one is wrong.
    """

    model: Model
    n_spins: int
    traces: tuple[SignalTrace, ...]
    truth: ChainSpec | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        chain_layout(self.model, self.n_spins)
        object.__setattr__(self, "model", Model(self.model))
        object.__setattr__(self, "n_spins", int(self.n_spins))
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

    def to_metadata(self) -> dict:
        """The sidecar fields its traces share; from_metadata reads them back.

        noise records sigma only: each simulated trace has its own seed.
        """
        meta = {
            "model": self.model.value,
            "n_spins": self.n_spins,
            "noise": {"sigma": self.noise_sigma} if self.noise_sigma > 0 else None,
        }
        if self.truth is not None:
            truth = self.truth.to_dict()
            meta["truth_couplings"] = truth["couplings"]
            meta["allow_signed"] = truth["allow_signed"]
        return meta

    @classmethod
    def from_metadata(cls, pairs) -> "TraceBundle":
        """Assemble from (SignalTrace, metadata) pairs as read from disk.

        Metadata that disagree between traces, or fields of the wrong type
        or value (the sidecar truth included), raise SpecError.  A sidecar
        without truth couplings states no truth; those that state one must
        agree on its couplings and allow_signed.
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
            sigma = 0.0
            for _, meta in pairs:
                noise = meta.get("noise")
                if noise:
                    # checked per sidecar: max() would drop a NaN or negative sigma
                    sigma = max(sigma, NoiseSpec(float(noise.get("sigma", 0.0))).sigma)
            # every sidecar that states a truth must state the same one
            truths = [ChainSpec.from_dict({**meta, "couplings": meta["truth_couplings"]})
                      for _, meta in pairs if meta.get("truth_couplings")]
            if any(t.to_dict() != truths[0].to_dict() for t in truths[1:]):
                raise SpecError("traces must agree on the truth couplings and allow_signed")
            truth = truths[0] if truths else None
            return cls(next(iter(models)), next(iter(counts)),
                       tuple(trace for trace, _ in pairs), truth, sigma)
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
            "model": self.model.value,
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


def simulate_traces(spec: ChainSpec, config: TomographyConfig | None = None) -> TraceBundle:
    """The TraceBundle a spec describes, sampled and noised per config.

    One spectral-oracle trace per required probe, in chain_layout order,
    with the spec attached as truth and the config's noise sigma as the
    bundle's.  With noise configured, the trace of chain index i gets its
    own stream seeded at noise.seed + i, so multi-probe models do not
    share a realization.
    """
    config = config or TomographyConfig()
    noise = config.noise
    sigma = 0.0 if noise is None else noise.sigma
    times = sample_times(config)
    traces = []
    for index, fc in enumerate(flux_chains(spec)):
        trace = spectral_signal(fc, times, fc.probe)
        if sigma > 0:
            trace = add_noise(trace, NoiseSpec(sigma=sigma, seed=noise.seed + index))
        traces.append(trace)
    return TraceBundle(spec.model, spec.n_spins, tuple(traces), truth=spec,
                       noise_sigma=sigma)


def run_tomography(source, config: TomographyConfig | None = None) -> TomographyResult:
    """Recover all couplings from a ChainSpec or a TraceBundle.

    Both sources checked themselves when built, so the validate stage
    refuses only an unknown source type and a config given with a
    TraceBundle.  A ChainSpec is simulated per config into the bundle it
    describes (simulate_traces); a TraceBundle is taken as it is, and
    takes no config, since its traces fix the sampling and its
    noise_sigma the noise level.  A bundle trace that no probe of the
    chain reads is refused at ingest.  Then, per flux chain of the bundle:
    ingest the trace probing it, fit its m + 1 nodes as poles, recover
    the links from the fit's spectrum by Lanczos, and label them.
    Deterministic for a fixed config and noise seed.  Errors raised
    inside a stage carry that stage's name.  Fitted amplitudes that miss
    alpha(0) = 1 are noted in result.warnings, as values: a run keeps no
    process-wide warning state, so it is safe to call from several
    threads.
    """
    with _stage("validate"):
        if isinstance(source, ChainSpec):
            config = config or TomographyConfig()
        elif not isinstance(source, TraceBundle):
            raise SpecError(
                f"expected ChainSpec or TraceBundle, got {type(source).__name__}"
            )
        elif config is not None:
            raise SpecError(
                "a TraceBundle takes no TomographyConfig: its traces fix "
                "the sampling and its noise_sigma the noise level"
            )

    bundle = source
    if isinstance(source, ChainSpec):
        with _stage("simulate"):
            bundle = simulate_traces(source, config)
    truth = bundle.truth
    signed = truth is not None and truth.allow_signed
    noise_sigma = bundle.noise_sigma
    layout = chain_layout(bundle.model, bundle.n_spins)

    parameters: list[ParameterEstimate] = []
    notes: list[str] = []
    fits: dict[str, CosineSumModel] = {}
    traces: dict[str, SignalTrace] = {}

    with _stage("ingest"):
        # every trace must feed a probe; one no probe reads would be dropped
        probed = [probe.observable for probe, _ in layout]
        for tr in bundle.traces:
            if tr.probe.observable not in probed:
                raise SpecError(
                    f"ingest has no probe for the trace probing {tr.probe.observable.value}: "
                    f"{bundle.model.value} chains are probed on "
                    f"{', '.join(o.value for o in probed)} only"
                )

    for probe, labels in layout:
        observable = probe.observable.value
        m = len(labels)

        with _stage("ingest"):
            matching = [tr for tr in bundle.traces
                        if tr.probe.observable is probe.observable]
            if len(matching) != 1:
                raise SpecError(
                    f"ingest needs exactly one trace probing {observable}, "
                    f"got {len(matching)}"
                )
            trace = matching[0].check_physical(allowance=max(0.1, 6.0 * noise_sigma))
            # the m + 1 nodes of the flux chain are the fit's poles
            _check_sampling(trace.times, m + 1)
        traces[observable] = trace

        with _stage("fit"):
            # fit against +alpha regardless of the preparation's sign
            fit = fit_trace((trace.times, trace.probe.sign * trace.values),
                            m + 1, noise_sigma=noise_sigma)
            fits[observable] = fit

        with _stage("invert"):
            links = spectral_couplings(fit)

        with _stage("assemble"):
            # alpha(0) = 1 whatever the bulk state, so the amplitudes must
            # sum to 1 within what the residual and the noise allow
            total = fit.amplitude_sum
            if abs(total - 1.0) > max(1e-6, 5.0 * max(fit.residual_rms, noise_sigma)):
                notes.append(f"{observable}: fitted amplitudes sum to {total:.6f}, expected 1")
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
        model=bundle.model,
        n_spins=bundle.n_spins,
        parameters=tuple(parameters),
        fits=fits,
        config=config,
        warnings=tuple(notes),
        traces=traces,
    )
