"""End-to-end pipeline from a chain description or measured traces to
named coupling estimates.

The pipeline reconstructs a TraceBundle: one boundary-spin trace per
required probe plus what is known of the chain, checked against it when
built.  A ChainSpec source is first simulated into the bundle it
describes (spectral-oracle traces, optionally with seeded Gaussian
noise); a measured bundle comes from elsewhere.  Each probe's trace is
fitted to a cosine sum, the fit is inverted as the spectral measure of
the flux chain for its links, and the links are mapped back to
Hamiltonian parameter names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain_model import (
    ChainSpec, Model, chain_layout, flux_chains, parameter_label,
)
from .dynamics import NoiseSpec, SignalTrace, _check_sigma, add_noise, spectral_signal
from .errors import ChainTomoError, SpecError, _instance, _is_real
from .fitting import CosineSumModel, fit_trace
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
        if not (_is_real(self.sample_step) and self.sample_step > 0):
            raise SpecError("sample_step must be finite and positive")
        if not _is_real(self.window):
            raise SpecError("window must be finite")
        object.__setattr__(self, "sample_step", float(self.sample_step))
        object.__setattr__(self, "window", float(self.window))
        if self.window < 10 * self.sample_step:
            raise SpecError("window must cover at least 10 sample steps")
        _instance(self.noise, (NoiseSpec, type(None)), "TomographyConfig",
                  "a NoiseSpec or None as noise")


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
    A bundle checks its chain (chain_layout), noise_sigma, traces and
    truth when built and raises SpecError if one is wrong: each probe
    reads exactly one trace, each trace feeds a probe, and no value
    exceeds 1 + max(0.1, 6 * noise_sigma).  traces is kept as a tuple in
    chain_layout order; its grids are fit_trace's to check.
    """

    model: Model
    n_spins: int
    traces: tuple[SignalTrace, ...]
    truth: ChainSpec | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        layout = chain_layout(self.model, self.n_spins)
        object.__setattr__(self, "model", Model(self.model))
        object.__setattr__(self, "n_spins", int(self.n_spins))
        # a NaN or infinite sigma would lift the physical bound and the fit's floor
        object.__setattr__(self, "noise_sigma", _check_sigma(self.noise_sigma))
        traces, truth = self.traces, self.truth
        for trace in _instance(traces, (tuple, list), "TraceBundle", "a tuple of SignalTraces"):
            _instance(trace, SignalTrace, "TraceBundle", "a tuple of SignalTraces")
        _instance(truth, (ChainSpec, type(None)), "TraceBundle", "a ChainSpec truth or None")
        if truth is not None and (
            truth.model != self.model or truth.n_spins != self.n_spins
        ):
            raise SpecError(
                "truth must describe the bundle's chain; got a "
                f"{truth.model.value} chain of {truth.n_spins} spins"
            )
        # every trace must feed a probe; one no probe reads would be dropped
        by_observable = {probe.observable: [] for probe, _ in layout}
        for trace in traces:
            observable = trace.probe.observable
            if observable not in by_observable:
                raise SpecError(f"ingest has no probe for the trace probing {observable.value}: "
                                f"{self.model.value} chains are probed on "
                                f"{', '.join(o.value for o in by_observable)} only")
            by_observable[observable].append(trace)
        allowance = max(0.1, 6.0 * self.noise_sigma)
        for observable, matching in by_observable.items():  # in chain_layout order
            if len(matching) != 1:
                raise SpecError(f"ingest needs exactly one trace probing {observable.value}, "
                                f"got {len(matching)}")
            if abs(matching[0].values).max() > 1.0 + allowance:
                raise SpecError(f"trace values exceed the physical bound 1 + {allowance:g}")
        object.__setattr__(self, "traces", tuple(trace for (trace,) in by_observable.values()))

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
        agree on its couplings and allow_signed.  The bundle's own refusals
        of its traces are raised as it words them, not as malformed metadata.
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
            model, n_spins = next(iter(models)), next(iter(counts))
            chain_layout(model, n_spins)  # the sidecars' chain is metadata too
            sigma = 0.0
            for _, meta in pairs:
                noise = meta.get("noise")
                if noise:
                    # checked per sidecar: max() would drop a NaN or negative sigma
                    sigma = max(sigma, _check_sigma(noise.get("sigma", 0.0)))
            # every sidecar that states a truth must state the same one
            truths = [ChainSpec.from_dict({**meta, "couplings": meta["truth_couplings"]})
                      for _, meta in pairs if meta.get("truth_couplings")]
            if any(t.to_dict() != truths[0].to_dict() for t in truths[1:]):
                raise SpecError("traces must agree on the truth couplings and allow_signed")
            truth = truths[0] if truths else None
        except (KeyError, TypeError, ValueError, AttributeError, SpecError) as exc:
            raise SpecError(f"malformed trace metadata: {exc}") from exc
        return cls(model, n_spins, tuple(trace for trace, _ in pairs), truth, sigma)


@dataclass(frozen=True)
class ParameterEstimate:
    name: str
    estimate: float
    truth: float | None = None

    @property
    def abs_error(self) -> float | None:
        return None if self.truth is None else abs(self.estimate - self.truth)

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
    observable.  residual_rms is the worst fit residual across chains.
    A result depends on its bundle alone, not on the config a spec was
    simulated with: identical traces give byte-identical JSON.
    """

    model: Model
    n_spins: int
    parameters: tuple[ParameterEstimate, ...]
    fits: dict[str, CosineSumModel]
    warnings: tuple[str, ...] = ()

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
        }

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text


def sample_times(config: TomographyConfig) -> np.ndarray:
    """The uniform grid the config describes: step * (0, 1, ..., n-1)."""
    _instance(config, TomographyConfig, "sample_times", "a TomographyConfig")
    n_samples = int(round(config.window / config.sample_step))
    return config.sample_step * np.arange(n_samples)


def simulate_traces(spec: ChainSpec, config: TomographyConfig | None = None) -> TraceBundle:
    """The TraceBundle a spec describes, sampled and noised per config.

    One spectral-oracle trace per required probe, in chain_layout order,
    with the spec attached as truth and the config's noise sigma as the
    bundle's.  With noise configured, the trace of chain index i gets its
    own stream seeded at noise.seed + i, so multi-probe models do not
    share a realization.  Any other spec or config type is a SpecError.
    """
    config = TomographyConfig() if config is None else config
    _instance(spec, ChainSpec, "simulate_traces", "a ChainSpec")
    _instance(config, TomographyConfig, "simulate_traces", "a TomographyConfig")
    noise = config.noise
    sigma = 0.0 if noise is None else noise.sigma
    times = sample_times(config)
    traces = []
    for index, fc in enumerate(flux_chains(spec)):
        trace = spectral_signal(fc.links, times, fc.probe)
        if sigma > 0:
            trace = add_noise(trace, NoiseSpec(sigma=sigma, seed=noise.seed + index))
        traces.append(trace)
    return TraceBundle(spec.model, spec.n_spins, tuple(traces), truth=spec,
                       noise_sigma=sigma)


def run_tomography(source, config: TomographyConfig | None = None) -> TomographyResult:
    """Recover all couplings from a ChainSpec or a TraceBundle.

    Both sources checked themselves when built, so the validate stage
    refuses only an unknown source type and a config given with a
    TraceBundle, which takes none: its traces fix the sampling and its
    noise_sigma the noise level.  A ChainSpec is simulated per config
    into the bundle it describes (simulate_traces).  Then, per flux chain
    of the bundle: fit the trace probing it with the chain's m + 1 nodes
    as poles (fit_trace refuses a grid that is not uniform or too short),
    recover the links from the fit's spectrum by Lanczos, and label them.
    The result depends on the bundle alone.  Errors raised
    inside a stage carry that stage's name.  Fitted amplitudes that miss
    alpha(0) = 1 are noted in result.warnings, as values: a run keeps no
    process-wide warning state, so it is safe to call from several
    threads.
    """
    stage = "validate"
    try:
        _instance(source, (ChainSpec, TraceBundle), "run_tomography", "a ChainSpec or TraceBundle")
        if isinstance(source, ChainSpec):
            stage = "simulate"
            bundle = simulate_traces(source, config)
        elif config is not None:
            raise SpecError(
                "a TraceBundle takes no TomographyConfig: its traces fix "
                "the sampling and its noise_sigma the noise level"
            )
        else:
            bundle = source
        truth = bundle.truth
        signed = truth is not None and truth.allow_signed
        noise_sigma = bundle.noise_sigma
        layout = chain_layout(bundle.model, bundle.n_spins)

        parameters: list[ParameterEstimate] = []
        notes: list[str] = []
        fits: dict[str, CosineSumModel] = {}

        for (probe, labels), trace in zip(layout, bundle.traces):
            observable = probe.observable.value
            stage = "fit"
            # the m + 1 nodes of the flux chain are the fit's poles
            fit = fit_trace(trace, len(labels) + 1, noise_sigma=noise_sigma)
            fits[observable] = fit

            stage = "invert"
            links = spectral_couplings(fit)

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
                    ParameterEstimate(parameter_label(family, k), estimate, truth_val)
                )
    except ChainTomoError as exc:
        if exc.stage is None:
            exc.stage = stage
        raise

    return TomographyResult(
        model=bundle.model,
        n_spins=bundle.n_spins,
        parameters=tuple(parameters),
        fits=fits,
        warnings=tuple(notes),
    )
