"""Coupling reconstruction for 1-D spin chains from single-spin traces.

Measure one boundary spin of an XX, XY, or transverse-field Ising chain
over time, with no control over how the rest of the chain starts out, and
recover every coupling constant: the signal is a finite cosine sum, whose
fitted lines and weights are the spectral measure of the chain's
tridiagonal matrix, and the pipeline inverts that spectrum by Lanczos.

The package namespace holds the pipeline.  The paper's own routes, Taylor
matching (its coefficients are triangular in the squared couplings) and
full state-vector evolution, are the reference that tests hold the
pipeline against; import them from chaintomo.reference.
"""

__version__ = "0.1.0"

from .chain_model import (
    ChainSpec,
    FluxChain,
    Model,
    Observable,
    Probe,
    flux_chains,
)
from .dynamics import (
    NoiseSpec,
    SignalTrace,
    add_noise,
    read_trace,
    spectral_signal,
    write_trace,
)
from .errors import (
    ChainTomoError,
    DegenerateError,
    EigenError,
    InversionError,
    ResolutionError,
    SpecError,
)
from .fitting import CosineSumModel, fit_trace
from .series import spectral_couplings
from .tomography import (
    ParameterEstimate,
    TomographyConfig,
    TomographyResult,
    TraceBundle,
    run_tomography,
    sample_times,
    simulate_traces,
)

__all__ = [
    "__version__",
    "ChainSpec",
    "ChainTomoError",
    "CosineSumModel",
    "DegenerateError",
    "EigenError",
    "FluxChain",
    "InversionError",
    "Model",
    "NoiseSpec",
    "Observable",
    "ParameterEstimate",
    "Probe",
    "ResolutionError",
    "SignalTrace",
    "SpecError",
    "TomographyConfig",
    "TomographyResult",
    "TraceBundle",
    "add_noise",
    "fit_trace",
    "flux_chains",
    "read_trace",
    "run_tomography",
    "sample_times",
    "simulate_traces",
    "spectral_couplings",
    "spectral_signal",
    "write_trace",
]
