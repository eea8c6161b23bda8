"""Coupling reconstruction for 1-D spin chains from single-spin traces.

Measure one boundary spin of an XX, XY, or transverse-field Ising chain
over time, with no control over how the rest of the chain starts out, and
recover every coupling constant: the signal is a finite cosine sum whose
Taylor coefficients are triangular in the squared couplings.
"""

__version__ = "0.1.0"

from .chain_model import (
    ChainSpec,
    FluxChain,
    Model,
    Observable,
    Preparation,
    Probe,
    flux_chains,
    parameter_names,
    validate_spec,
)
from .dynamics import (
    BulkState,
    NoiseSpec,
    SignalTrace,
    add_noise,
    build_hamiltonian,
    read_trace,
    spectral_signal,
    statevector_signal,
    taylor_signal,
    write_trace,
)
from .errors import (
    CapExceeded,
    ChainTomoError,
    DegenerateError,
    EigenError,
    InsufficientChain,
    InversionError,
    ResolutionError,
    ShapeMismatch,
    SpecError,
    TomographyWarning,
)
from .fitting import CosineSumModel, estimate_spectrum, fit_trace, refine_fit
from .series import (
    DeltaTable,
    delta_coefficients,
    eta_coefficients,
    invert_couplings,
    mu_coefficients,
    spectral_couplings,
)
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
    "BulkState",
    "CapExceeded",
    "ChainSpec",
    "ChainTomoError",
    "CosineSumModel",
    "DegenerateError",
    "DeltaTable",
    "EigenError",
    "FluxChain",
    "InsufficientChain",
    "InversionError",
    "Model",
    "NoiseSpec",
    "Observable",
    "ParameterEstimate",
    "Preparation",
    "Probe",
    "ResolutionError",
    "ShapeMismatch",
    "SignalTrace",
    "SpecError",
    "TomographyConfig",
    "TomographyResult",
    "TomographyWarning",
    "TraceBundle",
    "add_noise",
    "build_hamiltonian",
    "delta_coefficients",
    "estimate_spectrum",
    "eta_coefficients",
    "fit_trace",
    "flux_chains",
    "invert_couplings",
    "mu_coefficients",
    "parameter_names",
    "read_trace",
    "refine_fit",
    "run_tomography",
    "sample_times",
    "simulate_traces",
    "spectral_couplings",
    "spectral_signal",
    "statevector_signal",
    "taylor_signal",
    "validate_spec",
    "write_trace",
]
