"""The public surface is the pipeline; the reference routes sit apart."""

import ast
from pathlib import Path

import pytest

import chaintomo
from chaintomo import dynamics, errors, fitting, reference, series

PACKAGE = Path(chaintomo.__file__).resolve().parent

PUBLIC = {
    "__version__",
    "ChainSpec", "FluxChain", "Model", "Observable", "Probe", "flux_chains",
    "NoiseSpec", "SignalTrace", "add_noise", "read_trace", "spectral_signal", "write_trace",
    "ChainTomoError", "DegenerateError", "EigenError", "InversionError", "ResolutionError",
    "ShapeMismatch", "SpecError",
    "CosineSumModel", "fit_trace",
    "spectral_couplings",
    "ParameterEstimate", "TomographyConfig", "TomographyResult", "TraceBundle",
    "run_tomography", "sample_times", "simulate_traces",
}
# the Taylor route from series, the state-vector route from dynamics
MOVED = {
    series: ("delta_coefficients", "_mu_unchecked", "mu_coefficients", "eta_coefficients",
             "invert_couplings", "RADICAND_TOL", "DEGENERACY_TOL"),
    dynamics: ("taylor_signal", "statevector_signal", "build_hamiltonian", "BulkState",
               "STATEVECTOR_CAP", "_PREP_STATES", "_OBS_MATRIX"),
}
REFERENCE_ERRORS = ("CapExceeded", "InsufficientChain", "TomographyWarning")


def _imports(path: Path) -> set[str]:
    """The package modules a source file imports, by their short name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("chaintomo."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("chaintomo."))
    return found


def test_all_is_the_pipeline():
    assert len(chaintomo.__all__) == 30
    assert set(chaintomo.__all__) == PUBLIC
    assert all(hasattr(chaintomo, name) for name in chaintomo.__all__)
    # fit_trace is the fit layer's one entry; its two steps stay in fitting
    assert not hasattr(chaintomo, "estimate_spectrum") and not hasattr(chaintomo, "refine_fit")
    assert callable(fitting.estimate_spectrum) and callable(fitting.refine_fit)
    # a probe is its preparation: no second enum names the six states
    assert not hasattr(chaintomo, "Preparation")


@pytest.mark.parametrize("origin, name", [
    pytest.param(module, name, id=name) for module, names in MOVED.items() for name in names
])
def test_reference_names_live_only_in_reference(origin, name):
    assert hasattr(reference, name)
    assert not hasattr(chaintomo, name)
    assert not hasattr(origin, name)


@pytest.mark.parametrize("name", REFERENCE_ERRORS)
def test_reference_errors_stay_in_errors_only(name):
    assert issubclass(getattr(errors, name), (chaintomo.ChainTomoError, Warning))
    assert not hasattr(chaintomo, name)


def test_layering():
    importers = {path.stem: _imports(path) for path in PACKAGE.glob("*.py")}
    # tomography keeps two reference names for the benchmark's span tracer
    assert {stem for stem, used in importers.items() if "reference" in used} == {"tomography"}
    assert "series" not in importers["dynamics"]
