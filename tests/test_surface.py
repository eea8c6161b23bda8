"""The public surface is the pipeline; the reference routes sit apart."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import chaintomo
from chaintomo import (
    ChainSpec, CosineSumModel, FluxChain, Model, NoiseSpec, Probe, SignalTrace, SpecError,
    TomographyConfig, TraceBundle, add_noise, dynamics, errors, fit_trace, fitting, flux_chains,
    reference, run_tomography, sample_times, series, simulate_traces, spectral_signal,
    write_trace,
)
from chaintomo.reference import (
    BulkState, delta_coefficients, eta_coefficients, invert_couplings, mu_coefficients,
    taylor_signal,
)

PACKAGE = Path(chaintomo.__file__).resolve().parent

PUBLIC = {
    "__version__",
    "ChainSpec", "FluxChain", "Model", "Observable", "Probe", "flux_chains",
    "NoiseSpec", "SignalTrace", "add_noise", "read_trace", "spectral_signal", "write_trace",
    "ChainTomoError", "DegenerateError", "EigenError", "InversionError", "ResolutionError",
    "SpecError",
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
# one class per cause: bad input is a SpecError wherever it is refused
ERRORS = {"ChainTomoError", "SpecError", "EigenError", "ResolutionError", "InversionError",
          "DegenerateError"}


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


def _raises(node, where="<module>"):
    """(enclosing function, class name) of each raise of a named class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name):
                yield where, exc.id
        yield from _raises(child, where)


def _calls(node, where="<module>"):
    """(enclosing function, dotted callee) of each call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield where, ast.unparse(child.func)
        yield from _calls(child, where)


def test_all_is_the_pipeline():
    assert len(chaintomo.__all__) == 29
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


def test_errors_defines_one_class_per_cause():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == ERRORS
    assert all(issubclass(getattr(errors, name), chaintomo.ChainTomoError) for name in ERRORS)


def test_every_raise_is_a_package_error():
    foreign = [(path.stem, where, name) for path in sorted(PACKAGE.glob("*.py"))
               for where, name in _raises(ast.parse(path.read_text())) if name not in ERRORS]
    # a numeric limit of the truncated series, not a refusal of its input
    assert foreign == [("reference", "taylor_signal", "OverflowError")] * 2


def test_layering():
    importers = {path.stem: _imports(path) for path in PACKAGE.glob("*.py")}
    # tomography keeps two reference names for the benchmark's span tracer
    assert {stem for stem, used in importers.items() if "reference" in used} == {"tomography"}
    assert "series" not in importers["dynamics"]


def test_each_input_rule_lives_in_one_place():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    # integers and real numbers are judged only by errors._integer and _is_real
    assert {stem for stem, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Import) and "numbers" in {a.name for a in node.names}
            or isinstance(node, ast.ImportFrom) and node.module == "numbers"} == {"errors"}
    calls = [(stem, where, callee) for stem, tree in sorted(trees.items())
             for where, callee in _calls(tree)]
    # one reader of JSON input files
    assert [c for c in calls if c[2] in ("json.loads", "json.load")] == [
        ("chain_model", "_read_json", "json.loads")]
    # a noise level is checked by _check_sigma; a NoiseSpec only sets up a run's draws
    assert sorted(c[:2] for c in calls if c[2] == "NoiseSpec") == [
        ("cli", "_simulate"), ("tomography", "simulate_traces")]
    # a trace's grid and sample count are checked once, by the fit
    assert [c[:2] for c in calls if c[2] == "_check_sampling"] == [("fitting", "fit_trace")]
    assert not hasattr(dynamics, "_links")
    # a float array is judged 1-D and finite, and made read-only, by errors._floats
    # alone; taylor_signal's two np.isfinite calls guard its own series against overflow
    assert sorted(c[:2] for c in calls if c[2] == "np.isfinite") == [
        ("errors", "_floats"), ("reference", "taylor_signal"), ("reference", "taylor_signal")]
    frozen = [(stem, func.name) for stem, tree in sorted(trees.items())
              for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
              for node in ast.walk(func) if isinstance(node, ast.Assign)
              and any(ast.unparse(t).endswith(".flags.writeable") for t in node.targets)]
    assert frozen == [("errors", "_floats")]
    # a value of the wrong class altogether is refused by errors._instance:
    # no `if` that raises tests isinstance against a package class itself
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    guards = [(stem, node.lineno) for stem, tree in sorted(trees.items())
              for node in ast.walk(tree)
              if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)
              and any(isinstance(call, ast.Call) and ast.unparse(call.func) == "isinstance"
                      and classes & {n.id for n in ast.walk(call.args[1])
                                     if isinstance(n, ast.Name)}
                      for call in ast.walk(node.test))]
    assert guards == []


def test_the_pipeline_tags_only_fit_and_invert():
    # building a bundle, a spec's simulation included, is construction and
    # carries stage None; only the fit and the inversion tag their errors
    tree = ast.parse((PACKAGE / "tomography.py").read_text())
    values = {ast.unparse(node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
              for target in node.targets
              if getattr(target, "id", getattr(target, "attr", None)) == "stage"}
    values |= {ast.unparse(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.keyword) and node.arg == "stage"}
    assert values == {"'fit'", "'invert'", "stage"}


# long enough to fit 3 poles, so only the bad argument can refuse a call
TR = spectral_signal([1.0, 0.8], np.pi / 25 * np.arange(40))
SPEC = ChainSpec(Model.XX, 3, {"J": [1.0, 0.8]})
FIT = CosineSumModel([1.0], [2.0])
T = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize("call", [
    # integers: a float, a bool or a negative count is refused
    pytest.param(lambda: delta_coefficients([1.0], 2.5), id="delta_order_float"),
    pytest.param(lambda: taylor_signal([1.0], [0.0], 2.5), id="taylor_order_float"),
    pytest.param(lambda: mu_coefficients([1.0] * 3, 2.5), id="mu_orders_float"),
    pytest.param(lambda: eta_coefficients(FIT, 2.5), id="eta_orders_float"),
    pytest.param(lambda: BulkState("mixed", 0, 2.5), id="bulk_samples_float"),
    pytest.param(lambda: BulkState("mixed", -1), id="bulk_seed_negative"),
    pytest.param(lambda: BulkState("q"), id="bulk_kind_unknown"),
    # noise levels: a string or a bool is no number
    pytest.param(lambda: NoiseSpec("0.1"), id="noise_str"),
    pytest.param(lambda: NoiseSpec(True), id="noise_bool"),
    pytest.param(lambda: fit_trace(TR, 3, noise_sigma="0.1"), id="fit_sigma_str"),
    pytest.param(lambda: fit_trace(TR, 3, noise_sigma=True), id="fit_sigma_bool"),
    pytest.param(lambda: TraceBundle(Model.XX, 3, (TR,), noise_sigma="0.1"), id="bundle_sigma_str"),
    # real numbers
    pytest.param(lambda: TomographyConfig(sample_step="0.1"), id="step_str"),
    pytest.param(lambda: TomographyConfig(sample_step=True), id="step_bool"),
    pytest.param(lambda: TomographyConfig(window=None), id="window_none"),
    pytest.param(lambda: run_tomography(SPEC, TomographyConfig(noise=0.1)), id="config_noise_float"),
    pytest.param(lambda: run_tomography(SPEC, "config"), id="config_str"),
    # float arrays
    pytest.param(lambda: spectral_signal(["a"], T), id="links_str"),
    pytest.param(lambda: spectral_signal([1.0], ["a"]), id="times_str"),
    pytest.param(lambda: SignalTrace(["a"], [1.0], Probe.PLUS_X), id="trace_str"),
    pytest.param(lambda: CosineSumModel(["a"], [1.0]), id="amplitudes_str"),
    pytest.param(lambda: CosineSumModel([1.0], [1.0], dc="x"), id="dc_str"),
    pytest.param(lambda: FluxChain(["a"], (("J", 1),)), id="flux_links_str"),
    pytest.param(lambda: FluxChain([], ()), id="flux_links_empty"),
    # a float cast would read "1.0" and True as numbers and drop an imaginary part
    pytest.param(lambda: ChainSpec.from_dict({"model": "xx", "n_spins": 3,
                                              "couplings": {"J": ["1.0", "0.8"]}}),
                 id="couplings_numeric_str"),
    pytest.param(lambda: ChainSpec(Model.XX, 3, {"J": [True, True]}), id="couplings_bool"),
    # and so would a bool or a string among numbers, which numpy promotes to float
    pytest.param(lambda: ChainSpec(Model.XX, 3, {"J": [True, 0.8]}), id="couplings_bool_mixed"),
    pytest.param(lambda: ChainSpec(Model.XX, 3, {"J": [np.True_, 0.8]}),
                 id="couplings_numpy_bool_mixed"),
    pytest.param(lambda: ChainSpec(Model.XX, 3, {"J": ["1.0", Fraction(4, 5)]}),
                 id="couplings_str_mixed"),
    pytest.param(lambda: spectral_signal([b"1"], T), id="links_bytes"),
    pytest.param(lambda: spectral_signal(np.array([1.0 + 0j]), T), id="links_complex"),
    pytest.param(lambda: spectral_signal(np.array([1.0, "a"], dtype=object), T),
                 id="links_object_str"),
    # an object array's elements are judged as a list's, and a typed array
    # must hold floats or integers: a timedelta or datetime casts to its units
    pytest.param(lambda: ChainSpec(Model.XX, 3, {"J": np.array([True, 0.8], dtype=object)}),
                 id="couplings_object_bool"),
    pytest.param(lambda: spectral_signal(np.array([np.timedelta64(1, "s")]), T),
                 id="links_timedelta"),
    pytest.param(lambda: spectral_signal(np.array([np.datetime64("2020-01-01")]), T),
                 id="links_datetime"),
    # an empty typed array has no first element to name
    pytest.param(lambda: spectral_signal(np.array([], dtype=bool), T), id="links_empty_bool"),
    # a NaN argument is refused up front, not overflowed or passed on as a NaN result
    pytest.param(lambda: FIT.evaluate([np.nan]), id="evaluate_times_nan"),
    pytest.param(lambda: invert_couplings([np.nan]), id="invert_eta_nan"),
    pytest.param(lambda: taylor_signal([1.0], [np.nan], 2), id="taylor_times_nan"),
    # a fit's bookkeeping, and a malformed fit block
    pytest.param(lambda: CosineSumModel([1.0], [1.0], residual_rms="x"), id="rms_str"),
    pytest.param(lambda: CosineSumModel([1.0], [1.0], residual_rms=-1.0), id="rms_negative"),
    pytest.param(lambda: CosineSumModel([1.0], [1.0], iterations=True), id="iterations_bool"),
    pytest.param(lambda: CosineSumModel.from_dict({"dc": None}), id="fit_block_no_terms"),
    pytest.param(lambda: CosineSumModel.from_dict({**FIT.to_dict(), "residual_rms": "x"}),
                 id="fit_block_rms_str"),
    pytest.param(lambda: CosineSumModel.from_dict({"terms": [[1.0, 2.0]]}),
                 id="fit_block_terms_lists"),
    pytest.param(lambda: CosineSumModel.from_dict({**FIT.to_dict(), "iterations": 2.5}),
                 id="fit_block_iterations_float"),
    # arguments of the wrong type altogether
    pytest.param(lambda: add_noise(TR, 0.1), id="add_noise_float"),
    pytest.param(lambda: run_tomography(TraceBundle(Model.XX, 3, ("x",))),
                 id="bundle_trace_str"),
    pytest.param(lambda: TraceBundle(Model.XX, 3, None), id="bundle_traces_none"),
    pytest.param(lambda: TraceBundle(Model.XX, 3, (), truth="x"), id="bundle_truth_str"),
    pytest.param(lambda: simulate_traces("x"), id="simulate_spec_str"),
    pytest.param(lambda: simulate_traces(SPEC, "x"), id="simulate_config_str"),
    pytest.param(lambda: FluxChain([1.0], (("J", 1),), "x"), id="flux_probe_str"),
    pytest.param(lambda: spectral_signal([1.0], T, "x"), id="signal_probe_str"),
    pytest.param(lambda: flux_chains("x"), id="flux_chains_spec_str"),
    pytest.param(lambda: sample_times("x"), id="sample_times_config_str"),
    # refused before the file is opened: opening it would raise FileNotFoundError
    pytest.param(lambda: write_trace("x", "no_such_dir/t.csv"), id="write_trace_str"),
])
def test_every_bad_argument_is_a_spec_error(call):
    with pytest.raises(SpecError):
        call()
