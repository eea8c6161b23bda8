"""Exception taxonomy for the tomography pipeline.

Every error raised by this package derives from :class:`ChainTomoError`.
Every refusal of a bad argument or input (a malformed chain
description, a bad trace file, a pole count or noise level out of range),
by the pipeline or by chaintomo.reference, raises :class:`SpecError`.
A ChainSpec or TraceBundle that breaks an invariant (a bundle's traces
must match its chain's probes) raises it when built, a sidecar probe
whose fields disagree when Probe.from_dict reads it, and run_tomography
for a source or config it cannot take, a spec's simulation included;
all of these build the pipeline's input, so their ``stage`` is None.
Inside, the orchestrator tags an error with its stage's name, "fit" or
"invert", and a SpecError comes only from fit_trace's grid check
("fit").  :class:`EigenError`
means only that a solver failed.  Each kind of argument is refused in
one place: integers, real numbers, float arrays and values of the wrong
class altogether by _integer, _is_real, _floats and _instance here, noise
levels by dynamics._check_sigma, and JSON input files by
chain_model._read_json.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class ChainTomoError(Exception):
    """Base class for all package errors.

    Attributes:
        stage: name of the pipeline stage that raised, or None if the
            error occurred outside the orchestrated pipeline.
    """

    def __init__(self, message: str, *, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class SpecError(ChainTomoError):
    """A chain description, input file or argument violates a declared invariant."""


def _integer(value, what: str, minimum: int) -> int:
    """value as an int of at least minimum, else SpecError; a bool is no integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecError(f"{what} must be at least {minimum}, got {value}")
    return int(value)


def _is_real(value) -> bool:
    """Whether value is a finite real number; a bool or a string is none."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _instance(value, kind, who: str, what: str):
    """value if isinstance(value, kind), else SpecError("<who> takes <what>, got <type>")."""
    if not isinstance(value, kind):
        raise SpecError(f"{who} takes {what}, got {type(value).__name__}")
    return value


# element types that are no real number, named here since numpy promotes them
# beside numbers: [True, 0.8] is [1.0, 0.8], [2.0, 1j] starts with 2+0j, and a
# datetime or timedelta casts to its count of units
_NOT_NUMBERS = frozenset({bool, np.bool_, str, bytes, np.str_, np.bytes_, complex,
                          np.complex64, np.complex128, np.datetime64, np.timedelta64})


def _floats(values, what: str) -> np.ndarray:
    """values as a read-only 1-D float copy, so no write, the caller's included,
    undoes the check; one number is one value.  A typed array must hold
    floats or integers.  Strings, booleans, complex numbers, datetimes and
    timedeltas (a float cast would read "1.0" and True as numbers, drop an
    imaginary part and count a duration's units), in a typed array or among
    the elements of a list, tuple or object array, what float() cannot
    take, and anything 2-D or not finite, are a SpecError."""
    if values.__class__ is np.ndarray and values.dtype.kind == "O":
        values = values.tolist()  # its elements as given, judged as a list's
    if values.__class__ in (list, tuple) and not _NOT_NUMBERS.isdisjoint(map(type, values)):
        bad = next(value for value in values if type(value) in _NOT_NUMBERS)
        raise SpecError(f"{what} must hold numbers, got {bad!r}")
    try:
        arr = np.array(values, ndmin=1)
        if arr.dtype.kind not in "fiuO":
            raise SpecError(f"{what} must hold numbers, got a {arr.dtype} array")
        if arr.dtype != np.float64:  # float input, the common case, is copied once
            arr = arr.astype(float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what} must hold numbers: {exc}") from exc
    if arr.ndim != 1 or not np.isfinite(arr).all():
        raise SpecError(f"{what} must be a 1-D array of finite numbers")
    arr.flags.writeable = False
    return arr


class EigenError(ChainTomoError):
    """An eigensolve failed or the evolved state lost normalization."""


class ResolutionError(ChainTomoError):
    """The trace's cosine-sum fit is declined: the seed finds no shift or
    too few separated lines, the refined fit stays above its residual
    floor, or a line sits at or beyond the Nyquist frequency.  The
    message states the numbers that failed; it names no cause, since too
    short a window, an undeclared noise level, a wrong chain length and a
    decaying signal can each end the same way."""


class InversionError(ChainTomoError):
    """A quantity that must be nonnegative came out negative beyond tolerance.

    Attributes:
        link: 1-based index of the offending link, or None when no single
            link is at fault (a negative spectral weight).
        radicand: the negative value: a squared coupling
            (eta_j - p0)/(p1 - p0) or a spectral weight.
    """

    def __init__(self, message: str, *, link: int | None, radicand: float):
        super().__init__(message)
        self.link = link
        self.radicand = radicand


class DegenerateError(ChainTomoError):
    """A link cannot be identified from the data.

    An earlier link estimated at zero, or a fitted spectrum with fewer
    distinct lines than the chain needs, leaves this link undetermined.
    """

    def __init__(self, message: str, *, link: int):
        super().__init__(message)
        self.link = link
