"""Exception taxonomy for the tomography pipeline.

Every error raised by this package derives from :class:`ChainTomoError`.
Every refusal of a bad argument or input (a malformed chain
description, a bad trace file, a pole count or noise level out of range),
by the pipeline or by chaintomo.reference, raises :class:`SpecError`.
A ChainSpec or TraceBundle that breaks an invariant (a bundle's traces
must match its chain's probes) raises it when built, and a sidecar probe
whose fields disagree when Probe.from_dict reads it; both happen outside
the pipeline, so its ``stage`` is None.  Inside, the orchestrator tags
an error with its stage's name, and a SpecError comes only from
validate, simulate or fit_trace's grid check ("fit").  :class:`EigenError`
means only that a solver failed.  Each kind of argument is refused in
one place: integers, real numbers, float arrays and values of the wrong
class altogether by _integer, _is_real, _floats and _instance here, noise
levels and link arrays by dynamics._check_sigma and _links, and JSON
input files by chain_model._read_json.
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


def _floats(values, what: str) -> np.ndarray:
    """np.asarray(values, dtype=float); what numpy cannot convert is a SpecError."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what} must hold numbers: {exc}") from exc


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
