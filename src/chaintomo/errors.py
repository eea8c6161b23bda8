"""Exception taxonomy for the tomography pipeline.

Every error raised by this package derives from :class:`ChainTomoError`.
Input problems (malformed chain descriptions, bad trace files) raise
:class:`SpecError`.  A ChainSpec or TraceBundle that breaks an invariant
raises it when built, and a sidecar probe whose fields disagree when
Probe.from_dict reads it; both happen outside the pipeline, so its
``stage`` is None.  An error raised inside a pipeline stage carries that stage's
name in ``stage`` once the orchestrator has tagged it.  CapExceeded,
InsufficientChain and TomographyWarning come only from the reference
routes in chaintomo.reference, so the package namespace does not export
them; import them from here.
"""

from __future__ import annotations


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
    """A chain description or input file violates a declared invariant."""


class ShapeMismatch(SpecError):
    """Parameter arrays or parameter-name sets do not line up."""


class CapExceeded(ChainTomoError):
    """Requested state-vector simulation above reference.STATEVECTOR_CAP sites."""


class EigenError(ChainTomoError):
    """An eigensolve failed or the evolved state lost normalization."""


class ResolutionError(ChainTomoError):
    """The sampled window cannot separate the requested number of lines."""


class InsufficientChain(ChainTomoError):
    """More Taylor orders requested than the chain has links to support
    (reference.mu_coefficients)."""


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


class TomographyWarning(UserWarning):
    """reference.invert_couplings clamped a radicand at zero.  The
    pipeline's own notes are values in TomographyResult.warnings."""
