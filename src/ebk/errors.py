"""Exception types shared across the toolkit, each with its exit code.

Three base classes carry the exit codes of a run; every other class inherits
one. EbkError (4) is a numerical failure of one primitive or a disagreement
of two independent routes, ConfigError (2) a malformed or over-demanding
run configuration, and HypothesisError (3) input that violates a geometric
hypothesis of the quantization rule: a regular window and compact level sets.
"""


class EbkError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 4


class HypothesisError(EbkError):
    """The input violates a geometric hypothesis of the quantization rule."""

    exit_code = 3


class RegularityViolation(HypothesisError):
    """Critical values intrude on the requested window."""


class InvalidSymbol(EbkError):
    """Symbol evaluation produced a non-finite value or malformed parameters."""


class PreimageNotEnclosed(HypothesisError):
    """The requested box does not strictly contain the energy-band preimage."""


class NonCompactWindow(HypothesisError):
    """Level sets in the energy window are unbounded; no compact enclosure exists."""


class EmptyLevelSet(HypothesisError):
    """No point of the box lies on the requested energy level."""


class TraceDiverged(HypothesisError):
    """An arc missed the stepper-attempt budget, drifted off its level, or its step underflowed."""


class CriticalSeed(HypothesisError):
    """A trace seed sits at a near-critical point, where the flow stalls."""


class NonConstantTopology(HypothesisError):
    """Component count changes inside the window (a critical value intrudes)."""


class NotSimple(EbkError):
    """Polyline self-intersects; enclosed area is ill-defined."""


class DegenerateCaustic(HypothesisError):
    """Vertical tangency could not be resolved at the sampling resolution."""


class NotDiffeomorphism(HypothesisError):
    """Action samples are not strictly monotone; the table cannot be inverted."""


class OutOfWindow(EbkError):
    """Requested action value lies outside the table's range."""


class UnsafeEndpoint(EbkError):
    """Counting endpoint sits too close to the spectrum for an exact count."""


class BasisNotConverged(EbkError):
    """A LAPACK eigensolve of the oscillator-basis oracle failed."""


class BijectionFailure(EbkError):
    """Interior counts of the two spectra disagree; order matching impossible."""


class ConfigError(EbkError):
    """Run configuration file is malformed or inconsistent."""

    exit_code = 2


class TooManyLevels(ConfigError):
    """A family's window levels at one hbar, or the floats an oracle basis stores, exceed their cap."""
