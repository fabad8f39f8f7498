"""Exception types shared across the toolkit.

The hierarchy mirrors the failure modes of the pipeline: input problems,
geometric hypothesis violations, numerical failures of a single primitive,
and verification failures where two independent routes disagree.
"""


class EbkError(Exception):
    """Base class for all toolkit errors."""


class InvalidSymbol(EbkError):
    """Symbol evaluation produced a non-finite value or malformed parameters."""


class PreimageNotEnclosed(EbkError):
    """The requested box does not strictly contain the energy-band preimage."""


class NonCompactWindow(EbkError):
    """Level sets in the energy window are unbounded; no compact enclosure exists."""


class EmptyLevelSet(EbkError):
    """No point of the box lies on the requested energy level."""


class NotClosedOrbit(EbkError):
    """Flow tracing did not return to its start within the time budget."""


class TraceDiverged(EbkError):
    """Traced samples drifted off the energy level beyond tolerance."""


class CriticalSeed(EbkError):
    """A trace seed sits at a near-critical point, where the flow stalls."""


class NonConstantTopology(EbkError):
    """Component count changes inside the window (a critical value intrudes)."""


class NotSimple(EbkError):
    """Polyline self-intersects; enclosed area is ill-defined."""


class DegenerateCaustic(EbkError):
    """Vertical tangency could not be resolved at the sampling resolution."""


class NotDiffeomorphism(EbkError):
    """Action samples are not strictly monotone; the table cannot be inverted."""


class OutOfWindow(EbkError):
    """Requested action value lies outside the table's range."""


class UnsafeEndpoint(EbkError):
    """Counting endpoint sits too close to the spectrum for an exact count."""


class EmptySpectrum(EbkError):
    """Operation requires at least one spectral entry."""


class DomainTooSmall(EbkError):
    """Truncation half-width does not confine the requested energies."""


class InverseIterationFailed(EbkError):
    """Eigenvector refinement did not reach the residual target."""


class BisectionFailed(EbkError):
    """LAPACK bisection did not return the requested window eigenvalues."""


class BijectionFailure(EbkError):
    """Interior counts of the two spectra disagree; order matching impossible."""


class ConfigError(EbkError):
    """Run configuration file is malformed or inconsistent."""


class GridTooLarge(ConfigError):
    """The oracle grid the tolerances ask for exceeds the grid-size cap."""
