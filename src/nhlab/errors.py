"""Exception types shared across the package."""


class NhlabError(Exception):
    """Base class for all package-specific errors."""


class ExceptionalPointError(NhlabError):
    """Eigenvalues (and eigenvectors) of the 2x2 Bloch matrix coalesce."""


class NoZeroModeError(NhlabError):
    """No eigenvalue magnitude falls below the zero-mode tolerance."""


class TrackingAmbiguityError(NhlabError):
    """Band tracking or the winding cannot be decided at this sampling; refine it."""


class OnBoundaryError(NhlabError):
    """The hopping circle passes through an exceptional point."""


class GaplessTrajectoryError(NhlabError):
    """Eigenvector trajectory touches the origin; winding undefined."""


class PropagatorOverflowError(NhlabError):
    """The requested time step would overflow the matrix exponential."""

    def __init__(self, norm_t, cap, substeps):
        self.norm_t = norm_t
        self.cap = cap
        self.substeps = substeps
        super().__init__(
            f"||H||*t = {norm_t:.3g} exceeds cap {cap:.3g}; "
            f"split into >= {substeps} substeps"
        )


class ConfigError(NhlabError):
    """Invalid or incomplete run configuration."""
