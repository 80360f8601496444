"""Numerical laboratory for a 1D non-Hermitian lattice with gain/loss
and long-range hopping: spectra, fractional winding numbers, defective
zero modes, and time-domain detection."""

from .dynamics import (SpectrumPeakReport, SweepDirection, SweepMode, SweepResult,
                       TimeSeries, adiabatic_sweep, evolve, fourier_detect,
                       propagator)
from .errors import (ConfigError, EigenDecompositionError, ExceptionalPointError,
                     GaplessTrajectoryError, NhlabError, NoZeroModeError,
                     OnBoundaryError, PropagatorOverflowError,
                     TrackingAmbiguityError)
from .model import (Boundary, BlochMatrix, DisorderConfig, DisorderTarget,
                    LatticeParams, build_bloch, build_real_space, chiral_operator,
                    chiral_residual, parity_operator, pt_residual)
from .spectra import (EdgeProfile, GapReport, SpectralReport,
                      ZeroModeInfo, bloch_eigensystem, edge_profile, eig,
                      exact_generalized_zero_mode, exact_zero_mode, gap_report,
                      geometric_multiplicity, smallest_abs_eigenvalue,
                      smallest_singular_values, spectral_report, zero_mode_analysis)
from .topology import (TrackedBand, WindingResult, band_coefficients,
                       count_enclosed_eps, track_band, winding_number)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
