"""Numerical laboratory for a 1D non-Hermitian lattice with gain/loss
and long-range hopping: spectra, fractional winding numbers, defective
zero modes, and time-domain detection."""

from .dynamics import (SpectrumPeakReport, SweepDirection, SweepMode, SweepResult,
                       TimeSeries, adiabatic_sweep, evolve, fourier_detect,
                       propagator)
from .errors import (ConfigError, ExceptionalPointError, GaplessTrajectoryError,
                     NhlabError, NoZeroModeError, OnBoundaryError,
                     PropagatorOverflowError, TrackingAmbiguityError)
from .model import (Boundary, DisorderConfig, DisorderTarget, LatticeParams,
                    build_bloch, build_real_space, chiral_residual, pt_residual)
from .spectra import (ChainSingularValues, EdgeProfile, GapReport, SpectralReport,
                      ZeroModeInfo, bloch_eigensystem, chain, chain_singular_values,
                      chain_norm, chain_spectrum, edge_profile, gap_report,
                      geometric_multiplicity, smallest_singular_values,
                      spectral_report, zero_mode_analysis)
from .topology import (TrackedBand, WindingResult, band_coefficients,
                       count_enclosed_eps, track_band, winding_number)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
