"""Spatial channel correlation surrogate modeling for dense port arrays.

Exact sinc-correlated Gaussian channels, an AR(p) generative surrogate
fitted by correlation matching, selection-gain statistics via a particle
evaluator, and sparse-port reconstruction by dense conditioning or a
linear-time Kalman smoother.
"""

from .arfit import (
    ArpModel,
    OrderSelectionResult,
    StabilityReport,
    arp_induced_covariance,
    check_stability,
    fit_clarke_model,
    select_order,
    unit_noise_gain,
)
from .correlation import (
    ClarkeModel,
    EigenSpectrum,
    ToeplitzCovariance,
    build_covariance,
    clarke_autocorrelation,
    eigen_spectrum,
    sample_exact,
)
from .errors import FitError, NumericalError, UnstableModelError
from .generator import SimulationConfig, simulate_batch
from .interpolation import (
    ObservationSet,
    ReconstructionResult,
    dense_mmse,
    empirical_min_observations,
    kalman_smooth,
    max_gap,
    min_observations_bound,
    nmse,
    port_select,
    trial_patterns,
)
from .selection_gain import (
    CdfCurve,
    empirical_cdf_max_gain,
    smc_cdf,
    systematic_resample,
)
from .stats import isotonic_non_decreasing, ks_distance, max_gain

__version__ = "0.1.0"
