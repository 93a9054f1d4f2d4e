"""ssrmlab: a Monte Carlo laboratory for sparse symmetric random-matrix
invertibility.

Ensembles and reproducible streams live in :mod:`ssrmlab.ensemble`;
spectra and norm experiments in :mod:`ssrmlab.spectra`; vector structure
and LCD search in :mod:`ssrmlab.structure`; concentration estimators in
:mod:`ssrmlab.smallball`; distance identities and inverse-based
experiments in :mod:`ssrmlab.inverse_geometry`; sweeps, config files and
CSV emission in :mod:`ssrmlab.harness`.
"""

from .ensemble import (
    EnsembleParams,
    EntryDistribution,
    RngStream,
    SparseSymmetricMatrix,
    sample_matrix,
    sample_sparse_vector,
)
from .errors import CapabilityError, ConfigError, NumericalError, ParameterError
from .harness import ExperimentConfig, TailEstimate, exponent_fit, run, tail_sweep
from .smallball import ConcentrationEstimate, levy_concentration_scalar, levy_concentration_vector
from .spectra import (
    MaskProfile,
    SpectralSummary,
    bvh_bound,
    full_symmetric_spectrum,
    operator_norm_event,
    smallest_singular_value,
    spectral_norm,
)
from .structure import (
    LcdResult,
    RegularizedLcdResult,
    StructureConstants,
    StructureReport,
    lcd,
    regularized_lcd,
    spread_set,
)

__version__ = "0.3.0"

__all__ = [
    "CapabilityError",
    "ConcentrationEstimate",
    "ConfigError",
    "EnsembleParams",
    "EntryDistribution",
    "ExperimentConfig",
    "LcdResult",
    "MaskProfile",
    "NumericalError",
    "ParameterError",
    "RegularizedLcdResult",
    "RngStream",
    "SparseSymmetricMatrix",
    "SpectralSummary",
    "StructureConstants",
    "StructureReport",
    "TailEstimate",
    "bvh_bound",
    "exponent_fit",
    "full_symmetric_spectrum",
    "lcd",
    "levy_concentration_scalar",
    "levy_concentration_vector",
    "operator_norm_event",
    "regularized_lcd",
    "run",
    "sample_matrix",
    "sample_sparse_vector",
    "smallest_singular_value",
    "spectral_norm",
    "spread_set",
    "tail_sweep",
]
