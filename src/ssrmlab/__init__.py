"""ssrmlab: a Monte Carlo laboratory for sparse symmetric random-matrix
invertibility.

Ensembles and reproducible streams live in :mod:`ssrmlab.ensemble`;
spectra and norm experiments in :mod:`ssrmlab.spectra`; vector structure
and LCD search in :mod:`ssrmlab.structure`; concentration estimators in
:mod:`ssrmlab.smallball`; distance identities and inverse-based
experiments in :mod:`ssrmlab.inverse_geometry`; sweeps, config files and
CSV emission in :mod:`ssrmlab.harness`.

The names below are imported from their submodules on first access
(PEP 562), so ``import ssrmlab`` loads no submodule and a CLI process
loads scipy only when its subcommand runs a LAPACK kernel.
"""

import importlib

__version__ = "0.4.0"

# Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "EnsembleParams": "ensemble",
    "EntryDistribution": "ensemble",
    "RngStream": "ensemble",
    "SparseSymmetricMatrix": "ensemble",
    "sample_matrix": "ensemble",
    "sample_sparse_vector": "ensemble",
    "CapabilityError": "errors",
    "ConfigError": "errors",
    "NumericalError": "errors",
    "ParameterError": "errors",
    "ExperimentConfig": "harness",
    "TailEstimate": "harness",
    "exponent_fit": "harness",
    "run": "harness",
    "tail_sweep": "harness",
    "ConcentrationEstimate": "smallball",
    "levy_concentration_scalar": "smallball",
    "levy_concentration_vector": "smallball",
    "MaskProfile": "spectra",
    "SpectralSummary": "spectra",
    "bvh_bound": "spectra",
    "full_symmetric_spectrum": "spectra",
    "operator_norm_event": "spectra",
    "smallest_singular_value": "spectra",
    "spectral_norm": "spectra",
    "LcdResult": "structure",
    "RegularizedLcdResult": "structure",
    "StructureConstants": "structure",
    "StructureReport": "structure",
    "lcd": "structure",
    "regularized_lcd": "structure",
    "spread_set": "structure",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
