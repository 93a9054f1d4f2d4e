"""ssrmlab: a Monte Carlo laboratory for sparse symmetric random-matrix
invertibility.

Entry laws and ensemble parameters live in :mod:`ssrmlab.model`;
sampling and reproducible streams in :mod:`ssrmlab.ensemble`; spectra
and norm experiments in :mod:`ssrmlab.spectra`; vector structure and LCD
search in :mod:`ssrmlab.structure`; concentration estimators in
:mod:`ssrmlab.smallball`; distance identities and inverse-based
experiments in :mod:`ssrmlab.inverse_geometry`; sweeps, config files and
CSV emission in :mod:`ssrmlab.harness`.  Import each name from the
module that defines it.

``import ssrmlab`` loads no submodule.  A CLI process loads numpy only
to draw or read numbers (not for ``--help``, a ``--dry-run`` or a config
error) and scipy only to run a LAPACK kernel, and then only scipy's two
compiled LAPACK and BLAS modules.

``__version__`` is the package's one version: ``pyproject.toml`` reads it,
and ``harness.ARTIFACT_VERSION`` is bound to it.
"""

__version__ = "0.10.0"
