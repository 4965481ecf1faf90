"""Numerical laboratory for Gibbs states of trapped Bose gases.

Builds the one-body Schroedinger operator on a grid, samples the Gaussian
free-field measure with covariance h^-1, evaluates bare and Wick-renormalized
interaction functionals, constructs grand-canonical Gibbs states on a
truncated Fock space, and runs the self-consistent reduced-Hartree
counterterm scheme.  Results are deterministic given a seed while the BLAS
of numpy and of scipy runs on one thread, which importing gibbslab before
either arranges.
"""

import os
import sys
import warnings

# Pin BLAS to one thread unless the user says otherwise: results must be
# bit-identical regardless of how many scheduler threads the CLI uses, and
# the desk-scale matrices here rarely benefit from threaded BLAS anyway.
# OpenBLAS reads the pin only when numpy, or scipy.linalg, loads its copy,
# so warn if either has.
_early = [name for name in ("numpy", "scipy.linalg") if name in sys.modules]
if _early and "OPENBLAS_NUM_THREADS" not in os.environ:
    warnings.warn(f"{' and '.join(_early)} imported before gibbslab: BLAS is not "
                  "pinned to one thread and seeded results may differ", RuntimeWarning)
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
