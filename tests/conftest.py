"""Import gibbslab before any test module loads numpy or scipy.linalg, so
its BLAS thread pin holds for every subset of the suite pytest collects."""

import gibbslab  # noqa: F401
