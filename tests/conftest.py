"""Import gibbslab before any test module loads numpy or scipy.linalg, so
its BLAS thread pin holds for every subset of the suite pytest collects.

Every property test draws the same examples on every run: the profile
derives them from each test's source and keeps no example database."""

import gibbslab  # noqa: F401
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
