"""Sampling of the cylindrical Gaussian measure with covariance h^-1.

Mode j of a sample is an independent complex Gaussian with mean zero and
E|alpha_j|^2 = 1/lambda_j.  Per-sample Philox streams keyed on
(seed, sample index) make generation order-independent and bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral import DomainError, OneBodyOperator


@dataclass(frozen=True)
class Ensemble:
    """Ordered collection of field samples sharing one mode cutoff.

    coefficients is (n, K) complex; weights is (n,).  operator_hash ties the
    ensemble to the operator whose spectrum defined the covariance.
    """

    operator_hash: str
    cutoff: int
    coefficients: np.ndarray
    weights: np.ndarray
    seed: int

    def __post_init__(self):
        self.coefficients.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.coefficients.shape[0]

    def with_weights(self, weights: np.ndarray) -> "Ensemble":
        w = np.ascontiguousarray(weights, dtype=float)
        if w.shape != (self.size,):
            raise ValueError("weight array has wrong length")
        return replace(self, weights=w)

    def truncated(self, K: int) -> "Ensemble":
        """View of the first K modes (weights reset to one)."""
        if K > self.cutoff:
            raise ValueError(f"cannot extend cutoff {self.cutoff} to {K}")
        return Ensemble(operator_hash=self.operator_hash, cutoff=K,
                        coefficients=np.ascontiguousarray(self.coefficients[:, :K]),
                        weights=np.ones(self.size), seed=self.seed)


def _mode_scales(op: OneBodyOperator, K: int) -> np.ndarray:
    lam = op.eigenvalues[:K]
    if np.any(lam <= 0):
        raise DomainError("Gaussian measure needs a positive operator; shift first")
    return 1.0 / np.sqrt(2.0 * lam)


def sample_gaussian(op: OneBodyOperator, K: int, n: int, seed: int) -> Ensemble:
    """Draw n independent samples of the first K modes.

    Stream i is Philox keyed by (seed, i), so any sub-range of samples can be
    regenerated independently and parallel generation cannot reorder draws.
    """
    if K < 1 or K > op.num_modes:
        raise DomainError(f"K={K} out of range (have {op.num_modes} modes)")
    scale = _mode_scales(op, K)
    coeffs = np.empty((n, K), dtype=complex)
    base = (int(seed) & 0xFFFFFFFFFFFFFFFF) << 64
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(key=base | i))
        z = rng.standard_normal((2, K))
        coeffs[i] = scale * (z[0] + 1j * z[1])
    return Ensemble(operator_hash=op.content_hash(), cutoff=K,
                    coefficients=coeffs, weights=np.ones(n), seed=int(seed))


def sobolev_norms_sq(ensemble: Ensemble, op: OneBodyOperator, t: float) -> np.ndarray:
    """sum_j lambda_j^t |alpha_j|^2 of every sample."""
    lam = op.eigenvalues[:ensemble.cutoff]
    return (np.abs(ensemble.coefficients) ** 2 * lam**t).sum(axis=1)


def fields_on_grid(ensemble: Ensemble, op: OneBodyOperator) -> np.ndarray:
    """(n, total_points) synthesis sum_j alpha_j u_j of every sample
    (weight-folded convention)."""
    U = op.eigenvectors[:, :ensemble.cutoff]
    return ensemble.coefficients @ U.T
