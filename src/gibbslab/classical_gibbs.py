"""Interacting classical measure by importance reweighting of Gaussian ensembles.

The interacting measure is z_r^-1 exp(-D[u]) d(free measure); with a
positive-transform potential D >= 0, so weights live in (0, 1] and plain
importance sampling from the free measure is exact.  Everything is reported
with effective-sample-size diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import MAX_DENSE_MODES, ConfigurationError
from .fock_quantum import ORDERS, symmetric_basis
from .gaussian import Ensemble
from .interaction import PairTensor, batch_interactions
from .spectral import OneBodyOperator

ESS_FLOOR_FRACTION = 0.05


class LowEffectiveSampleSize(UserWarning):
    pass


def effective_sample_size(weights: np.ndarray) -> float:
    s = weights.sum()
    return float(s * s / np.square(weights).sum())


def reweight(ensemble: Ensemble, op: OneBodyOperator, tensor: PairTensor,
             renormalized: bool) -> Ensemble:
    """Attach weights exp(-D[u]) for the bare or renormalized interaction."""
    D = batch_interactions(ensemble, op, tensor, renormalized)
    out = ensemble.with_weights(np.exp(-D))
    ess = effective_sample_size(out.weights)
    if ess < ESS_FLOOR_FRACTION * out.size:
        warnings.warn(
            f"effective sample size {ess:.1f} below {ESS_FLOOR_FRACTION:.0%} of n={out.size}; "
            "results are low-confidence", LowEffectiveSampleSize)
    return out


@dataclass(frozen=True)
class PartitionEstimate:
    neg_log_zr: float
    stderr: float
    ess: float
    low_confidence: bool


def estimate_log_zr(ensemble: Ensemble) -> PartitionEstimate:
    """-log of the mean weight with a delta-method standard error."""
    w = ensemble.weights
    n = len(w)
    mean = float(w.mean())
    if mean <= 0:
        raise ArithmeticError("all weights vanished")
    stderr = float(w.std(ddof=1) / (np.sqrt(n) * mean)) if n > 1 else np.inf
    ess = effective_sample_size(w)
    return PartitionEstimate(neg_log_zr=-np.log(mean), stderr=stderr, ess=ess,
                             low_confidence=ess < ESS_FLOOR_FRACTION * n)


@dataclass(frozen=True)
class ReducedMoment:
    """Weighted moment matrix int |u^(k)><u^(k)| dmu in the symmetric basis.

    Entry (s, t) = c_s c_t E[alpha_s conj(alpha_t)] for the tuples and
    weights of fock_quantum.symmetric_basis, alpha_s the product of the
    tuple's mode coefficients: at order 1, (i, j) = E[alpha_i conj(alpha_j)].
    """

    matrix: np.ndarray
    stderr: np.ndarray


def _weighted_moment(features: np.ndarray, weights: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """M and its ratio-estimator stderr sqrt(sum_s w_s^2 |f_i f_j* - M_ij|^2) / sum w,
    expanded into three GEMMs (the real one first, so its temporaries go
    before the complex ones) with roundoff below zero clipped.  The complex
    ones share one conjugate and one weighted buffer: a second buffer raised
    study-1d's peak RSS by 12 MB."""
    wsum = weights.sum()
    w2 = weights**2
    abs2 = np.abs(features) ** 2
    acc = (abs2.T * w2) @ abs2
    del abs2
    conj = features.conj()
    scaled = features.T * weights
    M = scaled @ conj / wsum
    M = 0.5 * (M + M.conj().T)
    np.multiply(features.T, w2, out=scaled)
    acc -= 2.0 * np.real(M.conj() * (scaled @ conj))
    acc += np.abs(M) ** 2 * w2.sum()
    se = np.sqrt(np.clip(acc, 0.0, None)) / wsum
    return M, se


def reduced_moment(ensemble: Ensemble, order: int) -> ReducedMoment:
    if order not in ORDERS:
        raise ConfigurationError("moment order must be 1 or 2")
    if order == 2 and ensemble.cutoff > MAX_DENSE_MODES:
        raise ConfigurationError(
            f"order-2 moments capped at K={MAX_DENSE_MODES} modes")
    a = ensemble.coefficients
    tuples, weights = symmetric_basis(ensemble.cutoff, order)
    feats = np.empty((ensemble.size, len(tuples)), dtype=complex)
    for col, t in enumerate(tuples):
        feats[:, col] = weights[col] * a[:, t[0]]
        for i in t[1:]:
            feats[:, col] *= a[:, i]
    M, se = _weighted_moment(feats, ensemble.weights)
    return ReducedMoment(matrix=M, stderr=se)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute eigenvalues of the Hermitian difference."""
    diff = np.asarray(a) - np.asarray(b)
    if diff.shape[0] != diff.shape[1]:
        raise ConfigurationError("trace distance needs square matrices")
    herm = 0.5 * (diff + diff.conj().T)
    if not np.allclose(diff, herm, atol=1e-8 * max(1.0, np.abs(diff).max())):
        raise ConfigurationError("trace distance defined for Hermitian difference")
    return float(np.abs(np.linalg.eigvalsh(herm)).sum())
