"""Interacting classical measure by importance reweighting of Gaussian ensembles.

The measure z_r^-1 exp(-D[u]) d(free measure) is sampled exactly by weighting
free samples by exp(-D), stored as exp(-(D - min D)) with min D as the
ensemble's energy_floor, and reported with effective-sample-size diagnostics.
Moments stream over sample blocks, their memory independent of the sample count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import MAX_DENSE_MODES, ConfigurationError
from .fock_quantum import ORDERS, symmetric_basis
from .gaussian import _SAMPLE_CHUNK, Ensemble
from .interaction import PairTensor, batch_interactions
from .spectral import OneBodyOperator

ESS_FLOOR_FRACTION = 0.05


class LowEffectiveSampleSize(UserWarning):
    pass


def effective_sample_size(weights: np.ndarray) -> float:
    s = weights.sum()
    return float(s * s / (weights @ weights))


def _weigh_in_place(ensemble: Ensemble, energies: np.ndarray) -> Ensemble:
    """weigh, writing the weights over energies, a float array the caller gives up."""
    floor = float(np.min(energies))
    if not np.isfinite(floor):
        raise ArithmeticError(f"lowest interaction energy is {floor}")
    np.subtract(floor, energies, out=energies)
    return ensemble.with_weights(np.exp(energies, out=energies), floor)


def weigh(ensemble: Ensemble, energies: np.ndarray) -> Ensemble:
    """exp(-D) as exp(-(D - min D)), energy_floor min D; ArithmeticError unless min D is finite.

    energies is left as it is."""
    return _weigh_in_place(ensemble, np.array(energies, dtype=float))


def reweight(ensemble: Ensemble, op: OneBodyOperator, tensor: PairTensor,
             renormalized: bool) -> Ensemble:
    """Attach weights exp(-D[u]) for the bare or renormalized interaction.

    The weights are written over the energies, so the call holds one
    (n,) array beyond the ensemble."""
    out = _weigh_in_place(ensemble, batch_interactions(ensemble, op, tensor, renormalized))
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
    """-log z_r = energy_floor - log mean w, delta-method stderr; stderr and ESS are scale-free."""
    w = ensemble.weights
    n = len(w)
    mean = float(w.mean())
    if mean <= 0:
        raise ArithmeticError("all weights vanished")
    stderr = float(w.std(ddof=1) / (np.sqrt(n) * mean)) if n > 1 else np.inf
    ess = effective_sample_size(w)
    return PartitionEstimate(neg_log_zr=ensemble.energy_floor - np.log(mean), stderr=stderr,
                             ess=ess, low_confidence=ess < ESS_FLOOR_FRACTION * n)


@dataclass(frozen=True)
class ReducedMoment:
    """Weighted moment matrix int |u^(k)><u^(k)| dmu in the symmetric basis.

    Entry (s, t) = c_s c_t E[alpha_s conj(alpha_t)] for the tuples and
    weights of fock_quantum.symmetric_basis, alpha_s the product of the
    tuple's mode coefficients: at order 1, (i, j) = E[alpha_i conj(alpha_j)].
    """

    matrix: np.ndarray
    stderr: np.ndarray


def reduced_moment(ensemble: Ensemble, order: int) -> ReducedMoment:
    """One pass over blocks of _SAMPLE_CHUNK samples in O(_SAMPLE_CHUNK P) memory.

    The (chunk, P) features f_s = (c_t alpha_t)_t of a block add to sum w f f^H,
    sum w^2 f f^H and sum w^2 |f|^2 |f|^T.  The stderr sqrt(sum w^2 |f f^H - M|^2)
    / sum w is their expansion, roundoff below zero clipped."""
    if order not in ORDERS:
        raise ConfigurationError("moment order must be 1 or 2")
    if order == 2 and ensemble.cutoff > MAX_DENSE_MODES:
        raise ConfigurationError(
            f"order-2 moments capped at K={MAX_DENSE_MODES} modes")
    tuples, c = symmetric_basis(ensemble.cutoff, order)
    modes = np.array(tuples).T
    wff, w2ff = np.zeros((2, len(c), len(c)), dtype=complex)
    w2aa = np.zeros((len(c), len(c)))
    for lo in range(0, ensemble.size, _SAMPLE_CHUNK):
        a = ensemble.coefficients[lo:lo + _SAMPLE_CHUNK]
        w = ensemble.weights[lo:lo + _SAMPLE_CHUNK]
        f = c * a.take(modes[0], axis=1)
        for m in modes[1:]:
            f *= a[:, m]
        abs2 = np.abs(f) ** 2
        w2aa += (abs2.T * w**2) @ abs2
        conj = f.conj()
        scaled = f.T * w
        wff += scaled @ conj
        np.multiply(f.T, w**2, out=scaled)
        w2ff += scaled @ conj
    wsum = ensemble.weights.sum()
    M = wff / wsum
    M = 0.5 * (M + M.conj().T)
    acc = w2aa - 2.0 * np.real(M.conj() * w2ff)
    acc += np.abs(M) ** 2 * (ensemble.weights @ ensemble.weights)
    return ReducedMoment(matrix=M, stderr=np.sqrt(np.clip(acc, 0.0, None)) / wsum)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute eigenvalues of the Hermitian difference."""
    diff = np.asarray(a) - np.asarray(b)
    if diff.shape[0] != diff.shape[1]:
        raise ConfigurationError("trace distance needs square matrices")
    herm = 0.5 * (diff + diff.conj().T)
    if not np.allclose(diff, herm, atol=1e-8 * max(1.0, np.abs(diff).max())):
        raise ConfigurationError("trace distance defined for Hermitian difference")
    return float(np.abs(np.linalg.eigvalsh(herm)).sum())
