"""Sampling of the cylindrical Gaussian measure with covariance h^-1.

Mode j of a sample is an independent complex Gaussian with mean zero and
E|alpha_j|^2 = 1/lambda_j.  Sample i is drawn from the Philox stream with key
words [i, seed] and counter 0 (0 <= seed < 2**64), so it does not depend on n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigurationError
from .spectral import OneBodyOperator

# Samples drawn per block, and per batch of interaction energies.
_SAMPLE_CHUNK = 1024


@dataclass(frozen=True)
class Ensemble:
    """Ordered collection of field samples sharing one mode cutoff.

    coefficients is (n, K) complex; weights is (n,), exp(energy_floor) times
    the importance weights.  operator_hash names the covariance's operator.
    """

    operator_hash: str
    cutoff: int
    coefficients: np.ndarray
    weights: np.ndarray
    seed: int
    energy_floor: float = 0.0

    def __post_init__(self):
        self.coefficients.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.coefficients.shape[0]

    def with_weights(self, weights: np.ndarray, energy_floor: float = 0.0) -> "Ensemble":
        w = np.ascontiguousarray(weights, dtype=float)
        if w.shape != (self.size,):
            raise ValueError("weight array has wrong length")
        return replace(self, weights=w, energy_floor=energy_floor)

    def truncated(self, K: int) -> "Ensemble":
        """Contiguous copy of the first K modes (weights reset to one)."""
        if not 1 <= K <= self.cutoff:
            raise ValueError(f"cutoff {K} is outside 1..{self.cutoff}")
        return Ensemble(operator_hash=self.operator_hash, cutoff=K,
                        coefficients=np.ascontiguousarray(self.coefficients[:, :K]),
                        weights=np.ones(self.size), seed=self.seed)


def sample_gaussian(op: OneBodyOperator, K: int, n: int, seed: int) -> Ensemble:
    """Draw n independent samples of the first K modes.

    Sample i is scale * (z[0] + 1j z[1]), z = standard_normal((2, K)), from one
    Philox reset to key words [i, seed], counter 0 and an empty buffer: the
    stream of Philox(key=(seed << 64) | i), for 0 <= seed < 2**64.
    """
    lam, _ = op.modes(K)
    if np.any(lam <= 0):
        raise ConfigurationError("Gaussian measure needs a positive operator; shift first")
    scale = 1.0 / np.sqrt(2.0 * lam)
    coeffs = np.empty((n, K), dtype=complex)
    bits = np.random.Philox(key=int(seed) << 64)
    rng = np.random.Generator(bits)
    # plain-int lists: the state setter reads them faster than numpy arrays
    key = [0, int(seed)]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    buf = np.empty((min(n, _SAMPLE_CHUNK), 2, K))
    for lo in range(0, n, _SAMPLE_CHUNK):
        block = buf[:n - lo]
        for j, z in enumerate(block):
            key[0] = lo + j
            bits.state = state
            rng.standard_normal(out=z)
        coeffs[lo:lo + len(block)] = scale * (block[:, 0] + 1j * block[:, 1])
    return Ensemble(operator_hash=op.content_hash(), cutoff=K,
                    coefficients=coeffs, weights=np.ones(n), seed=int(seed))
