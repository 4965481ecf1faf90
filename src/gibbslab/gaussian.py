"""Sampling of the cylindrical Gaussian measure with covariance h^-1.

Mode j of a sample is an independent complex Gaussian with mean zero and
E|alpha_j|^2 = 1/lambda_j.  Sample i is drawn from its own Philox4x64-10
stream (Salmon et al., SC'11) with key words [i, seed], 0 <= seed < 2**64,
so it does not depend on n.  The stream's 64-bit words are the four output
words of counter 1, then those of counter 2, and so on; numpy's 256-layer
ziggurat turns them into the sample's 2K standard normals, the real parts
of its K modes and then the imaginary parts.  That is numpy's
Generator(Philox(key=(seed << 64) | i)).standard_normal((2, K)), bit for bit.

Philox is counter-based, so for K <= 12 (2K normals from at most 6
counters) a whole block of samples is drawn at once: every sample's words
in numpy uint64 arithmetic, then the ziggurat's fast path, which takes a
word iff its 52-bit magnitude is below the layer's bound.  About 1.5% of
words miss it, so about 11% of samples at K = 4 and 30% at K = 12; such a
sample is drawn again whole by numpy's own Philox, reset to the sample's
key.  Larger K, such as the 2D study's 32 and 64, draws every sample that
way.  numpy.random and the ziggurat tables load with this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress

import numpy as np
from numpy.random import Generator, Philox

from ._ziggurat import KI, WI
from .config import ConfigurationError
from .spectral import OneBodyOperator

# Samples drawn per block, and per batch of interaction energies.
_SAMPLE_CHUNK = 1024
# Largest cutoff whose blocks are drawn at once, 2K normals in 6 Philox
# counters: past it the per-sample draws are as fast.
_BLOCK_MAX_K = 12
# Philox4x64-10 round multipliers and Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _u64(value: int) -> np.ndarray:
    """value mod 2**64 as a 0-d uint64 array, numpy's cheapest ufunc operand."""
    return np.array(value & (2**64 - 1), dtype=np.uint64)


_LOW32, _SHIFT32 = _u64(0xFFFFFFFF), _u64(32)


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


def _mulhilo(x: np.ndarray, mult: tuple[np.ndarray, ...], lo: np.ndarray,
             a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Set x and lo to the high and low words of the 128-bit products x * m.

    mult is (m, m >> 32, m & 0xFFFFFFFF) as _u64's.  The low word is the
    wrapping product; the high word is summed from 32-bit halves, and no
    partial sum reaches 2**64.  a, b and c are scratch.
    """
    m, mh, ml = mult
    np.multiply(x, m, out=lo)
    np.bitwise_and(x, _LOW32, out=a)
    x >>= _SHIFT32
    np.multiply(a, ml, out=b)
    b >>= _SHIFT32
    np.multiply(x, ml, out=c)
    c += b  # xh ml + (xl ml >> 32)
    a *= mh
    np.bitwise_and(c, _LOW32, out=b)
    a += b  # xl mh + (c & 0xFFFFFFFF)
    x *= mh
    c >>= _SHIFT32
    x += c
    a >>= _SHIFT32
    x += a


class _BlockDraws:
    """Fast-path normals of whole blocks of samples, for K <= _BLOCK_MAX_K.

    Holds eight (m, C) uint64 arrays of workspace, for blocks of up to m
    samples of C Philox counters each; the seed's round constants as
    _u64's; and the ziggurat tables indexed by a word's low 9 bits, the
    layer and the sign at bit 8.
    """

    def __init__(self, m: int, counters: int, seed: int):
        self.work = np.empty((8, m, counters), dtype=np.uint64)
        # round r's key is [i + r W0, seed + r W1]; i's part is added per block
        self.keys = [(_u64(r * _PHILOX_W[0]), _u64(seed + r * _PHILOX_W[1]))
                     for r in range(10)]
        self.mult = [(_u64(mul), _u64(mul >> 32), _u64(mul & 0xFFFFFFFF))
                     for mul in _PHILOX_M]
        self.ki = np.concatenate([KI, KI])
        self.wi = np.concatenate([WI, -WI])

    def philox(self, first: int, m: int) -> tuple[np.ndarray, ...]:
        """Philox4x64-10 output of counters 1..C under keys [first + j, seed].

        Returns the four output words, (m, C) arrays in the workspace: word
        w of counter c of sample first + j is at [j, c - 1] of the w-th.
        """
        x0, x1, x2, x3, spare, a, b, c = self.work[:, :m]
        i = np.arange(first, first + m, dtype=np.uint64)[:, None]
        x0[...] = np.arange(1, x0.shape[1] + 1, dtype=np.uint64)
        x1[...] = x2[...] = x3[...] = 0
        # a round maps [x0, x1, x2, x3] to
        # [hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)]
        for k0, k1 in self.keys:
            _mulhilo(x0, self.mult[0], spare, a, b, c)
            x0 ^= x3
            x0 ^= k1
            _mulhilo(x2, self.mult[1], x3, a, b, c)
            x2 ^= x1
            a[...] = i  # as a broadcast operand of the xor, i would be buffered
            a += k0
            x2 ^= a
            x0, x1, x2, x3, spare = x2, x3, x0, spare, x1
        return x0, x1, x2, x3

    def draw(self, out: np.ndarray, used: int, first: int) -> list[int]:
        """Fill out (m, 4C) with the fast-path normals of samples first + j.

        Row j holds the normals of the sample's 4C stream words in order, of
        which the first `used` are wanted.  Returns the rows j with a wanted
        word off the ziggurat's fast path; their normals, and those after
        them in the stream, are left to draw again.
        """
        m, width = out.shape
        words = out.view(np.uint64)
        for k, x in enumerate(self.philox(first, m)):
            words.reshape(m, -1, 4)[:, :, k] = x
        layer, bound = self.work.reshape(2, -1)[:, :m * width].reshape(2, m, width)
        np.bitwise_and(words, 0x1FF, out=layer)
        layer = layer.view(np.int64)
        words >>= 9
        words &= (1 << 52) - 1
        np.take(self.ki, layer, out=bound, mode="clip")
        miss = (words[:, :used] >= bound[:, :used]).any(axis=1)
        np.take(self.wi, layer, out=bound.view(np.float64), mode="clip")
        # cast apart from out, which words alias: numpy would copy them first
        rabs = layer.view(np.float64)
        rabs[...] = words
        np.multiply(rabs, bound.view(np.float64), out=out)
        return list(compress(range(m), miss.tolist()))


def sample_gaussian(op: OneBodyOperator, K: int, n: int, seed: int) -> Ensemble:
    """Draw n independent samples of the first K modes.

    Sample i is scale * (z[0] + 1j z[1]), z = standard_normal((2, K)) drawn
    from the Philox4x64-10 stream of key words [i, seed] and counters 1, 2,
    ... (numpy's Philox(key=(seed << 64) | i)), for 0 <= seed < 2**64.  For
    K <= _BLOCK_MAX_K each block of _SAMPLE_CHUNK samples is drawn at once
    by _BlockDraws; a sample it leaves, and every sample for larger K, is
    drawn by one numpy Philox reset to key words [i, seed], counter 0 and an
    empty buffer.
    """
    lam, _ = op.modes(K)
    if np.any(lam <= 0):
        raise ConfigurationError("Gaussian measure needs a positive operator; shift first")
    scale = 1.0 / np.sqrt(2.0 * lam)
    coeffs = np.empty((n, K), dtype=complex)
    # raises ValueError, before any draw, for a seed outside 0..2**64-1
    bits = Philox(key=int(seed) << 64)
    rng = Generator(bits)
    # plain-int lists: the state setter reads them faster than numpy arrays
    key = [0, int(seed)]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    m, counters = min(n, _SAMPLE_CHUNK), (2 * K + 3) // 4
    buf = np.empty((m, 4 * counters))
    blocks = _BlockDraws(m, counters, int(seed)) if K <= _BLOCK_MAX_K else None
    for lo in range(0, n, _SAMPLE_CHUNK):
        block = buf[:n - lo, :2 * K].reshape(-1, 2, K)
        redo = blocks.draw(buf[:n - lo], 2 * K, lo) if blocks else range(len(block))
        for j in redo:
            key[0] = lo + j
            bits.state = state
            rng.standard_normal(out=block[j])
        coeffs[lo:lo + len(block)] = scale * (block[:, 0] + 1j * block[:, 1])
    return Ensemble(operator_hash=op.content_hash(), cutoff=K,
                    coefficients=coeffs, weights=np.ones(n), seed=int(seed))
