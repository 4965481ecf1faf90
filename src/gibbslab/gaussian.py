"""Sampling of the cylindrical Gaussian measure with covariance h^-1.

Mode j of a sample is an independent complex Gaussian with mean zero and
E|alpha_j|^2 = 1/lambda_j.  Sample i is drawn from its own Philox4x64-10
stream (Salmon et al., SC'11) with key words [i, seed], 0 <= seed < 2**64,
so it does not depend on n.  The stream's 64-bit words are the four output
words of counter 1, then those of counter 2, and so on; numpy's 256-layer
ziggurat turns them into the sample's 2K standard normals, the real parts
of its K modes and then the imaginary parts.  That is numpy's
Generator(Philox(key=(seed << 64) | i)).standard_normal((2, K)), bit for bit.

Philox is counter-based, so for K <= 18 (2K normals from at most 9
counters) whole blocks of samples are drawn at once: every sample's words
in numpy uint64 arithmetic, then the ziggurat's fast path, which takes a
word iff its 52-bit magnitude is below the layer's bound.  About 1.5% of
words miss it, so about 11% of samples at K = 4 and 42% at K = 18.  The raw
words of those samples are kept, batched across blocks, and joined by the
words of two more counters computed for them alone; numpy's rejection loop
is then replayed on them for the whole batch at once: the wedge test of
layers 1..255 with libm's exp, and the tail loop of layer 0 with libm's
log1p.  Only a sample whose loop reads past those words (none of study-1d's
200000 at K = 4, about 55 in a million at K = 18) is drawn again whole by
numpy's own Philox, reset to the sample's key.  Larger K, such as the 2D
study's 32 and 64, draws every sample that way.  numpy.random and the
ziggurat tables load with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from ._ziggurat import FI, KI, WI
from .config import MAX_DENSE_BYTES, ConfigurationError
from .spectral import OneBodyOperator

# Samples per block of draws (four per block for K <= _BLOCK_MAX_K), and per
# batch of interaction energies and classical moments.
_SAMPLE_CHUNK = 1024
# Largest cutoff whose blocks are drawn at once, 2K normals in 9 Philox
# counters: at 20000 samples the block path is the faster up to K = 18 and
# the slower from K = 19 or 20 on.  Larger K, such as the 2D study's 32 and
# 64, is drawn one sample at a time.
_BLOCK_MAX_K = 18
# Philox4x64-10 round multipliers and Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# Philox counters computed past a sample's own C when the fast path misses
# it, at most C: its rejection loop reads past their words for about 10 in a
# million samples at K = 12 and 55 at K = 18.  replay's int8 word positions
# hold the 4 (C + 2) words of up to C = 29 counters, K = 58.
_EXTRA_COUNTERS = 2
# The ziggurat's layer-0 edge r and 1/r, and FI[idx-1] - FI[idx] at idx.
_ZIG_R, _ZIG_INV_R = 3.6541528853610087963519472518, 0.27366123732975827203338247596
_FI_STEP = np.concatenate([[0.0], FI[:-1] - FI[1:]])


def _u64(value: int) -> np.ndarray:
    """value mod 2**64 as a 0-d uint64 array, numpy's cheapest ufunc operand."""
    return np.array(value & (2**64 - 1), dtype=np.uint64)


_LOW32, _SHIFT32 = _u64(0xFFFFFFFF), _u64(32)


@dataclass(frozen=True)
class Ensemble:
    """Ordered collection of field samples sharing one mode cutoff.

    coefficients is (n, K) complex; weights is (n,), exp(energy_floor) times
    the importance weights.
    """

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

    @property
    def cutoff(self) -> int:
        return self.coefficients.shape[1]

    def with_weights(self, weights: np.ndarray, energy_floor: float = 0.0) -> "Ensemble":
        w = np.ascontiguousarray(weights, dtype=float)
        if w.shape != (self.size,):
            raise ValueError("weight array has wrong length")
        return replace(self, weights=w, energy_floor=energy_floor)

    def truncated(self, K: int) -> "Ensemble":
        """Contiguous copy of the first K modes (weights reset to one)."""
        if not 1 <= K <= self.cutoff:
            raise ValueError(f"cutoff {K} is outside 1..{self.cutoff}")
        return Ensemble(coefficients=np.ascontiguousarray(self.coefficients[:, :K]),
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


def _tail(stream: list[int], q: int) -> tuple[float, int] | None:
    """numpy's layer-0 tail loop for the word at q of a stream of words.

    Pairs of words from q + 1 on give xx = -log(1 - u1) / r and
    yy = -log(1 - u2) until yy + yy > xx * xx, with libm's log1p as in numpy.
    Returns the normal +-(r + xx), its sign at bit 17 of the word at q, and
    the position after the last pair; None when the stream runs out first.
    """
    for j in range(q + 1, len(stream) - 1, 2):
        xx = -_ZIG_INV_R * math.log1p(-((stream[j] >> 11) * 2.0**-53))
        yy = -math.log1p(-((stream[j + 1] >> 11) * 2.0**-53))
        if yy + yy > xx * xx:
            return (-(_ZIG_R + xx) if stream[q] >> 17 & 1 else _ZIG_R + xx), j + 2
    return None


class _Resets:
    """numpy's own Philox and Generator, reset to one sample's stream per draw."""

    def __init__(self, seed: int):
        # raises ValueError, before any draw, for a seed outside 0..2**64-1
        self.bits = Philox(key=seed << 64)
        self.rng = Generator(self.bits)
        # plain-int lists: the state setter reads them faster than numpy arrays
        self.key = [0, seed]
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": self.key},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
                      "uinteger": 0}

    def draw(self, i: int, out: np.ndarray) -> np.ndarray:
        """Fill out with normals of sample i's stream, key words [i, seed]."""
        self.key[0] = i
        self.bits.state = self.state
        return self.rng.standard_normal(out=out)

    def normals(self, n: int, K: int):
        """Yield (rows, z): the samples of each block, z of shape (r, 2, K)."""
        buf = np.empty((min(n, _SAMPLE_CHUNK), 2, K))
        for lo in range(0, n, _SAMPLE_CHUNK):
            block = buf[:n - lo]
            for j in range(len(block)):
                self.draw(lo + j, block[j])
            yield slice(lo, lo + len(block)), block


class _BlockDraws:
    """Normals of whole blocks of samples, for K <= _BLOCK_MAX_K.

    Holds eight (C, m) uint64 arrays of workspace, for blocks of up to m
    samples of C Philox counters each; per counter, the constants that
    rounds 0 and 1 reduce to; the seed's later round keys as _u64's; and the
    ziggurat tables indexed by a word's low 9 bits, the layer and the sign
    at bit 8.  The raw words of the samples the fast path misses are piled
    and resolved in batches of half a block, which bounds the replay's
    (batch, 4 (C + extra)) arrays; the workspace holds a batch's extra
    counters.
    """

    def __init__(self, m: int, K: int, seed: int):
        self.need, counters = 2 * K, (2 * K + 3) // 4
        self.extra = min(_EXTRA_COUNTERS, counters)
        self.work = np.empty((8, counters, m), dtype=np.uint64)
        self.batch = (m + 1) // 2
        # round r's key is [i + r W0, seed + r W1]; i's part is added per block
        self.keys = [(_u64(r * _PHILOX_W[0]), _u64(seed + r * _PHILOX_W[1]))
                     for r in range(2, 10)]
        self.mult = [(_u64(mul), _u64(mul >> 32), _u64(mul & 0xFFFFFFFF))
                     for mul in _PHILOX_M]
        # counter [k, 0, 0, 0] leaves round 0 as [i, 0, hi(M0 k) ^ seed, lo(M0 k)]
        # and round 1 as [f0 ^ (i + W0), f1, hi(M0 i) ^ f2, lo(M0 i)]
        (m0, m1), mask = _PHILOX_M, 2**64 - 1
        folded = []
        for k in range(1, counters + self.extra + 1):
            x2 = (m0 * k >> 64) ^ seed
            folded.append((m1 * x2 >> 64, m1 * x2 & mask,
                           (m0 * k & mask) ^ ((seed + _PHILOX_W[1]) & mask)))
        self.folded = np.array(folded, dtype=np.uint64).T
        self.w0 = _u64(_PHILOX_W[0])
        self.ki = np.concatenate([KI, KI])
        self.wi = np.concatenate([WI, -WI])
        self.pile: list[tuple[np.ndarray, np.ndarray]] = []
        self.piled = 0

    def philox(self, i: np.ndarray, counters: slice) -> tuple[np.ndarray, ...]:
        """Philox4x64-10 output of the given counters under keys [i, seed].

        i is a (1, rows) uint64 array; counters is a slice of 0, 1, ... for
        counters 1, 2, ....  Returns the four output words, (width, rows)
        arrays in the workspace: word w of the c-th counter of sample i[0, j]
        is at [c, j] of the w-th.  Counter-major arrays make i and the
        per-counter constants broadcast along whole rows, which numpy does
        fast.
        """
        rows, width = i.shape[1], counters.stop - counters.start
        x0, x1, x2, x3, spare, a, b, c = \
            self.work.reshape(8, -1)[:, :rows * width].reshape(8, width, rows)
        f0, f1, f2 = self.folded[:, counters, None]
        hi, lo = a[:1], b[:1]
        hi[...] = i
        _mulhilo(hi, self.mult[0], lo, c[:1], x0[:1], x1[:1])
        np.bitwise_xor(hi, f2, out=x2)
        x3[...] = lo
        x1[...] = f1
        np.add(i, self.w0, out=hi)
        np.bitwise_xor(hi, f0, out=x0)
        # a round maps [x0, x1, x2, x3] to
        # [hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)]
        for k0, k1 in self.keys:
            _mulhilo(x0, self.mult[0], spare, a, b, c)
            x0 ^= x3
            x0 ^= k1
            _mulhilo(x2, self.mult[1], x3, a, b, c)
            x2 ^= x1
            np.add(i, k0, out=a)
            x2 ^= a
            x0, x1, x2, x3, spare = x2, x3, x0, spare, x1
        return x0, x1, x2, x3

    def draw(self, out: np.ndarray, first: int) -> np.ndarray:
        """Fill out (m, 4C) with the fast-path normals of samples first + j.

        Row j holds the normals of the sample's 4C stream words in order, of
        which the first 2K are wanted.  Returns the rows j with a wanted word
        off the ziggurat's fast path; their raw words go on the pile.
        """
        m, width = out.shape
        words = out.view(np.uint64)
        i = np.arange(first, first + m, dtype=np.uint64)[None]
        for k, x in enumerate(self.philox(i, slice(0, width // 4))):
            words.reshape(m, -1, 4)[:, :, k] = x.T
        rabs, bound = self.work.reshape(2, -1)[:, :m * width].reshape(2, m, width)
        np.bitwise_and(words, 0x1FF, out=rabs)
        np.take(self.ki, rabs.view(np.int64), out=bound, mode="clip")
        np.right_shift(words, 9, out=rabs)
        rabs &= (1 << 52) - 1
        # rows with a miss, from the sorted flat positions (faster than any(axis=1))
        missed = np.flatnonzero(rabs[:, :self.need] >= bound[:, :self.need]) // self.need
        missed = missed[np.diff(missed, prepend=-1) > 0]
        if missed.size:
            self.pile.append((i[0, missed], words[missed]))
            self.piled += missed.size
        layer = np.bitwise_and(words, 0x1FF, out=bound).view(np.int64)
        out[...] = rabs  # words are spent; the cast goes straight into out
        np.take(self.wi, layer, out=rabs.view(np.float64), mode="clip")
        out *= rabs.view(np.float64)
        return missed

    def replay(self, stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """numpy's standard normal loop on rows of stream words, vectorized.

        A word on the fast path gives its normal x.  A miss in layer
        idx >= 1 takes the next word as u and gives x iff
        (FI[idx-1] - FI[idx]) * u + FI[idx] < exp(-x * x / 2), with libm's
        exp; a miss in layer 0 runs the tail loop (_tail).  The rows are
        walked from miss to miss.  Returns the 2K normals of each row that
        gets them within its words, and a mask of those rows.
        """
        R, L = stream.shape
        # each word's normal x, and whether it is on the fast path (until it
        # is read as a u); 512 rows at a time keep the temporaries in cache
        value, emit = np.empty((R, L)), np.empty((R, L), dtype=bool)
        for r in range(0, R, 512):
            words = stream[r:r + 512]
            layer = (words & 0x1FF).view(np.int64)
            rabs = words >> 9
            rabs &= (1 << 52) - 1
            np.less(rabs, np.take(self.ki, layer), out=emit[r:r + 512])
            np.multiply(rabs, np.take(self.wi, layer), out=value[r:r + 512])
        # nxt[c, r]: the first miss at or after word c of row r, else L.  A
        # row only marks words before the next one it reads, so this stays
        # true while emit changes
        nxt = np.empty((L + 1, R), dtype=np.int8)
        nxt[L] = L
        np.copyto(nxt[:L], np.where(emit.T, np.int8(L), np.arange(L, dtype=np.int8)[:, None]))
        for c in range(L - 1, -1, -1):
            np.minimum(nxt[c], nxt[c + 1], out=nxt[c])
        end = np.zeros(R, dtype=np.int8)  # one past a finished row's last normal
        rows, p, e = np.arange(R), np.zeros(R, dtype=np.int8), np.zeros(R, dtype=np.intp)
        while rows.size:
            # p is the next word read as a draw and e the normals before it;
            # the words from p up to the next miss q are all normals
            q = nxt[p, rows]
            short = e + (q - p) < self.need
            fin = ~short
            end[rows[fin]] = p[fin] + (self.need - e[fin])
            short &= q + 1 < L  # no word after the miss: the row falls back
            rows, p, q, e = rows[short], p[short], q[short], e[short]
            e += q - p
            idx = stream[rows, q] & 0xFF
            u = (stream[rows, q + 1] >> 11) * 2.0**-53
            emit[rows, q + 1] = False
            x = value[rows, q]
            arg = -0.5 * x * x
            lhs = np.take(_FI_STEP, idx) * u + np.take(FI, idx)
            bound = np.exp(arg)
            accept = lhs < bound
            # numpy's loop calls libm's exp, from which np.exp may round an ulp
            # apart; an ulp of a value up to 1 is at most 2**-52
            for j in np.flatnonzero(np.abs(lhs - bound) < 2.0**-50):
                accept[j] = lhs[j] < math.exp(arg[j])
            p = q + 2
            live = np.ones(len(rows), dtype=bool)
            for j in np.flatnonzero(idx == 0):
                tail = _tail(stream[rows[j]].tolist(), int(q[j]))
                if tail is None:
                    live[j] = False
                else:
                    accept[j] = True
                    value[rows[j], q[j]], p[j] = tail
                    emit[rows[j], q[j] + 1:p[j]] = False
            emit[rows, q] = accept
            e += accept
            rows, p, e = rows[live], p[live], e[live]
        emit &= np.arange(L) < end[:, None]
        done = end > 0
        return value[emit].reshape(-1, self.need), done

    def resolve(self, resets: _Resets):
        """Finish a batch of piled samples, yielding (rows, z) as normals does.

        A sample's stream is its piled words and those of its next
        self.extra counters, computed for the batch only.  Samples whose
        draws run past them are drawn by resets.
        """
        C = self.work.shape[1]
        R = min(self.piled, self.batch)
        index = np.empty(R, dtype=np.uint64)
        stream = np.empty((R, 4 * (C + self.extra)), dtype=np.uint64)
        at = 0
        while at < R:
            i, words = self.pile[0]
            k = min(len(i), R - at)
            index[at:at + k], stream[at:at + k, :4 * C] = i[:k], words[:k]
            self.pile[0] = (i[k:], words[k:])
            if k == len(i):
                self.pile.pop(0)
            at += k
        self.piled -= R
        ahead = stream[:, 4 * C:].reshape(R, self.extra, 4)
        for k, x in enumerate(self.philox(index[None], slice(C, C + self.extra))):
            ahead[:, :, k] = x.T
        z, done = self.replay(stream)
        del stream  # not held while the caller copies z
        index = index.view(np.int64)
        yield index[done], z.reshape(len(z), 2, -1)
        one = np.empty((2, self.need // 2))
        for i in index[~done].tolist():
            yield slice(i, i + 1), resets.draw(i, one)[None]

    def normals(self, n: int, resets: _Resets):
        """Yield (rows, z) for samples 0..n-1, z of shape (r, 2, K).

        Each block's rows come first, with those the fast path missed left
        to a later (rows, z) from resolve.
        """
        C, m = self.work.shape[1:]
        out = np.empty((m, 4 * C))
        for lo in range(0, n, m):
            block = out[:n - lo]
            self.draw(block, lo)
            yield slice(lo, lo + len(block)), block[:, :self.need].reshape(len(block), 2, -1)
            while self.piled >= self.batch or self.piled and lo + m >= n:
                yield from self.resolve(resets)


def sample_gaussian(op: OneBodyOperator, K: int, n: int, seed: int) -> Ensemble:
    """Draw n independent samples of the first K modes.

    Sample i is scale * (z[0] + 1j z[1]), z = standard_normal((2, K)) drawn
    from the Philox4x64-10 stream of key words [i, seed] and counters 1, 2,
    ... (numpy's Philox(key=(seed << 64) | i)), for 0 <= seed < 2**64.  For
    K <= _BLOCK_MAX_K, _BlockDraws draws blocks of 4 * _SAMPLE_CHUNK samples:
    longer blocks spread each numpy call of its Philox rounds over more
    words.  A sample whose draws run past its words there, and every sample
    for larger K, is drawn by one numpy Philox reset to key words [i, seed],
    counter 0 and an empty buffer.  ConfigurationError, before anything is
    allocated, when the (n, K) complex coefficients would exceed
    MAX_DENSE_BYTES.
    """
    lam, _ = op.modes(K)
    if np.any(lam <= 0):
        raise ConfigurationError("Gaussian measure needs a positive operator; shift first")
    scale = 1.0 / np.sqrt(2.0 * lam)
    nbytes = 16 * n * K
    if nbytes > MAX_DENSE_BYTES:
        raise ConfigurationError(
            f"{n} samples of {K} modes need {nbytes} bytes of coefficients, "
            f"over the {MAX_DENSE_BYTES}-byte cap")
    coeffs = np.empty((n, K), dtype=complex)
    resets = _Resets(int(seed))
    if K <= _BLOCK_MAX_K:
        draws = _BlockDraws(max(1, min(n, 4 * _SAMPLE_CHUNK)), K, int(seed)).normals(n, resets)
    else:
        draws = resets.normals(n, K)
    for rows, z in draws:
        # scale * (z[:, 0] + 1j * z[:, 1]), formed in place
        block = isinstance(rows, slice)
        dest = coeffs[rows] if block else np.empty((len(z), K), dtype=complex)
        np.multiply(1j, z[:, 1], out=dest)
        np.add(z[:, 0], dest, out=dest)
        np.multiply(scale, dest, out=dest)
        if not block:
            coeffs[rows] = dest
    return Ensemble(coefficients=coeffs, weights=np.ones(n), seed=int(seed))
