"""Pair interaction functionals on field samples.

Every interaction energy goes through one exact engine, the pair Gram
matrix Q[p, q] = <u_a u_b, w * u_c u_d> over unordered mode pairs: bare
sample energies are quadratic forms in Q, the Wick-renormalized ones add a
shift read off one product Qc (the mean-field potential in mode
coordinates), the exchange term is a weighted trace of its diagonal and the
Fock-space pair operator gathers its kernel from it.
When the modes carry reflection labels (spectral.mode_parity), Q vanishes
by symmetry between pairs of opposite pair parity p_a p_b, so it is built,
stored and applied one pair class at a time and those entries are exact
zeros.

Convolutions w * rho are linear (no wrap-around).  convolve runs them by
numpy's FFT on a zero-padded dual grid of 11-smooth side, transforming only
the rows that hold data, and is bit-identical to transforming the
zero-padded array.  When a 2D kernel is rank one (the Gaussian bump), the
Gram build and the streamed exchange term instead project each pair density
onto the eigenvectors of its two n x n Toeplitz tables, T = V diag(s) V^T,
keeping only the rx x ry coefficients above the tables' numerical rank (38
per axis for the shipped bump), and weigh them by sx (x) sy; this equals
the FFT up to roundoff.  Those eigenvectors have exact parities px, py
(spectral.reflection_eigh), so a density of parity p keeps only the
coefficients with px_i py_j = p, half of them.
Densities follow the weight-folded convention of the spectral module:
|stored field|^2 already carries the cell volume, so the quadrature of a
double integral is a plain dot product with the convolved density and the
kernel is sampled raw at grid offsets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_DENSE_BYTES, ConfigurationError
from .gaussian import _SAMPLE_CHUNK, Ensemble
from .spectral import (GridSpec, OneBodyOperator, green_diagonal, mode_parity,
                       reflection_eigh)

# The Gram build holds, against MAX_DENSE_BYTES, every class block, the H_c
# held columns of one class's m_c pairs at a time and one chunk's working set,
# 8 (sum_c m_c^2 + max_c m_c H_c + X) bytes (one class unlabelled) with
# C = _PAIR_CHUNK.  With eigenfactors of ranks rx, ry on an n x n grid of N
# points H_c counts the coefficients of the class's parity (722 for the
# shipped bump; rx ry unlabelled) and X = C (N + n ry + 2 rx ry): the chunk's
# densities, their half projection, its coefficients, then held and weighted.
# By FFT on padded side P, H_c = N and X = (5 - d) C P^(d-1) (P/2 + 1):
# convolve holds the complex spectrum of C rows and a half-size (2D) or
# same-size (1D) copy.
#
# Pair densities projected or convolved at once in the Gram build and the
# streamed exchange term; bounds their buffers.  Times _SAMPLE_CHUNK, it
# also bounds the pair features of one sample block of batch_interactions.
_PAIR_CHUNK = 64


def _next_fast_len(n: int) -> int:
    """The least 11-smooth integer >= n >= 1, a fast pocketfft length."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _padded_shape(grid: GridSpec) -> tuple[int, ...]:
    P = _next_fast_len(2 * grid.points - 1)
    return (P,) * grid.dimension


def offset_sq_radii(grid: GridSpec) -> np.ndarray:
    """|x|^2 at every offset of the circularly embedded difference kernel.

    Offsets beyond +-(points-1) never mix into the linear convolution; their
    kernel values are irrelevant but kept finite.
    """
    P = _padded_shape(grid)[0]
    idx = np.arange(P)
    x = np.where(idx <= P // 2, idx, idx - P) * grid.spacing
    return x**2 if grid.dimension == 1 else x[:, None] ** 2 + x[None, :] ** 2


@dataclass(frozen=True)
class PairPotential:
    """Even pair potential bound to a grid.

    kernel holds w at every offset of the padded difference grid;
    kernel_fft is its real FFT, reused by all FFT convolutions.  w_hat_zero
    is the analytic integral of w; w_hat_grid tabulates the numerical
    Fourier transform on the dual grid.  When a 2D kernel is rank one on
    the offsets a linear convolution reads, factors holds the eigenfactors
    ((sx, Vx, px), (sy, Vy, py)) of its n x n Toeplitz tables Tx[i, k] =
    w(x_i - x_k, 0) and Ty[j, l] = w(0, y_j - y_l) / w(0, 0): each T = V
    diag(s) V^T from spectral.reflection_eigh, each vector with its parity,
    keeping the eigenpairs of both parities with |s| > n eps max|s|, numpy's
    matrix_rank default; the signs of s are kept, so T need not be
    semidefinite.  factors is None in 1D and for any other kernel.
    """

    kind: str
    params: dict
    grid: GridSpec
    kernel: np.ndarray = field(repr=False)
    kernel_fft: np.ndarray = field(repr=False)
    w_hat_zero: float
    w_hat_grid: np.ndarray = field(repr=False)
    w_hat_min: float
    factors: tuple | None = field(repr=False)


def make_pair_potential(kind: str, grid: GridSpec, amplitude: float = 1.0,
                        sigma: float = 1.0, table: np.ndarray | None = None) -> PairPotential:
    """Tabulate a pair potential and its transform on the padded grid.

    Kinds: 'gaussian-bump' a*exp(-|x|^2/(2 sigma^2)); 'grid-delta' a*delta_0
    collapsed to one grid cell (1D trace-class runs only); 'tabulated' radial
    (offset, value) pairs resampled by linear interpolation.
    """
    shape = _padded_shape(grid)
    r2 = offset_sq_radii(grid)
    r = np.sqrt(r2)

    params: dict = {}
    if kind == "gaussian-bump":
        if sigma <= 0 or sigma**2 == 0:
            raise ConfigurationError(f"gaussian-bump needs sigma, sigma**2 > 0: {sigma!r}")
        kernel = amplitude * np.exp(-r2 / (2.0 * sigma**2))
        w_hat_zero = amplitude * (2.0 * np.pi * sigma**2) ** (grid.dimension / 2.0)
        params = {"amplitude": amplitude, "sigma": sigma}
    elif kind == "grid-delta":
        kernel = np.zeros(shape)
        kernel[(0,) * grid.dimension] = amplitude / grid.cell_volume
        w_hat_zero = amplitude
        params = {"amplitude": amplitude}
    elif kind == "tabulated":
        if table is None:
            raise ConfigurationError("tabulated potential needs a table")
        tab = np.asarray(table, dtype=float)
        if tab.ndim != 2 or tab.shape[1] != 2:
            raise ConfigurationError("table must be two columns (offset, value)")
        order = np.argsort(tab[:, 0])
        offs, vals = tab[order, 0], tab[order, 1]
        kernel = np.interp(r, offs, vals, left=0.0, right=0.0)
        w_hat_zero = float(kernel.sum() * grid.cell_volume)
        params = {"points": len(offs)}
    else:
        raise ConfigurationError(f"unknown pair potential kind {kind!r}")

    reflect = np.ix_(*[(-np.arange(P)) % P for P in shape])
    if not np.array_equal(kernel, kernel[reflect]):
        raise ConfigurationError("pair potential kernel is not even on the grid")

    # factors when w = outer(w[:, 0], w[0, :] / w[0, 0]) to 1e-14 of
    # max|w| on the offsets |dx|, |dy| <= n - 1 a linear convolution reads
    factors = None
    if grid.dimension == 2 and kernel[0, 0] != 0.0:
        n, P = grid.points, shape[0]
        near = np.r_[0:n, P - n + 1:P]
        rank_one = np.outer(kernel[near, 0], kernel[0, near] / kernel[0, 0])
        if np.abs(kernel[np.ix_(near, near)] - rank_one).max() <= 1e-14 * np.abs(kernel).max():
            off = np.subtract.outer(np.arange(n), np.arange(n)) % P
            factors = []
            for T in (kernel[off, 0], kernel[0, off] / kernel[0, 0]):
                s, V, parity = reflection_eigh(T)
                keep = np.abs(s) > n * np.finfo(float).eps * np.abs(s).max()
                factors.append((s[keep], V[:, keep], parity[keep]))
            factors = tuple(factors)

    kfft = np.fft.rfftn(kernel)
    w_hat_grid = kfft.real * grid.cell_volume
    return PairPotential(kind=kind, params=params, grid=grid, kernel=kernel,
                         kernel_fft=kfft, w_hat_zero=w_hat_zero,
                         w_hat_grid=w_hat_grid, w_hat_min=float(w_hat_grid.min()),
                         factors=factors)


def convolve(w: PairPotential, density: np.ndarray) -> np.ndarray:
    """(w * rho)(x_i) = sum_j w(x_i - x_j) rho_j for weight-folded rho.

    Accepts a single flattened density or a batch (n, total_points).  Only
    data rows are transformed; with the 1/P^d scale applied once, as irfftn
    does, the result is bit-identical to the zero-padded definition.
    """
    n, d = w.grid.points, w.grid.dimension
    P = w.kernel.shape[0]
    dens = np.asarray(density, dtype=float).reshape((-1,) + (n,) * d)
    f = np.fft.rfft(dens, n=P, axis=-1)
    if d == 2:
        f = np.fft.fft(f, n=P, axis=1)
    f *= w.kernel_fft
    if d == 2:
        f = np.fft.ifft(f, axis=1, norm="forward", out=f)[:, :n]
    f = np.fft.irfft(f, n=P, axis=-1, norm="forward")  # frees the spectrum
    out = (f[..., :n] * (1.0 / P**d)).reshape(len(dens), -1)
    return out if density.ndim == 2 else out[0]


def _pair_features(w: PairPotential, rows: np.ndarray, cols: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(held, left) of a chunk of pair densities: <rho_p, w * rho_q> = left_p . held_q.

    Without w.factors held = rows and left = convolve(w, rows); with them
    held = Vx^T rho Vy flattened to rx ry columns, or to cols of them, and
    left = held (sx (x) sy).
    """
    if w.factors is None:
        return rows, convolve(w, rows)
    (sx, Vx, _), (sy, Vy, _) = w.factors
    n = len(Vx)
    held = (Vx.T @ (rows.reshape(-1, n) @ Vy).reshape(-1, n, len(sy))).reshape(len(rows), -1)
    weight = np.outer(sx, sy).ravel()
    if cols is not None:
        held, weight = held[:, cols], weight[cols]
    return held, held * weight


def quadratic_form(w: PairPotential, density: np.ndarray) -> np.ndarray | float:
    """(1/2) double-integral rho(x) w(x-y) rho(y), batched over rows."""
    conv = convolve(w, density)
    if density.ndim == 2:
        return 0.5 * np.einsum("ij,ij->i", density, conv)
    return 0.5 * float(density @ conv)


def _check_binding(op: OneBodyOperator, w: PairPotential, K: int):
    """op.modes(K), once w is bound to op's grid."""
    if w.grid != op.grid:
        raise ConfigurationError("pair potential bound to a different grid")
    return op.modes(K)


def _pairs(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes a <= b of the unordered pairs of cutoff K in (b, a) order, and each
    pair's multiplicity: 1 on the diagonal, 2 off it."""
    b, a = np.tril_indices(K)
    return a, b, np.where(a == b, 1.0, 2.0)


def _pair_classes(op: OneBodyOperator, w: PairPotential, K: int
                  ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(positions, held columns) of each pair class at cutoff K, even class first.

    A labelled pair's class is its parity p = p_a p_b; unlabelled pairs are
    one class.  Reversing both axes flips eigenfactor coefficient (i, j) of
    w.factors by px_i py_j, so a labelled class holds those with px_i py_j =
    p; columns is None (all) otherwise.
    """
    labels = mode_parity(op, K)
    a, b, _ = _pairs(K)
    if labels is None:
        return [(np.arange(len(a)), None)]
    pair_class = labels[a] * labels[b]
    coeff = None if w.factors is None else np.outer(w.factors[0][2], w.factors[1][2]).ravel()
    return [(np.flatnonzero(pair_class == p),
             None if coeff is None else np.flatnonzero(coeff == p))
            for p in (1, -1) if np.any(pair_class == p)]


def _pair_densities(Ut: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Densities u_a u_b of the pairs (a, b), one row each, of the modes in the rows of Ut.

    The callers pass a chunk's densities straight to _pair_features, so they
    are freed with it and never held next to the following chunk's.
    """
    rows = Ut[a]
    rows *= Ut[b]
    return rows


def direct_term(op: OneBodyOperator, w: PairPotential, K: int) -> float:
    """(1/2) iint rho_K(x) w(x-y) rho_K(y); diverges with K in 2D."""
    _check_binding(op, w, K)
    return float(quadratic_form(w, green_diagonal(op, K)))


def exchange_term(op: OneBodyOperator, w: PairPotential, K: int,
                  tensor: PairTensor | None = None) -> float:
    """(1/2) iint |G_K(x,y)|^2 w(x-y), the weighted trace of diag(Q).

    diag(Q) is read class by class from tensor, a pair Gram of op and w,
    with no convolution; a tensor cutoff below K raises ConfigurationError.
    Without a tensor, diag(Q) is streamed class by class and chunk by
    chunk, projected or convolved as in build_pair_tensor, and Q is never
    built.
    """
    lam, U = _check_binding(op, w, K)
    a, b, mult = _pairs(K)
    fac = mult / (lam[a] * lam[b])
    diag = np.empty(len(fac))
    if tensor is None:
        Ut = np.ascontiguousarray(U.T)
        for pos, cols in _pair_classes(op, w, K):
            for lo in range(0, len(pos), _PAIR_CHUNK):
                p = pos[lo:lo + _PAIR_CHUNK]
                diag[p] = np.einsum("ij,ij->i", *_pair_features(
                    w, _pair_densities(Ut, a[p], b[p]), cols))
    else:
        for pos, Q in tensor.classes(K):
            diag[pos] = np.diagonal(Q)
    return float(0.5 * fac @ diag)


def _pair_index(K: int) -> np.ndarray:
    """idx[a, b]: position of the unordered pair {a, b} in the (b, a) order."""
    i = np.arange(K)
    hi, lo = np.maximum.outer(i, i), np.minimum.outer(i, i)
    return hi * (hi + 1) // 2 + lo


@dataclass(frozen=True)
class PairTensor:
    """Pair Gram matrix Q[p, q] = <u_a u_b, w * u_c u_d>, one pair class at a time.

    p = (a <= b) and q = (c <= d) run over unordered pairs in (b, a) order.
    When the modes carry reflection labels (spectral.mode_parity), a pair's
    class is its parity p_a p_b and Q is zero between classes by symmetry;
    without labels every pair is in one class.  pairs[c] lists the positions
    of class c's pairs in ascending order and grams[c] is its block of Q, so
    the pairs of any cutoff K' <= K are a leading run of each class and their
    blocks are leading blocks.  Q is real and symmetric, and positive
    semidefinite when the transform of w is nonnegative.
    """

    mode_cutoff: int
    pairs: tuple[np.ndarray, ...] = field(repr=False)
    grams: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def gram(self) -> np.ndarray:
        """The whole P x P Gram matrix, exact zeros between classes."""
        P = self.mode_cutoff * (self.mode_cutoff + 1) // 2
        Q = np.zeros((P, P))
        for pos, block in zip(self.pairs, self.grams):
            Q[np.ix_(pos, pos)] = block
        return Q

    def classes(self, K: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """(positions, Gram block) of each class's pairs at cutoff K <= mode_cutoff."""
        if K > self.mode_cutoff:
            raise ConfigurationError(f"cutoff {K} exceeds pair tensor cutoff {self.mode_cutoff}")
        P = K * (K + 1) // 2
        out = []
        for pos, Q in zip(self.pairs, self.grams):
            m = int(np.searchsorted(pos, P))
            out.append((pos[:m], Q[:m, :m]))
        return out


def build_pair_tensor(op: OneBodyOperator, w: PairPotential, K: int) -> PairTensor:
    """Pair Gram matrix at cutoff K by pair class, refused over MAX_DENSE_BYTES.

    Entries between classes are never computed.  Within a class only the
    lower triangle is, one chunk of pair densities at a time, as the
    products of its left features with the held features of the pairs
    before it (_pair_features); mirroring it in place makes each block
    exactly symmetric.  Only one class's held features are kept at a time:
    the eigenfactor coefficients of each density when w has factors
    (rank-one 2D kernels), those of the class's parity when it has one,
    else the densities themselves, convolved by FFT.  The cap counts the
    working set of the route taken.
    """
    _, U = _check_binding(op, w, K)
    if w.w_hat_min < -1e-10:  # beyond FFT roundoff
        warnings.warn(f"pair potential transform dips negative (min {w.w_hat_min:.3g}): "
                      "the pair Gram need not be positive semidefinite, so "
                      "energies may be negative and weights exp(-D) exceed 1")
    a, b, _ = _pairs(K)
    classes = _pair_classes(op, w, K)
    N, d, P = op.grid.total_points, op.grid.dimension, w.kernel.shape[0]
    if w.factors is None:
        full, work = N, (5 - d) * _PAIR_CHUNK * P ** (d - 1) * (P // 2 + 1)
    else:
        rx, ry = len(w.factors[0][0]), len(w.factors[1][0])
        full, work = rx * ry, _PAIR_CHUNK * (N + op.grid.points * ry + 2 * rx * ry)
    widths = [full if cols is None else len(cols) for _, cols in classes]
    nbytes = 8 * (sum(len(pos) ** 2 for pos, _ in classes)
                  + max(len(pos) * H for (pos, _), H in zip(classes, widths)) + work)
    if nbytes > MAX_DENSE_BYTES:
        raise ConfigurationError(
            f"pair Gram at K={K} needs {nbytes} bytes, over the "
            f"{MAX_DENSE_BYTES}-byte cap")
    Ut = np.ascontiguousarray(U.T)
    grams = []
    for (pos, cols), H in zip(classes, widths):
        ac, bc, m = a[pos], b[pos], len(pos)
        held = np.empty((m, H))
        Q = np.zeros((m, m))
        for lo in range(0, m, _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, m)
            held[lo:hi], left = _pair_features(
                w, _pair_densities(Ut, ac[lo:hi], bc[lo:hi]), cols)
            Q[lo:hi, :hi] = left @ held[:hi].T
            del left  # not held through the next chunk's convolution
        del held
        for i in range(m - 1):
            Q[i, i + 1:] = Q[i + 1:, i]
        grams.append(Q)
    return PairTensor(mode_cutoff=K, pairs=tuple(pos for pos, _ in classes),
                      grams=tuple(grams))


def wick_shift(ensemble: Ensemble, op: OneBodyOperator, tensor: PairTensor,
               energies: np.ndarray) -> np.ndarray:
    """Add renormalized minus bare interaction, 1/2 c^T Q c - Re<alpha, V alpha>, into energies.

    c_p = 1/lambda_a on the diagonal pairs p = (a, a) and 0 off them, so
    (Qc)_p = <u_a u_b, w * rho_K> and V[a, b] = (Qc)_{ab} is the mean-field
    potential w * rho_K in mode coordinates; 1/2 c^T Q c is the direct term.
    One sample costs O(K^2), against O(P^2) for a second quadratic form.
    energies (one per sample) gets it _SAMPLE_CHUNK samples at a time and is returned.
    """
    K = ensemble.cutoff
    a, b, _ = _pairs(K)
    c = np.where(a == b, 1.0 / op.eigenvalues[a], 0.0)
    Qc = np.empty(len(c))
    for pos, Q in tensor.classes(K):
        Qc[pos] = Q @ c[pos]
    V = Qc[_pair_index(K)]
    const = 0.5 * float(c @ Qc)
    for lo in range(0, ensemble.size, _SAMPLE_CHUNK):
        coeff = ensemble.coefficients[lo:lo + _SAMPLE_CHUNK]
        re, im = coeff.real, coeff.imag
        energies[lo:lo + _SAMPLE_CHUNK] += const - (np.einsum("ij,ij->i", re @ V, re)
                                                    + np.einsum("ij,ij->i", im @ V, im))
    return energies


def batch_interactions(ensemble: Ensemble, op: OneBodyOperator, tensor: PairTensor,
                       renormalized: bool) -> np.ndarray:
    """Bare or renormalized interaction 0.5 (f - c)^T Q (f - c) of every sample.

    The real pair features are f_p = m_p Re(conj(alpha_a) alpha_b), m = 1 on
    diagonal pairs and 2 off them; renormalizing subtracts c_p = 1/lambda_a
    on the diagonal pairs, which adds wick_shift to the bare form (c = 0).
    The bare form is summed over the pair classes, each with its own
    features and block, in blocks of at most _SAMPLE_CHUNK samples and
    _SAMPLE_CHUNK x _PAIR_CHUNK features.  Any tensor with cutoff >= the
    ensemble's serves.
    """
    K = ensemble.cutoff
    a, b, mult = _pairs(K)
    classes = [(a[pos], b[pos], mult[pos], Q) for pos, Q in tensor.classes(K)]
    step = min(_SAMPLE_CHUNK, max(1, _SAMPLE_CHUNK * _PAIR_CHUNK // len(a)))
    out = np.empty(ensemble.size)
    for lo in range(0, ensemble.size, step):
        coeff = ensemble.coefficients[lo:lo + step]
        re, im = coeff.real, coeff.imag
        form = 0.0
        for ac, bc, mc, Q in classes:
            f = mc * (re[:, ac] * re[:, bc] + im[:, ac] * im[:, bc])
            form = form + np.einsum("ij,ij->i", f @ Q, f)
        out[lo:lo + step] = 0.5 * form
    return wick_shift(ensemble, op, tensor, out) if renormalized else out
