"""Grand-canonical quantum statistical mechanics on a truncated Fock space.

The basis is cut by total particle number; every operator here conserves
particle number, so states and operators are block-diagonal over sectors.
A FockBasis grows each sector from the one below it, one particle at a
time, and is complete when built, its k-body index tables included, so
threads may share it; operators, states and spectra carry it, and
routines read it from them.  Free (diagonal) sectors keep their
Gibbs blocks as bare probability vectors so that large cutoffs stay cheap;
interacting sectors are dense, each diagonalized per connected block of H
by divide and conquer, so the pair term's odd-mode parity classes are
solved apart.  Spectra keep one set of vectors per block, and the Gibbs
state is assembled block by block into dense sector blocks.
boltzmann_weights gives level probabilities and log Z under any particle
cutoff; the Gibbs state and the cutoff audit read <N> and the top-sector
weight from them, so the audit assembles no states.
One symmetric k-body basis, symmetric_basis, indexes second quantization,
the reduced densities and the classical moments; second_quantize scatters
over the same index tables that reduced_density gathers from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import MAX_DENSE_BYTES, ConfigurationError
from .interaction import PairTensor, _pair_index

SATURATION_THRESHOLD = 1e-6
# States in one particle-number sector of the Fock basis.
MAX_SECTOR_STATES = 20_000
# Orders of the reduced densities here and of the classical moments.
ORDERS = (1, 2)


class FockBasis:
    """Occupation-number basis over K modes with total number <= N_max.

    A state's radix code reads its occupations as the digits, mode 0 first,
    of a base N_max + 1 integer, so ascending codes are lexicographic
    occupations.  Sector n is grown from sector n - 1 by adding one particle
    to each mode.  tables[k, n], for k in ORDERS and n >= k, is the index
    table (cols, vals) of a_t = a_t1 ... a_tk from sector n to n - k over
    the P symmetric_basis tuples t, both P x d_{n-k}: a_t sends state
    cols[t, r] of sector n to state r of sector n - k with amplitude
    vals[t, r], and every other state to zero.  A sector over
    MAX_SECTOR_STATES, or codes beyond int64, raise ConfigurationError
    before the sector is generated.  Everything is built here and never
    written afterwards; the tables are read-only arrays.
    """

    def __init__(self, num_modes: int, max_particles: int):
        if num_modes < 1 or max_particles < 0:
            raise ConfigurationError("need at least one mode and N_max >= 0")
        base = max_particles + 1
        if max_particles * base ** (num_modes - 1) > np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"radix codes of K={num_modes} modes at N_max={max_particles} overflow int64")
        self.num_modes = num_modes
        self.max_particles = max_particles
        self._radix = base ** np.arange(num_modes - 1, -1, -1, dtype=np.int64)
        self.occupations = [np.zeros((1, num_modes), dtype=np.int64)]
        self.codes = [np.zeros(1, dtype=np.int64)]
        for n in range(1, max_particles + 1):
            dim = math.comb(n + num_modes - 1, num_modes - 1)
            if dim > MAX_SECTOR_STATES:
                raise ConfigurationError(
                    f"sector n={n} has {dim} states, over the {MAX_SECTOR_STATES}-state "
                    f"cap (K={num_modes}, N_max={max_particles})")
            codes = np.unique(self.codes[n - 1][:, None] + self._radix)
            if len(codes) != dim:
                raise RuntimeError("sector enumeration miscounted")
            self.occupations.append(codes[:, None] // self._radix % base)
            self.codes.append(codes)
        self.tables = {}
        for order in ORDERS:
            tuples = np.array(symmetric_basis(num_modes, order)[0])
            shifts = self._radix[tuples].sum(axis=1)[:, None]
            for n in range(order, max_particles + 1):
                below = self.occupations[n - order]
                cols = np.searchsorted(self.codes[n], self.codes[n - order] + shifts)
                vals = np.ones(cols.shape)
                for j in range(order):
                    # occupation of mode t_j once t_1 .. t_j are added to state r
                    added = (tuples[:, :j + 1] == tuples[:, j:j + 1]).sum(axis=1)
                    vals = vals * np.sqrt((below[:, tuples[:, j]] + added).T.astype(float))
                cols.flags.writeable = vals.flags.writeable = False
                self.tables[order, n] = cols, vals

    @property
    def num_sectors(self) -> int:
        return self.max_particles + 1

    def sector_dim(self, n: int) -> int:
        return len(self.occupations[n])

    @property
    def dimension(self) -> int:
        return sum(len(o) for o in self.occupations)

    def index_of(self, occ) -> tuple[int, int]:
        occ = np.asarray(occ, dtype=np.int64)
        n = int(occ.sum())
        if n > self.max_particles or np.any(occ < 0):
            raise KeyError(f"occupation {tuple(occ)} not in basis")
        code = int(occ @ self._radix)
        pos = int(np.searchsorted(self.codes[n], code))
        if pos >= len(self.codes[n]) or self.codes[n][pos] != code:
            raise KeyError(f"occupation {tuple(occ)} not in basis")
        return n, pos


@dataclass
class FockOperator:
    """Number-conserving operator as per-sector sparse blocks."""

    basis: FockBasis
    blocks: list[sp.csr_matrix]

    def __post_init__(self):
        for n, b in enumerate(self.blocks):
            d = self.basis.sector_dim(n)
            if b.shape != (d, d):
                raise ConfigurationError(f"block {n} has shape {b.shape}, expected {d}")

    def scaled(self, factor: float) -> "FockOperator":
        return FockOperator(self.basis, [b * factor for b in self.blocks])

    def __add__(self, other: "FockOperator") -> "FockOperator":
        if other.basis is not self.basis:
            raise ConfigurationError("operators live on different bases")
        return FockOperator(self.basis,
                            [a + b for a, b in zip(self.blocks, other.blocks)])


@dataclass
class FockState:
    """Block-diagonal density operator; 1-D block means a diagonal block."""

    basis: FockBasis
    blocks: list[np.ndarray]


def build_fock(K: int, N_max: int) -> FockBasis:
    return FockBasis(K, N_max)


def symmetric_basis(K: int, order: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The order-k basis of second quantization, densities and moments.

    Mode tuples i_1 <= ... <= i_k in lexicographic order, each weighted by
    sqrt(k! / prod mult!) over the multiplicities of its modes: 1 at order
    1; at order 2, 1 on the diagonal pairs and sqrt(2) off them.
    """
    tuples = list(itertools.combinations_with_replacement(range(K), order))
    mults = [math.prod(math.factorial(t.count(i)) for i in set(t)) for t in tuples]
    return tuples, np.sqrt(math.factorial(order) / np.array(mults, dtype=float))


def second_quantize(basis: FockBasis, kernel: np.ndarray, order: int) -> FockOperator:
    """sum kernel[s, t] (a_s)+ a_t over the P symmetric_basis tuples s, t.

    a_s sends state cols[s, r] of sector n to state r of sector n - k with
    amplitude vals[s, r], (cols, vals) the basis's table, so sector n is one
    COO scatter of kernel[s, t] vals[s, r] vals[t, r] at (cols[s, r],
    cols[t, r]): the adjoint of reduced_density's gather.
    """
    if order not in ORDERS:
        raise ConfigurationError(f"second quantization order must be in {ORDERS}")
    P = math.comb(basis.num_modes + order - 1, order)
    kernel = np.asarray(kernel, dtype=float)
    if kernel.shape != (P, P):
        raise ConfigurationError(f"order-{order} kernel must be {P}x{P}")
    s, t = np.nonzero(kernel)
    blocks = [sp.csr_matrix((basis.sector_dim(n),) * 2) for n in range(basis.num_sectors)]
    for n in range(order, basis.num_sectors):
        cols, vals = basis.tables[order, n]
        data = (kernel[s, t][:, None] * vals[s] * vals[t]).ravel()
        blocks[n] = sp.csr_matrix((data, (cols[s].ravel(), cols[t].ravel())),
                                  shape=blocks[n].shape)
    return FockOperator(basis, blocks)


def second_quantize_one_body(basis: FockBasis, h1: np.ndarray) -> FockOperator:
    """Second quantization of a K x K one-body matrix, sum h_ij a+_i a_j."""
    h1 = np.asarray(h1, dtype=float)
    return second_quantize(basis, np.diag(h1) if h1.shape == (basis.num_modes,) else h1, 1)


def second_quantize_pair(basis: FockBasis, tensor: PairTensor) -> FockOperator:
    """(1/2) sum W_ijkl a+_i a+_j a_k a_l with W[i,j,k,l] = Q[{i,l},{j,k}].

    Since a_p a_q = a_q a_p, on the symmetric_basis pairs (p <= q), (r <= u)
    the order-2 kernel is (Q[{p,r},{q,u}] + Q[{p,u},{q,r}]) / ((1 + d_pq)
    (1 + d_ru)), gathered straight from the Gram.  Given mode parities, the
    Gram holds exact zeros between pairs of opposite parity, so H splits by
    odd-mode parity."""
    K = basis.num_modes
    if tensor.mode_cutoff != K:
        raise ConfigurationError("tensor mode count does not match basis")
    p, q = np.array(symmetric_basis(K, 2)[0]).T
    idx, Q = _pair_index(K), tensor.gram
    kernel = (Q[idx[p[:, None], p], idx[q[:, None], q]]
              + Q[idx[p[:, None], q], idx[q[:, None], p]])
    mult = np.where(p == q, 2.0, 1.0)
    H = second_quantize(basis, kernel / np.outer(mult, mult), 2)
    # clear summation-order roundoff
    return FockOperator(basis, [(0.5 * (b + b.T)).tocsr() for b in H.blocks])


# ---------------------------------------------------------------------------
# Gibbs states


@dataclass
class SectorSpectra:
    """Eigen-decompositions of H - nu N per sector; vectors None if diagonal.

    A dense sector's vectors are one (states, V) pair per connected block
    of H: the block's state indices in the sector, ascending, and its
    eigenvectors, one column per level.  Its energies are the blocks'
    ascending spectra one block after the other, so columns of successive
    blocks belong to successive runs of energies.
    """

    basis: FockBasis
    energies: list[np.ndarray]
    vectors: list[list[tuple[np.ndarray, np.ndarray]] | None]


def sector_eigensystems(H: FockOperator, nu: float) -> SectorSpectra:
    """Diagonalize H - nu N blockwise, on H's basis.

    Diagonal blocks keep their basis ordering (vectors None).  A dense
    sector is solved as one block per connected component of its
    off-diagonal entries, in label order, each by divide and conquer
    (LAPACK evd).  An m-state block needs 1 + 6m + 2m^2 doubles of solver
    workspace, against O(m) for the MRRR driver, and m^2 each for the dense
    block and its vectors: with two parity blocks about half the d^2 of a
    whole-sector solve.  Before any block is made dense, a block whose
    8 (4m^2 + 6m + 1) bytes exceed MAX_DENSE_BYTES raises ConfigurationError.
    """
    # deferred: importing csgraph costs 3 MB and 25 ms that only Fock solves need
    from scipy.sparse.csgraph import connected_components
    components = []
    for n, block in enumerate(H.blocks):
        off = block - sp.diags(block.diagonal())
        labels = connected_components(off, directed=False)[1] if off.nnz else None
        m = 0 if labels is None else int(np.bincount(labels).max())
        nbytes = 8 * (4 * m * m + 6 * m + 1)
        if nbytes > MAX_DENSE_BYTES:
            raise ConfigurationError(
                f"sector n={n}: a {m}-state block needs {nbytes} bytes to solve, "
                f"over the {MAX_DENSE_BYTES}-byte cap")
        components.append(labels)
    energies, vectors = [], []
    for n, (block, labels) in enumerate(zip(H.blocks, components)):
        if labels is None:
            energies.append(block.diagonal() - nu * n)
            vectors.append(None)
            continue
        vals, blocks = [], []
        for c in range(labels.max() + 1):
            states = np.flatnonzero(labels == c)
            sub = block[np.ix_(states, states)].toarray()
            sub[np.diag_indices_from(sub)] -= nu * n
            w, v = scipy.linalg.eigh(sub, overwrite_a=True, driver="evd")
            vals.append(w)
            blocks.append((states, v))
        energies.append(np.concatenate(vals))
        vectors.append(blocks)
    return SectorSpectra(basis=H.basis, energies=energies, vectors=vectors)


@dataclass
class GibbsResult:
    state: FockState
    log_partition: float
    free_energy: float
    mean_particles: float
    top_sector_weight: float
    cutoff_safe: bool


def boltzmann_weights(spectra: SectorSpectra, T: float, n_max: int,
                      E0: float = 0.0) -> tuple[list[np.ndarray], float]:
    """Probabilities of the levels of sectors 0..n_max in
    exp(-(H - nu N + E0)/T)/Z cut at n_max particles, and log Z.

    The exponentials are anchored at the lowest level kept so that a deep
    spectrum cannot underflow the partition function.
    """
    if T <= 0:
        raise ConfigurationError("temperature must be positive")
    if not 0 <= n_max <= spectra.basis.max_particles:
        raise ConfigurationError(
            f"particle cutoff {n_max} is outside 0..{spectra.basis.max_particles}")
    energies = spectra.energies[:n_max + 1]
    all_min = min(float(e.min()) for e in energies)
    weights = [np.exp(-(e - all_min) / T) for e in energies]
    zt = sum(float(w.sum()) for w in weights)
    return [w / zt for w in weights], float(np.log(zt) - (all_min + E0) / T)


def _particle_scalars(probs: list[np.ndarray]) -> tuple[float, float]:
    """<N> and the top sector's weight from boltzmann_weights' probabilities."""
    weights = np.array([p.sum() for p in probs])
    return float(np.arange(len(weights)) @ weights), float(weights[-1])


def _dense_block(p: np.ndarray, blocks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The sector's V diag(p) V^T, one (V_b * p_b) @ V_b^T per block."""
    rho = np.zeros((len(p), len(p)))
    col = 0
    for states, V in blocks:
        rho[np.ix_(states, states)] = (V * p[col:col + len(states)]) @ V.T
        col += len(states)
    return rho


def gibbs_from_spectra(spectra: SectorSpectra, T: float, E0: float = 0.0) -> GibbsResult:
    """Assemble exp(-(H - nu N + E0)/T)/Z from per-sector spectra, each
    dense sector block by block into a dense FockState block."""
    basis = spectra.basis
    probs, log_Z = boltzmann_weights(spectra, T, basis.max_particles, E0)
    state = FockState(basis=basis, blocks=[p if V is None else _dense_block(p, V)
                                           for p, V in zip(probs, spectra.vectors)])
    mean_N, top_weight = _particle_scalars(probs)
    return GibbsResult(state=state, log_partition=log_Z,
                       free_energy=-T * log_Z, mean_particles=mean_N,
                       top_sector_weight=top_weight,
                       cutoff_safe=top_weight <= SATURATION_THRESHOLD)


def gibbs_state(H: FockOperator, T: float, nu: float, E0: float = 0.0) -> GibbsResult:
    return gibbs_from_spectra(sector_eigensystems(H, nu), T, E0)


# ---------------------------------------------------------------------------
# Reduced density matrices


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """Exact k-body marginal in the symmetric basis (see symmetric_basis).

    Entry (s, t) = c_s c_t <a+_t a_s> for the ordered tuples s, t and their
    weights c: at order 1, (i, j) = <a+_j a_i> with trace <N>; at order 2,
    ((ij),(kl)) = c_ij c_kl <a+_k a+_l a_i a_j> with trace <N(N-1)>.
    """

    order: int
    matrix: np.ndarray


def reduced_density(state: FockState, order: int) -> ReducedDensityMatrix:
    """Per sector, entry (a, b) is tr(a_a Gamma a_b^T), the adjoint of
    second_quantize: with the basis's table (cols, vals), a gather of
    sum_r vals[a, r] vals[b, r] Gamma[cols[a, r], cols[b, r]]."""
    if order not in ORDERS:
        raise ConfigurationError("reduced density order must be 1 or 2")
    _, weights = symmetric_basis(state.basis.num_modes, order)
    M = np.zeros((len(weights),) * 2, dtype=complex)
    for n in range(order, state.basis.num_sectors):
        block = state.blocks[n]
        if block.ndim == 1 and not block.any():
            continue
        cols, vals = state.basis.tables[order, n]
        if block.ndim == 1:
            # distinct tuples send a number state to distinct states: M is diagonal
            M[np.diag_indices_from(M)] += (vals * vals * block[cols]).sum(axis=1)
        else:
            M += np.einsum("ar,br,abr->ab", vals, vals, block[cols[:, None], cols[None]])
    M *= weights[:, None] * weights[None, :]
    return ReducedDensityMatrix(order=order, matrix=M)


# ---------------------------------------------------------------------------
# Truncation audit


@dataclass(frozen=True)
class CutoffAuditRow:
    n_max: int
    free_energy: float
    mean_particles: float
    delta_free_energy: float
    top_sector_weight: float


@dataclass(frozen=True)
class CutoffAudit:
    rows: list[CutoffAuditRow]
    converged: bool


def cutoff_audit(spectra: SectorSpectra, T: float, schedule: list[int],
                 E0: float = 0.0) -> CutoffAudit:
    """F, <N> and the top-sector weight of spectra against the particle cutoff,
    from level probabilities; converged once the last step moves F < 1e-6 T."""
    if not schedule or any(b <= a for a, b in zip(schedule[:-1], schedule[1:])):
        raise ConfigurationError("cutoff schedule must be nonempty and strictly increasing")
    rows = []
    prev = math.nan
    for n_max in schedule:
        probs, log_Z = boltzmann_weights(spectra, T, n_max, E0)
        mean_N, top_weight = _particle_scalars(probs)
        F = -T * log_Z
        rows.append(CutoffAuditRow(n_max=n_max, free_energy=F, mean_particles=mean_N,
                                   delta_free_energy=abs(F - prev),
                                   top_sector_weight=top_weight))
        prev = F
    converged = len(rows) > 1 and rows[-1].delta_free_energy < 1e-6 * T
    return CutoffAudit(rows=rows, converged=converged)
