"""Grand-canonical quantum statistical mechanics on a truncated Fock space.

The basis is cut by total particle number; every operator here conserves
particle number, so states and operators are block-diagonal over sectors.
A FockBasis grows each sector from the one below it, one particle at a
time, and is complete when built, its k-body index tables included, so
threads may share it; operators, states and spectra carry it, and
routines read it from them.  A FockOperator holds each sector as its
diagonal and the connected blocks of its other entries, found once when
it is built; H1 + g Hpair, for a diagonal H1, shares Hpair's blocks at
every coupling g.  Free (diagonal) sectors keep their
Gibbs blocks as bare probability vectors so that large cutoffs stay cheap;
interacting sectors are dense, each diagonalized per connected block of H
by divide and conquer, so the pair term's odd-mode parity classes are
solved apart.  Spectra keep one
set of vectors per block, and the Gibbs state keeps one dense matrix per
block, never the zeros between blocks.
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

from .config import MAX_DENSE_BYTES, ConfigurationError
from .interaction import PairTensor, _pair_index

SATURATION_THRESHOLD = 1e-6
# The triplets of an empty block.
_EMPTY = (np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0))
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
    the P symmetric_basis tuples t, both P x d_{n-k} (cols int32): a_t
    sends state cols[t, r] of sector n to state r of sector n - k with
    amplitude vals[t, r], and every other state to zero.  A sector over
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
                cols = np.searchsorted(self.codes[n], self.codes[n - order] + shifts
                                       ).astype(np.int32)
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


def _summed(rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
            d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets of a d x d block in row-major order, each position once:
    the entries at one position summed in their given order, and the
    positions whose sum is exactly zero dropped; rows and columns as int32,
    which holds every sector's states (MAX_SECTOR_STATES)."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if not len(rows):
        return _EMPTY
    if min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= d:
        raise ConfigurationError(f"an entry lies outside the {d}x{d} block")
    code = rows.astype(np.int64) * d + cols
    by = np.argsort(code, kind="stable")
    code = code[by]
    first = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    sums = np.add.reduceat(np.asarray(data, dtype=float)[by], first)
    kept = sums != 0.0
    pick = by[first[kept]]
    return rows[pick].astype(np.int32), cols[pick].astype(np.int32), sums[kept]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _component_labels(rows: np.ndarray, cols: np.ndarray, d: int) -> np.ndarray:
    """Connected-component labels of the graph on d states with edges
    (rows, cols), either direction, numbered by their smallest state.

    Label propagation with pointer jumping: each tree's root hooks onto the
    least root across its edges, then every state follows its pointers to
    a root, until no edge joins two roots.  The roots are then each
    component's smallest state, so labels come in scipy.sparse.csgraph's
    order.
    """
    rows, cols = np.r_[rows, cols], np.r_[cols, rows]
    root = np.arange(d)
    while True:
        low = root.copy()
        np.minimum.at(low, root[rows], root[cols])
        while not np.array_equal(low, jumped := low[low]):
            low = jumped
        if np.array_equal(low, root):
            return np.unique(root, return_inverse=True)[1]
        root = low


def _sector(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, d: int) -> tuple:
    """(diagonal, blocks) of a d x d sector given as triplets, as
    FockOperator holds it: the entries summed (_summed), the diagonal
    apart, and the others cut into the connected blocks of their graph,
    each with factor 1."""
    rows, cols, data = _summed(rows, cols, data, d)
    on = rows == cols
    diagonal = np.zeros(d)
    diagonal[rows[on]] = data[on]
    _frozen(diagonal)
    rows, cols, data = rows[~on], cols[~on], data[~on]
    if not len(rows):
        return diagonal, []
    labels = _component_labels(rows, cols, d)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    local = np.empty(d, dtype=np.intp)
    local[order] = np.arange(d) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    owner = labels[rows]
    by = np.argsort(owner, kind="stable")
    rows, cols, owner = rows[by], cols[by], owner[by]
    dst = local[rows] * sizes[owner] + local[cols]
    edges = np.cumsum(np.bincount(owner, minlength=len(sizes)))[:-1]
    return diagonal, [(*_frozen(states, at, values), 1.0) for states, at, values in zip(
        np.split(order, np.cumsum(sizes)[:-1]), np.split(dst, edges), np.split(data[by], edges))]


@dataclass
class FockOperator:
    """Number-conserving operator, held per connected block of each sector.

    sectors[n] is (diagonal, blocks) for sector n's d_n x d_n block: its
    diagonal, and one (states, dst, values, factor) per connected
    component of the graph of its nonzero entries off the diagonal, single
    states included, in label order (_component_labels); no blocks if it
    has no such entry.  A block's states are its states in the sector,
    ascending, and its entries off the diagonal are factor * values at the
    flat positions dst of its dense m x m matrix.  scaled and + share the
    blocks' arrays, which are read-only, so threads may share them: a
    diagonal H1 plus g Hpair holds Hpair's own arrays at every g.
    """

    basis: FockBasis
    sectors: list[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray, float]]]]

    @classmethod
    def from_triplets(cls, basis: FockBasis, triplets) -> FockOperator:
        """The operator whose sector n holds data[k] at (rows[k], cols[k])
        for triplets[n] = (rows, cols, data): the entries at one position
        summed in their given order, exact zeros dropped.  triplets may be
        any iterable, one per sector, and is read one sector at a time."""
        return cls(basis, [_sector(*t, basis.sector_dim(n)) for n, t in enumerate(triplets)])

    def triplets(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sector n as (rows, cols, data), each position once: the nonzero
        diagonal, then each block's entries."""
        diagonal, blocks = self.sectors[n]
        on = np.flatnonzero(diagonal)
        return tuple(map(np.concatenate, zip((on, on, diagonal[on]), *(
            (states[dst // len(states)], states[dst % len(states)], factor * values)
            for states, dst, values, factor in blocks))))

    def scaled(self, g: float) -> FockOperator:
        return FockOperator(self.basis, [(g * diagonal, [(*blk[:3], g * blk[3]) for blk in blocks])
                                         for diagonal, blocks in self.sectors])

    def __add__(self, other: FockOperator) -> FockOperator:
        """A sector where at most one operand has blocks keeps them; any
        other is rebuilt from both operands' triplets."""
        if other.basis is not self.basis:
            raise ConfigurationError("operators live on different bases")
        sectors = []
        for n, ((d1, b1), (d2, b2)) in enumerate(zip(self.sectors, other.sectors)):
            if b1 and b2:
                sectors.append(_sector(*map(np.concatenate, zip(
                    self.triplets(n), other.triplets(n))), len(d1)))
            else:
                sectors.append((d1 + d2, b1 or b2))
        return FockOperator(self.basis, sectors)


@dataclass
class FockState:
    """Density operator, block-diagonal over sectors and within them.

    blocks[n] is a 1-D vector for a diagonal sector, else a list of
    (states, block) pairs: a block's state indices in the sector, ascending,
    and its dense matrix on them.  Entries between two pairs' states are
    zero; a whole dense sector is the one-pair case.
    """

    basis: FockBasis
    blocks: list[np.ndarray | list[tuple[np.ndarray, np.ndarray]]]


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
    scatter of kernel[s, t] (vals[s, r] vals[t, r]) to (cols[s, r],
    cols[t, r]): the adjoint of reduced_density's gather.  The sectors are
    scattered one at a time, as the operator sums and blocks them.
    """
    if order not in ORDERS:
        raise ConfigurationError(f"second quantization order must be in {ORDERS}")
    P = math.comb(basis.num_modes + order - 1, order)
    kernel = np.asarray(kernel, dtype=float)
    if kernel.shape != (P, P):
        raise ConfigurationError(f"order-{order} kernel must be {P}x{P}")
    s, t = np.nonzero(kernel)

    def scattered(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if n < order:
            return _EMPTY
        cols, vals = basis.tables[order, n]
        return (cols[s].ravel(), cols[t].ravel(),
                (kernel[s, t][:, None] * (vals[s] * vals[t])).ravel())

    return FockOperator.from_triplets(basis, map(scattered, range(basis.num_sectors)))


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
    odd-mode parity.  The Gram, so the kernel, is exactly symmetric, and
    second_quantize forms each entry as kernel[s, t] (vals[s] vals[t]), so
    the scatter holds every value at (i, j) also at (j, i): H is symmetric
    up to the order of its sums."""
    K = basis.num_modes
    if tensor.mode_cutoff != K:
        raise ConfigurationError("tensor mode count does not match basis")
    p, q = np.array(symmetric_basis(K, 2)[0]).T
    idx, Q = _pair_index(K), tensor.gram
    kernel = (Q[idx[p[:, None], p], idx[q[:, None], q]]
              + Q[idx[p[:, None], q], idx[q[:, None], p]])
    mult = np.where(p == q, 2.0, 1.0)
    return second_quantize(basis, kernel / np.outer(mult, mult), 2)


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


def _check_bytes(sectors: list) -> None:
    """Refuse, over MAX_DENSE_BYTES, a block's solve, 8 (5m^2 + 8m + 1)
    + 4 (5m + 3) bytes for m states, or the vectors of all blocks,
    8 sum m^2, plus the largest solve."""
    held = solve = 0
    for n, (_, blocks) in enumerate(sectors):
        if not blocks:
            continue
        m = max(len(blk[0]) for blk in blocks)
        nbytes = 8 * (5 * m * m + 8 * m + 1) + 4 * (5 * m + 3)
        if nbytes > MAX_DENSE_BYTES:
            raise ConfigurationError(
                f"sector n={n}: a {m}-state block needs {nbytes} bytes to solve, "
                f"over the {MAX_DENSE_BYTES}-byte cap")
        held += 8 * sum(len(blk[0]) ** 2 for blk in blocks)
        solve = max(solve, nbytes)
    if held + solve > MAX_DENSE_BYTES:
        raise ConfigurationError(
            f"the spectra hold {held} bytes of vectors and their largest block "
            f"solve needs {solve} more, over the {MAX_DENSE_BYTES}-byte cap")


def sector_eigensystems(H: FockOperator, nu: float) -> SectorSpectra:
    """Diagonalize H - nu N blockwise, on H's basis.

    Diagonal sectors keep their basis ordering (vectors None).  Each block
    is filled with factor * values off the diagonal and H's diagonal less
    nu n on it, and solved by np.linalg.eigh, LAPACK's divide and conquer
    (syevd), which holds, for m states past a few dozen, the block, numpy's
    copy of it and the vectors, m^2 doubles each, with 2m^2 + 6m + 1
    doubles and 5m + 3 ints of workspace, against O(m) for the MRRR
    driver; so two parity blocks need about half the d^2 of a whole-sector
    solve.  _check_bytes refuses the blocks, with ConfigurationError,
    before any is made dense.
    """
    _check_bytes(H.sectors)
    energies, vectors = [], []
    for n, (diagonal, blocks) in enumerate(H.sectors):
        if not blocks:
            energies.append(diagonal - nu * n)
            vectors.append(None)
            continue
        vals, vecs = [], []
        for states, dst, values, factor in blocks:
            m = len(states)
            sub = np.zeros((m, m))
            sub.flat[dst] = factor * values
            sub.flat[::m + 1] = diagonal[states] - nu * n
            w, v = np.linalg.eigh(sub)
            vals.append(w)
            vecs.append((states, v))
        energies.append(np.concatenate(vals))
        vectors.append(vecs)
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


def _gibbs_blocks(p: np.ndarray, blocks: list[tuple[np.ndarray, np.ndarray]]
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(states, B_b @ B_b^T) of each block, B_b = V_b * sqrt(p_b) and p_b its
    run of p: numpy forms a product with its own transpose as a symmetric
    rank-k update, one triangle's work mirrored."""
    out, col = [], 0
    for states, V in blocks:
        B = V * np.sqrt(p[col:col + len(states)])
        out.append((states, B @ B.T))
        del B  # not held while the next block's is formed
        col += len(states)
    return out


def gibbs_from_spectra(spectra: SectorSpectra, T: float, E0: float = 0.0) -> GibbsResult:
    """Assemble exp(-(H - nu N + E0)/T)/Z from per-sector spectra: bare
    probabilities on diagonal sectors, one dense matrix per block of the
    others, on the block's states, and nothing between blocks."""
    basis = spectra.basis
    probs, log_Z = boltzmann_weights(spectra, T, basis.max_particles, E0)
    state = FockState(basis=basis, blocks=[p if V is None else _gibbs_blocks(p, V)
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


def _gathered(blocks: list[tuple[np.ndarray, np.ndarray]], cols: np.ndarray) -> np.ndarray:
    """Gamma[cols[a, r], cols[b, r]] of a sector held as (states, block)
    pairs, read from the block that holds both states, zero if none does."""
    d = sum(len(states) for states, _ in blocks)
    key, loc = np.empty(d, dtype=np.intp), np.empty(d, dtype=np.intp)
    for k, (states, _) in enumerate(blocks):
        key[states], loc[states] = k, np.arange(len(states))
    key, loc = key[cols], loc[cols]
    out = 0.0
    for k, (_, G) in enumerate(blocks):
        inside = (key[:, None] == k) & (key[None] == k)
        out = out + np.where(inside, G.take(loc[:, None] * len(G) + loc[None], mode="clip"), 0.0)
    return out


def reduced_density(state: FockState, order: int) -> np.ndarray:
    """Exact k-body marginal, the P x P matrix in the symmetric basis (see symmetric_basis).

    Entry (s, t) = c_s c_t <a+_t a_s> for the ordered tuples s, t and their
    weights c: at order 1, (i, j) = <a+_j a_i> with trace <N>; at order 2,
    ((ij),(kl)) = c_ij c_kl <a+_k a+_l a_i a_j> with trace <N(N-1)>.  Per
    sector, entry (a, b) is tr(a_a Gamma a_b^T), the adjoint of
    second_quantize: with the basis's table (cols, vals), a gather of
    sum_r vals[a, r] vals[b, r] Gamma[cols[a, r], cols[b, r]], read per
    block of a dense sector (_gathered)."""
    if order not in ORDERS:
        raise ConfigurationError("reduced density order must be 1 or 2")
    _, weights = symmetric_basis(state.basis.num_modes, order)
    M = np.zeros((len(weights),) * 2, dtype=complex)
    for n in range(order, state.basis.num_sectors):
        block = state.blocks[n]
        diagonal = isinstance(block, np.ndarray)
        if diagonal and not block.any():
            continue
        cols, vals = state.basis.tables[order, n]
        if diagonal:
            # distinct tuples send a number state to distinct states: M is diagonal
            M[np.diag_indices_from(M)] += (vals * vals * block[cols]).sum(axis=1)
        else:
            M += np.einsum("ar,br,abr->ab", vals, vals, _gathered(block, cols))
    M *= weights[:, None] * weights[None, :]
    return M


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
