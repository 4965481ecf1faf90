"""Independent references the tests check gibbslab against.

Closed forms, quadratures, coherent states and the variational free-energy
functional: each computes a quantity the package computes another way, or
builds an input no command needs.  None of it is library API.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from gibbslab.config import ConfigurationError
from gibbslab.fock_quantum import FockBasis, FockOperator, FockState
from gibbslab.gaussian import Ensemble
from gibbslab.hartree import RhfState, _measure_factor
from gibbslab.interaction import PairPotential, PairTensor, _pair_index, convolve
from gibbslab.spectral import GridSpec, OneBodyOperator, minus_laplacian

# ---------------------------------------------------------------------------
# One-body operator and pair tensor


def hamiltonian(op: OneBodyOperator) -> np.ndarray:
    """Dense h including the current shift."""
    H = minus_laplacian(op.grid)
    H.flat[::len(H) + 1] += op.potential - op.shift
    return H


def sparse_minus_laplacian(grid: GridSpec) -> sp.csr_matrix:
    """-Laplacian as a sparse Kronecker sum kron(L, I) + kron(I, L) in 2D."""
    n, h = grid.points, grid.spacing
    off = np.full(n - 1, -1.0 / h**2)
    L = sp.diags([off, np.full(n, 2.0 / h**2), off], [-1, 0, 1], format="csr")
    if grid.dimension == 1:
        return L
    eye = sp.identity(n, format="csr")
    return (sp.kron(L, eye) + sp.kron(eye, L)).tocsr()


def fock_tensor(tensor: PairTensor) -> np.ndarray:
    """Fock-space view W[i,j,k,l] = iint u_i(x) u_j(y) w(x-y) u_l(x) u_k(y).

    W[i,j,k,l] = Q[(i,l), (j,k)], exactly exchange- and Hermitian-symmetric.
    """
    idx = _pair_index(tensor.mode_cutoff)
    return tensor.gram[idx[:, None, None, :], idx[None, :, :, None]]


# ---------------------------------------------------------------------------
# Gaussian samples


def toeplitz_tables(w: PairPotential) -> tuple[np.ndarray, np.ndarray]:
    """A 2D kernel's n x n tables Tx[i, k] = w(x_i - x_k, 0) and Ty[j, l] =
    w(0, y_j - y_l) / w(0, 0), read off its padded offsets."""
    n, P = w.grid.points, w.kernel.shape[0]
    off = np.subtract.outer(np.arange(n), np.arange(n)) % P
    return w.kernel[off, 0], w.kernel[0, off] / w.kernel[0, 0]


def sobolev_norms_sq(ensemble: Ensemble, op: OneBodyOperator, t: float) -> np.ndarray:
    """sum_j lambda_j^t |alpha_j|^2 of every sample."""
    lam, _ = op.modes(ensemble.cutoff)
    return (np.abs(ensemble.coefficients) ** 2 * lam**t).sum(axis=1)


def fields_on_grid(ensemble: Ensemble, op: OneBodyOperator) -> np.ndarray:
    """(n, total_points) synthesis sum_j alpha_j u_j of every sample
    (weight-folded convention)."""
    _, U = op.modes(ensemble.cutoff)
    return ensemble.coefficients @ U.T


def renormalized_energies(ensemble: Ensemble, op: OneBodyOperator,
                          tensor: PairTensor) -> np.ndarray:
    """(1/2)(f - c)^T Q (f - c) of every sample, one at a time on the whole Gram.

    f_p = m_p Re(conj(alpha_a) alpha_b) with m = 1 on diagonal pairs and 2
    off them, c_p = 1/lambda_a on the diagonal pairs; pairs of the
    ensemble's cutoff are the Gram's leading block.
    """
    b, a = np.tril_indices(ensemble.cutoff)
    Q = tensor.gram[:len(a), :len(a)]
    c = np.where(a == b, 1.0 / op.eigenvalues[a], 0.0)
    m = np.where(a == b, 1.0, 2.0)
    out = np.empty(ensemble.size)
    for i, alpha in enumerate(ensemble.coefficients):
        g = m * (np.conj(alpha[a]) * alpha[b]).real - c
        out[i] = 0.5 * g @ Q @ g
    return out


def _untemper(y: int) -> int:
    """The MT19937 key word whose tempered output is the 32-bit word y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):  # each pass fixes 7 more bits of y ^= (y << 7) & mask
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x = x & 0xFFFFFFFF
    for _ in range(3):  # and 11 more of y ^= y >> 11
        x = y ^ (x >> 11)
    return x


def ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ki_double and wi_double, read back from its standard normal.

    An MT19937 key set to untempered words makes the next 64-bit word any r
    wanted, numpy's next_uint64 being (first << 32) | second.  One draw from
    r = (rabs << 9) | idx (sign bit 0) then shows the tables:
    - rabs = 1 returns wi[idx] (layer 1, whose bound is 0, passes its wedge
      test, since exp(-x**2 / 2) rounds to 1);
    - the draw takes 2 words of the key iff rabs < ki[idx], so ki[idx] is
      the least rabs whose draw takes more (rabs = ki[idx] - 1 takes 2).
    The other key words are MT19937(0)'s, all nonzero: an all-zero stream
    loops forever in the tail branch of layer 0.
    """
    bits = np.random.MT19937(0)
    gen = np.random.Generator(bits)
    key = np.array(bits.state["state"]["key"], dtype=np.uint32)

    def draw(word: int) -> tuple[float, int]:
        key[0], key[1] = _untemper(word >> 32), _untemper(word & 0xFFFFFFFF)
        bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0},
                      "has_uint32": 0, "uinteger": 0}
        x = gen.standard_normal()
        return x, bits.state["state"]["pos"]

    ki, wi = np.empty(256, dtype=np.uint64), np.empty(256)
    for idx in range(256):
        wi[idx] = draw(1 << 9 | idx)[0]
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if draw(mid << 9 | idx)[1] == 2:
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo
    return ki, wi


def ziggurat_fi(wi: np.ndarray) -> np.ndarray:
    """numpy's fi_double, read out of its compiled generator module.

    The module lays the 256 doubles of fi_double out just before those of
    wi_double, whose bytes (as ziggurat_tables reads them back) locate it.
    """
    import numpy.random._generator as generator

    data = Path(generator.__file__).read_bytes()
    at = data.find(wi.astype("<f8").tobytes())
    assert at >= 2048 and data.count(wi.astype("<f8").tobytes()) == 1
    return np.frombuffer(data[at - 2048:at], dtype="<f8").copy()


def numpy_normals(words, count: int) -> tuple[np.ndarray, int]:
    """numpy's first `count` standard normals drawn from the given 64-bit words.

    The words are loaded as untempered MT19937 key words (numpy's
    next_uint64 being (first << 32) | second), the other key words being
    MT19937(0)'s.  Returns the normals and the number of 64-bit words numpy
    read, which is more than len(words) when it ran past them.
    """
    bits = np.random.MT19937(0)
    key = np.array(bits.state["state"]["key"], dtype=np.uint32)
    for j, word in enumerate(int(w) for w in words):
        key[2 * j], key[2 * j + 1] = _untemper(word >> 32), _untemper(word & 0xFFFFFFFF)
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0},
                  "has_uint32": 0, "uinteger": 0}
    z = np.random.Generator(bits).standard_normal(count)
    return z, bits.state["state"]["pos"] // 2


# ---------------------------------------------------------------------------
# Classical measure


def pseudo_moment(ensemble: Ensemble) -> np.ndarray:
    """E[alpha_i alpha_j] without conjugation; zero by phase invariance."""
    a = ensemble.coefficients
    wsum = ensemble.weights.sum()
    return (a.T * ensemble.weights) @ a / wsum


# Single-mode closed forms.  With one mode, X = |alpha_1|^2 is exponential
# with mean m = 1/lambda_1 and every interacting quantity reduces to a
# one-dimensional integral over the weight profile.


def _single_mode_average(lam1: float, pair_diag: float, renormalized: bool,
                         observable) -> float:
    import scipy.integrate
    m = 1.0 / lam1

    def weight(x):
        shift = m if renormalized else 0.0
        return np.exp(-0.5 * pair_diag * (x - shift) ** 2)

    def dens(x):
        return np.exp(-x / m) / m

    num, _ = scipy.integrate.quad(lambda x: observable(x) * weight(x) * dens(x),
                                  0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
    return num


def single_mode_log_zr(lam1: float, pair_diag: float, renormalized: bool = True) -> float:
    """-log E[exp(-D)] for one mode with W_1111 = pair_diag."""
    z = _single_mode_average(lam1, pair_diag, renormalized, lambda x: 1.0)
    return -float(np.log(z))


def single_mode_moment(lam1: float, pair_diag: float, renormalized: bool = True) -> float:
    """Interacting E[|alpha_1|^2] for one mode."""
    z = _single_mode_average(lam1, pair_diag, renormalized, lambda x: 1.0)
    num = _single_mode_average(lam1, pair_diag, renormalized, lambda x: x)
    return float(num / z)


def single_mode_mean_renorm_energy(lam1: float, pair_diag: float) -> float:
    """Free-measure E[D^R] for one mode; equals the exchange term."""
    import scipy.integrate
    m = 1.0 / lam1
    val, _ = scipy.integrate.quad(
        lambda x: 0.5 * pair_diag * (x - m) ** 2 * np.exp(-x / m) / m,
        0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
    return float(val)


# ---------------------------------------------------------------------------
# Reduced Hartree


def free_gas_density_quadrature(T: float, gap: float, measure: str = "unit") -> float:
    """Independent 2D Cartesian quadrature of the same integral."""
    import scipy.integrate
    k_max = np.sqrt(max(50.0 * T, 50.0 * T + gap))

    def integrand(ky, kx):
        x = (kx * kx + ky * ky + gap) / T
        return 0.0 if x > 700.0 else 1.0 / np.expm1(x)

    val, _ = scipy.integrate.dblquad(integrand, 0.0, k_max, 0.0, k_max,
                                     epsabs=1e-12, epsrel=1e-10)
    return _measure_factor(measure, 2) * 4.0 * float(val)


def thermal_eigs(lap: np.ndarray, v_eff: np.ndarray, T: float):
    """(eps, psi, occ, rho) of -Lap + V_eff by scipy's divide-and-conquer
    eigh, whose vectors come Fortran-ordered."""
    import scipy.linalg

    H = lap.copy()
    H.flat[::len(H) + 1] += v_eff
    eps, psi = scipy.linalg.eigh(H, driver="evd")
    with np.errstate(over="ignore"):
        occ = 1.0 / np.expm1(eps / T)
    return eps, psi, occ, (psi * psi) @ occ


def fixed_point_residual(state: RhfState, V: np.ndarray, w: PairPotential,
                         lam: float, nu: float) -> float:
    """Re-evaluate the map on the returned potential."""
    target = V + lam * convolve(w, state.density) - nu
    return float(np.max(np.abs(target - state.effective_potential) / (1.0 + np.abs(V))))


# ---------------------------------------------------------------------------
# Coherent states and the free-energy functional


def operator_sector(H: FockOperator, n: int) -> np.ndarray:
    """Sector n of a FockOperator as one dense d x d matrix, the entries
    given at one position summed."""
    d = H.basis.sector_dim(n)
    out = np.zeros((d, d))
    rows, cols, data = H.triplets(n)
    np.add.at(out, (rows, cols), data)
    return out


def dense_sector(block) -> np.ndarray:
    """A FockState sector as one dense d x d matrix, zero between its blocks."""
    if isinstance(block, np.ndarray):
        return np.diag(block)
    d = sum(len(states) for states, _ in block)
    out = np.zeros((d, d), dtype=np.result_type(*(G for _, G in block)))
    for states, G in block:
        out[np.ix_(states, states)] = G
    return out


def sector_weights(state: FockState) -> np.ndarray:
    """The trace of each sector of state."""
    return np.array([b.sum().real if isinstance(b, np.ndarray)
                     else sum(np.trace(G).real for _, G in b) for b in state.blocks])


@dataclass(frozen=True)
class CoherentReport:
    state: FockState
    captured_mass: float  # truncated share of the untruncated norm
    mean_particles: float
    truncation_warning: bool


def coherent_state(v: np.ndarray, basis: FockBasis) -> CoherentReport:
    """Block-diagonal compression of the coherent state built on v.

    The n-particle component is proportional to the n-fold tensor power of v
    over sqrt(n!); the state is renormalized on the truncated space.  All
    number-conserving observables agree with the untruncated coherent state
    up to the discarded Poisson tail.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (basis.num_modes,):
        raise ConfigurationError(f"need {basis.num_modes} mode amplitudes")
    norm_sq = float(np.sum(np.abs(v) ** 2))
    warn = norm_sq >= basis.max_particles / 2.0
    if warn:
        warnings.warn(f"|v|^2 = {norm_sq:.3g} is large for N_max = "
                      f"{basis.max_particles}; truncation error may be sizable")
    amps = []
    total = 0.0
    for n in range(basis.num_sectors):
        occs = basis.occupations[n]
        log_fact = np.array([sum(math.lgamma(c + 1) for c in occ) for occ in occs])
        with np.errstate(divide="ignore"):
            mags = np.exp(occs @ np.log(np.abs(v) + 1e-300) - 0.5 * log_fact)
        phases = np.exp(1j * (occs @ np.angle(v)))
        c = mags * phases
        c[~np.isfinite(c)] = 0.0
        amps.append(c)
        total += float(np.sum(np.abs(c) ** 2))
    blocks = [[(np.arange(len(c)), np.outer(c, c.conj()) / total)] for c in amps]
    state = FockState(basis=basis, blocks=blocks)
    captured = total / float(np.exp(norm_sq))
    return CoherentReport(state=state, captured_mass=captured,
                          mean_particles=float(np.arange(basis.num_sectors)
                                               @ sector_weights(state)),
                          truncation_warning=warn)


def _entropy_sum(p: np.ndarray) -> float:
    """sum p log p over a spectrum with 0 log 0 = 0."""
    p = np.clip(np.real(p), 0.0, None)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask])))


def free_energy_functional(state: FockState, H: FockOperator, T: float,
                           nu: float, E0: float = 0.0) -> float:
    """tr((H - nu N + E0) Gamma) + T tr(Gamma log Gamma)."""
    energy = 0.0
    ent = 0.0
    for n in range(state.basis.num_sectors):
        block = state.blocks[n]
        Hn = operator_sector(H, n)
        if isinstance(block, np.ndarray):
            tr_block = float(block.sum().real)
            energy += float(np.diag(Hn) @ np.real(block))
            ent += _entropy_sum(block)
        else:
            tr_block = 0.0
            for states, G in block:
                tr_block += float(np.trace(G).real)
                energy += float(np.real((Hn[np.ix_(states, states)] * G.T).sum()))
                ent += _entropy_sum(np.linalg.eigvalsh(G))
        energy += (E0 - nu * n) * tr_block
    return energy + T * ent


def random_test_state(basis: FockBasis, rng: np.random.Generator) -> FockState:
    """Random number-conserving density operator, for variational checks."""
    blocks = []
    total = 0.0
    for n in range(basis.num_sectors):
        d = basis.sector_dim(n)
        G = rng.standard_normal((d, min(d, 4))) + 1j * rng.standard_normal((d, min(d, 4)))
        B = G @ G.conj().T
        blocks.append(B)
        total += float(np.trace(B).real)
    return FockState(basis=basis, blocks=[[(np.arange(len(B)), B / total)] for B in blocks])
