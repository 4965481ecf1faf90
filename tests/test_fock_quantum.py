import functools
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import gibbslab.classical_gibbs as cg
import gibbslab.fock_quantum as fq
from gibbslab.config import MAX_DENSE_BYTES, ConfigurationError, RunConfig
from gibbslab.gaussian import Ensemble
from gibbslab.interaction import build_pair_tensor, make_pair_potential, quadratic_form
from gibbslab.spectral import GridSpec, build_one_body, mode_parity
from gibbslab.studies import (bind_potential, build_model_operator, quantum_schedule,
                              run_study_1d)

import oracles


@pytest.fixture(scope="module")
def op():
    return build_one_body(GridSpec(1, 6.0, 200), "power", 8, s=4.0)


@pytest.fixture(scope="module")
def bump(op):
    return make_pair_potential("gaussian-bump", op.grid, amplitude=0.5, sigma=0.6)


def test_basis_sector_sizes():
    b = fq.build_fock(2, 3)
    assert [b.sector_dim(n) for n in range(4)] == [1, 2, 3, 4]
    assert b.dimension == 10
    b1 = fq.build_fock(1, 7)
    assert all(b1.sector_dim(n) == 1 for n in range(8))
    b4 = fq.build_fock(4, 6)
    assert b4.dimension == 210
    for n in range(7):
        assert b4.sector_dim(n) == math.comb(n + 3, 3)


def test_basis_lexicographic_and_lookup():
    b = fq.build_fock(3, 4)
    occs = b.occupations[2]
    assert [tuple(o) for o in occs[:3]] == [(0, 0, 2), (0, 1, 1), (0, 2, 0)]
    for n in range(5):
        for idx, occ in enumerate(b.occupations[n]):
            assert b.index_of(occ) == (n, idx)
    with pytest.raises(KeyError):
        b.index_of((9, 0, 0))


def test_basis_codes_match_unique():
    # each sector's codes are the sorted distinct sums of the sector below's
    # codes and one radix step, as np.unique gives them; K = 1 and n = 0
    # hold the single-state sectors
    for K in range(1, 7):
        for n_max in range(9):
            b = fq.FockBasis(K, n_max)
            assert len(b.codes) == n_max + 1
            assert np.array_equal(b.codes[0], np.zeros(1, dtype=np.int64))
            for n in range(1, n_max + 1):
                sums = b.codes[n - 1][:, None] + b._radix
                assert b.codes[n].dtype == np.int64
                assert np.array_equal(b.codes[n], np.unique(sums))


def test_basis_radix_codes_fit_int64():
    # all N_max particles in mode 0 give the largest code, N_max * 3**(K-1):
    # under 2**63 at K = 40, over it at K = 41
    b = fq.build_fock(40, 2)
    for idx, occ in enumerate(b.occupations[2]):
        assert b.index_of(occ) == (2, idx)
    with pytest.raises(ConfigurationError, match="overflow"):
        fq.FockBasis(41, 2)


def test_sector_solve_over_byte_cap_is_refused_before_allocating(monkeypatch):
    # hopping along a chain of 8 modes joins each sector into one block;
    # sector 8 of FockBasis(8, 9) has 6435 states, whose dense block, numpy's
    # copy of it, its vectors and the syevd workspace take
    # 8 (5 m^2 + 8 m + 1) + 4 (5 m + 3) bytes, over the cap
    b = fq.FockBasis(8, 9)
    h1 = np.diag(np.arange(1.0, 9.0)) - np.eye(8, k=1) - np.eye(8, k=-1)
    H = fq.second_quantize_one_body(b, h1)
    m = b.sector_dim(8)
    need = 8 * (5 * m * m + 8 * m + 1) + 4 * (5 * m + 3)
    assert m == 6435 and need > MAX_DENSE_BYTES

    def refuse(*args, **kwargs):
        raise AssertionError("a block was solved")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError,
                           match=f"sector n=8: a 6435-state block needs {need} bytes"):
            fq.sector_eigensystems(H, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**26


def test_block_solves_peak_inside_byte_model():
    # _check_bytes' model, the vectors of all blocks plus the largest
    # block's solve, against the resident set's growth over the solves of
    # FockBasis(8, 5) with hopping (one block per sector, up to 792 states).
    # numpy's copy of a block and LAPACK's workspace come from malloc, which
    # tracemalloc does not see, so the peak is the VmHWM of a fresh
    # interpreter.  The model counts the largest block's vectors twice and
    # so stays above the peak, by under a fifth
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""
        from gibbslab import fock_quantum as fq
        import numpy as np
        def status_kb(key):
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith(key))
        b = fq.FockBasis(8, 5)
        h1 = np.diag(np.arange(1.0, 9.0)) - np.eye(8, k=1) - np.eye(8, k=-1)
        H = fq.second_quantize_one_body(b, h1)
        np.linalg.eigh(np.eye(40))  # maps numpy's LAPACK before the baseline
        sizes = [len(blk[0]) for _, blocks in H.sectors for blk in blocks]
        before = status_kb("VmRSS:")
        fq.sector_eigensystems(H, 0.0)
        print(status_kb("VmHWM:") - before, *sizes)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    growth_kb, *sizes = map(int, res.stdout.split())
    m = max(sizes)
    assert m == 792
    model = 8 * sum(s * s for s in sizes) + 8 * (5 * m * m + 8 * m + 1) + 4 * (5 * m + 3)
    assert 0.8 * model < growth_kb * 1024 <= model


def _layout(obj) -> dict:
    """Identity and size of each attribute of obj, and the identity of each
    entry of a list or dict attribute."""
    out = {}
    for name, value in vars(obj).items():
        entries = value.values() if isinstance(value, dict) else value
        out[name] = (id(value), np.shape(value) if isinstance(value, np.ndarray) else None,
                     tuple(map(id, entries)) if isinstance(value, (list, dict)) else None)
    return out


def _operator_arrays(*operators):
    """Each sector's diagonal and each block's states, dst and values."""
    return [a for H in operators for diagonal, blocks in H.sectors
            for a in (diagonal, *(x for blk in blocks for x in blk[:3]))]


def test_basis_read_only_after_init(op, bump):
    # every index table exists once the basis is built, and assembly, the
    # dense and diagonal Gibbs paths and both reduced densities only read
    # it: no attribute of the basis or array of a table is added, replaced
    # or resized.  The solves of a schedule, which threads share, also only
    # read H1 and Hpair: their arrays are read-only and stay in place
    b = fq.build_fock(3, 6)

    def snapshot():
        return _layout(b), {key: [(id(a), a.shape) for a in table]
                            for key, table in b.tables.items()}

    before = snapshot()
    H1 = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:3])
    Hp = fq.second_quantize_pair(b, build_pair_tensor(op, bump, 3))
    held = [(id(a), a.shape, a.tobytes()) for a in _operator_arrays(H1, Hp)]
    assert len(held) > 2 * b.num_sectors
    for H in (H1, H1 + Hp, H1 + Hp.scaled(0.5)):
        state = fq.gibbs_from_spectra(fq.sector_eigensystems(H, 0.0), 2.0).state
        for order in fq.ORDERS:
            fq.reduced_density(state, order)
    assert snapshot() == before
    assert [(id(a), a.shape, a.tobytes()) for a in _operator_arrays(H1, Hp)] == held
    for a in _operator_arrays(H1, Hp):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert sorted(b.tables) == [(k, n) for k in fq.ORDERS for n in range(k, 7)]
    # each table is a_t = a_t1 ... a_tk between sectors, exactly
    A, offsets = _dense_annihilators(b)
    for (k, n), (cols, vals) in b.tables.items():
        tuples, _ = fq.symmetric_basis(3, k)
        assert cols.shape == vals.shape == (len(tuples), b.sector_dim(n - k))
        for t, (c, v) in enumerate(zip(cols, vals)):
            a_t = functools.reduce(np.matmul, [A[i] for i in tuples[t]])
            ref = a_t[offsets[n - k]:offsets[n - k + 1], offsets[n]:offsets[n + 1]]
            got = np.zeros_like(ref)
            got[np.arange(len(c)), c] = v
            assert np.array_equal(got, ref), (k, n, t)


def test_basis_tables_read_only():
    b = fq.build_fock(2, 4)
    for cols, vals in b.tables.values():
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            vals[0, 0] = 0.0


def test_second_quantize_rejects_kernel_shape_and_order():
    b = fq.build_fock(3, 4)
    with pytest.raises(ConfigurationError, match="6x6"):
        fq.second_quantize(b, np.eye(9), 2)  # ordered pairs, not the symmetric basis
    with pytest.raises(ConfigurationError, match="3x3"):
        fq.second_quantize_one_body(b, np.eye(2))
    with pytest.raises(ConfigurationError, match="order"):
        fq.second_quantize(b, np.eye(10), 3)


def test_one_body_diagonal():
    b = fq.build_fock(2, 3)
    H = fq.second_quantize_one_body(b, np.array([1.0, 3.0]))
    n, i = b.index_of((2, 1))
    assert oracles.operator_sector(H, n)[i, i] == 5.0
    assert oracles.operator_sector(H, 0).shape == (1, 1) and H.triplets(0)[2].size == 0


def test_one_body_offdiagonal_ladder():
    b = fq.build_fock(2, 3)
    h = np.zeros((2, 2))
    h[0, 1] = 1.0  # a+_1 a_2
    H = fq.second_quantize_one_body(b, h)
    n, src = b.index_of((0, 1))
    _, dst = b.index_of((1, 0))
    assert oracles.operator_sector(H, n)[dst, src] == pytest.approx(1.0)
    n2, src2 = b.index_of((1, 1))
    _, dst2 = b.index_of((2, 0))
    assert oracles.operator_sector(H, n2)[dst2, src2] == pytest.approx(np.sqrt(2.0))


def test_pair_operator_single_mode(op, bump):
    t = build_pair_tensor(op, bump, 1)
    b = fq.build_fock(1, 5)
    Hp = fq.second_quantize_pair(b, t)
    assert Hp.triplets(0)[2].size == 0 and Hp.triplets(1)[2].size == 0
    W = oracles.fock_tensor(t)[0, 0, 0, 0]
    for n in range(2, 6):
        assert oracles.operator_sector(Hp, n)[0, 0] == pytest.approx(0.5 * W * n * (n - 1))


def test_pair_operator_two_particle_expectation(op, bump):
    # <u1 x u1 | W | u1 x u1> = 2 * bare interaction of u1
    t = build_pair_tensor(op, bump, 2)
    b = fq.build_fock(2, 3)
    Hp = fq.second_quantize_pair(b, t)
    n, i = b.index_of((2, 0))
    bare = quadratic_form(bump, op.eigenvectors[:, 0] ** 2)  # grid quadrature
    assert oracles.operator_sector(Hp, n)[i, i] == pytest.approx(2.0 * bare, rel=1e-10)


def test_pair_operator_hermitian(op, bump):
    t = build_pair_tensor(op, bump, 3)
    b = fq.build_fock(3, 6)
    Hp = fq.second_quantize_pair(b, t)
    for n in range(b.num_sectors):
        dense = oracles.operator_sector(Hp, n)
        assert np.abs(dense - dense.T).max() < 1e-12


def _dense_annihilators(b):
    """a_i on the whole truncated Fock space as dense matrices, via index_of."""
    offsets = np.cumsum([0] + [b.sector_dim(n) for n in range(b.num_sectors)])
    A = np.zeros((b.num_modes, offsets[-1], offsets[-1]))
    for n in range(1, b.num_sectors):
        for col, occ in enumerate(b.occupations[n]):
            for i in np.nonzero(occ)[0]:
                m, row = b.index_of(occ - np.eye(b.num_modes, dtype=np.int64)[i])
                A[i, offsets[m] + row, offsets[n] + col] = np.sqrt(occ[i])
    return A, offsets


def test_second_quantization_dense_oracle(op, bump):
    # every sector block against sums of products of dense full-space a_i;
    # sectors with three or more particles and tuples with repeated modes are
    # where a wrong kernel multiplicity would show
    K = 3
    b = fq.build_fock(K, 4)
    A, offsets = _dense_annihilators(b)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((K, K))  # not symmetric
    t = build_pair_tensor(op, bump, K)
    W = oracles.fock_tensor(t)
    cases = [
        (fq.second_quantize_one_body(b, h),
         sum(h[i, j] * A[i].T @ A[j] for i in range(K) for j in range(K))),
        (fq.second_quantize_pair(b, t),
         sum(0.5 * W[i, j, k, l] * A[i].T @ A[j].T @ A[k] @ A[l]
             for i, j, k, l in itertools.product(range(K), repeat=4))),
    ]
    for H, full in cases:
        for n in range(b.num_sectors):
            sector = slice(offsets[n], offsets[n + 1])
            ref, got = full[sector, sector], oracles.operator_sector(H, n)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), n


def test_reduced_density_dense_oracle(op, bump):
    # entry (s, t) is c_s c_t tr(Gamma a_t+ a_s) with dense full-space a_s;
    # the free state has only diagonal blocks, the interacting one dense
    # blocks from two particles on, the coherent one complex dense blocks
    K = 3
    b = fq.build_fock(K, 5)
    A, _ = _dense_annihilators(b)
    H1 = fq.second_quantize_one_body(b, op.eigenvalues[:K])
    Hp = fq.second_quantize_pair(b, build_pair_tensor(op, bump, K))
    states = [fq.gibbs_state(H1, 2.0, 0.0).state,
              fq.gibbs_state(H1 + Hp, 2.0, 0.0).state,
              oracles.coherent_state(np.array([0.5 + 0.3j, -0.4j, 0.2]), b).state]
    assert [any(isinstance(blk, list) for blk in s.blocks) for s in states] == [False, True, True]
    for state in states:
        gamma = scipy.linalg.block_diag(*map(oracles.dense_sector, state.blocks))
        for order in fq.ORDERS:
            tuples, c = fq.symmetric_basis(K, order)
            a = [functools.reduce(np.matmul, [A[i] for i in t]) for t in tuples]
            ref = np.array([[c[s] * c[t] * np.trace(gamma @ a[t].T @ a[s])
                             for t in range(len(tuples))] for s in range(len(tuples))])
            got = fq.reduced_density(state, order)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), order


def test_gibbs_single_mode_geometric():
    b = fq.build_fock(1, 25)
    H = fq.second_quantize_one_body(b, np.array([1.3]))
    T, nu = 0.9, 0.2
    res = fq.gibbs_state(H, T, nu)
    x = (1.3 - nu) / T
    Z = sum(np.exp(-n * x) for n in range(26))
    assert res.log_partition == pytest.approx(np.log(Z), abs=1e-12)
    assert res.free_energy == pytest.approx(-T * np.log(Z), abs=1e-12)
    # occupation approaches Bose-Einstein as the cutoff is raised
    assert res.mean_particles == pytest.approx(1.0 / np.expm1(x), abs=1e-9)


def test_gibbs_low_temperature_ground_state(op, bump):
    t = build_pair_tensor(op, bump, 2)
    b = fq.build_fock(2, 6)
    H = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:2]) \
        + fq.second_quantize_pair(b, t).scaled(0.5)
    res = fq.gibbs_state(H, 1e-3, 0.0)
    # vacuum is the ground sector here (all energies positive)
    assert res.free_energy == pytest.approx(0.0, abs=1e-6)
    assert oracles.sector_weights(res.state)[0] == pytest.approx(1.0, abs=1e-10)


def test_gibbs_constant_shift_invariance(op, bump):
    t = build_pair_tensor(op, bump, 2)
    b = fq.build_fock(2, 8)
    H = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:2]) \
        + fq.second_quantize_pair(b, t).scaled(0.2)
    base = fq.gibbs_state(H, 1.7, 0.3)
    shifted = fq.gibbs_state(H, 1.7, 0.3, E0=5.5)
    assert shifted.free_energy - base.free_energy == pytest.approx(5.5, abs=1e-9)
    for a, bblk in zip(base.state.blocks, shifted.state.blocks):
        assert np.abs(oracles.dense_sector(a) - oracles.dense_sector(bblk)).max() < 1e-12


def test_gibbs_saturation_flag():
    b = fq.build_fock(1, 3)
    H = fq.second_quantize_one_body(b, np.array([1.0]))
    res = fq.gibbs_state(H, 10.0, 0.0)
    assert not res.cutoff_safe
    assert res.top_sector_weight > fq.SATURATION_THRESHOLD


@pytest.mark.parametrize("T", [0.0, -1.0])
def test_temperature_must_be_positive(T):
    b = fq.build_fock(2, 6)
    H = fq.second_quantize_one_body(b, np.array([1.0, 2.5]))
    spectra = fq.sector_eigensystems(H, 0.0)
    with pytest.raises(ConfigurationError, match="temperature must be positive"):
        fq.gibbs_from_spectra(spectra, T)
    with pytest.raises(ConfigurationError, match="temperature must be positive"):
        fq.cutoff_audit(spectra, T, [2, 4, 6])
    with pytest.raises(ConfigurationError, match="temperature must be positive"):
        fq.gibbs_state(H, T, 0.0)


def test_reduced_density_free_bose_einstein():
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    b = fq.build_fock(4, 26)
    H = fq.second_quantize_one_body(b, lam)
    res = fq.gibbs_state(H, 1.0, 0.0)
    rdm1 = fq.reduced_density(res.state, 1)
    be = 1.0 / np.expm1(lam)
    assert np.abs(np.diag(rdm1).real - be).max() < 1e-8
    off = rdm1 - np.diag(np.diag(rdm1))
    assert np.abs(off).max() < 1e-12
    assert np.trace(rdm1).real == pytest.approx(res.mean_particles, abs=1e-10)
    # order 2, free product state: <a+k a+l a i a j> factorizes by Wick
    rdm2 = fq.reduced_density(res.state, 2)
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    for col, (i, j) in enumerate(pairs):
        c2 = 1.0 if i == j else 2.0
        expected = c2 * (2.0 * be[i] ** 2 if i == j else be[i] * be[j])
        assert rdm2[col, col].real == pytest.approx(expected, abs=1e-7)
    NN = np.sum(2 * be**2) + np.sum(np.outer(be, be)) - np.sum(be**2)
    assert np.trace(rdm2).real == pytest.approx(NN, abs=1e-7)


def test_reduced_density_vacuum_and_pure_pair():
    b = fq.build_fock(3, 4)
    vac = fq.FockState(basis=b, blocks=[np.ones(1)] + [
        np.zeros(b.sector_dim(n)) for n in range(1, 5)])
    assert not fq.reduced_density(vac, 1).any()
    assert not fq.reduced_density(vac, 2).any()
    # (a+_1)^2 |0> / sqrt(2)
    blocks = [np.zeros(b.sector_dim(n)) for n in range(5)]
    vec = np.zeros(b.sector_dim(2), dtype=complex)
    _, idx = b.index_of((2, 0, 0))
    vec[idx] = 1.0
    blocks[2] = [(np.arange(len(vec)), np.outer(vec, vec.conj()))]
    state = fq.FockState(basis=b, blocks=blocks)
    g1 = fq.reduced_density(state, 1)
    assert np.allclose(g1, np.diag([2.0, 0, 0]), atol=1e-12)
    g2 = fq.reduced_density(state, 2)
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    pp = pairs.index((0, 0))
    expected = np.zeros((len(pairs), len(pairs)))
    expected[pp, pp] = 2.0
    assert np.allclose(g2, expected, atol=1e-12)


def test_rdm2_index_permutation_symmetry(op, bump):
    t = build_pair_tensor(op, bump, 3)
    b = fq.build_fock(3, 7)
    H = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:3]) \
        + fq.second_quantize_pair(b, t).scaled(0.4)
    res = fq.gibbs_state(H, 2.0, 0.0)
    m = fq.reduced_density(res.state, 2)
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(m).min() > -1e-10


def test_energy_bookkeeping(op, bump):
    # tr(H Gamma) recomputed from the reduced densities
    K = 3
    t = build_pair_tensor(op, bump, K)
    b = fq.build_fock(K, 8)
    lam = op.unshifted_eigenvalues[:K]
    H1 = fq.second_quantize_one_body(b, lam)
    Hp = fq.second_quantize_pair(b, t)
    lam_coupling = 0.35
    H = H1 + Hp.scaled(lam_coupling)
    res = fq.gibbs_state(H, 1.8, 0.0)
    direct = sum(float(np.real((oracles.operator_sector(H, n)
                                * oracles.dense_sector(blk).T).sum()))
                 for n, blk in enumerate(res.state.blocks))
    rdm1 = fq.reduced_density(res.state, 1)
    rdm2 = fq.reduced_density(res.state, 2)
    pairs = [(i, j) for i in range(K) for j in range(i, K)]
    weights = np.array([1.0 if i == j else np.sqrt(2.0) for i, j in pairs])
    raw = rdm2 / np.outer(weights, weights)  # <a+k a+l a i a j> at ((ij),(kl))
    pair_energy = 0.0
    W = oracles.fock_tensor(t)
    for a, (i, j) in enumerate(pairs):
        for c, (k, l) in enumerate(pairs):
            mult = (1.0 if i == j else 2.0) * (1.0 if k == l else 2.0)
            # <a+ a+ a a> is symmetric within each pair, so contract against
            # the correspondingly symmetrized tensor
            w_sym = 0.25 * (W[k, l, i, j] + W[l, k, i, j]
                            + W[k, l, j, i] + W[l, k, j, i])
            pair_energy += 0.5 * w_sym * raw[a, c] * mult
    energy_from_rdm = float(np.sum(lam * np.diag(rdm1).real)) \
        + lam_coupling * float(np.real(pair_energy))
    assert energy_from_rdm == pytest.approx(direct, rel=1e-8)


def test_coherent_state_poisson():
    b = fq.build_fock(1, 40)
    rep = oracles.coherent_state(np.array([1.5 + 0.5j]), b)
    v2 = 1.5**2 + 0.5**2
    assert abs(rep.mean_particles - v2) < 1e-6
    assert abs(rep.captured_mass - 1.0) < 1e-6
    assert oracles.sector_weights(rep.state).sum() == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_vacuum_and_rank_one():
    b = fq.build_fock(2, 20)
    vac = oracles.coherent_state(np.zeros(2, dtype=complex), b)
    assert oracles.sector_weights(vac.state)[0] == pytest.approx(1.0)
    v = np.array([0.8 + 0.1j, -0.4 + 0.6j])
    rep = oracles.coherent_state(v, b)
    g1 = fq.reduced_density(rep.state, 1)
    assert np.abs(g1 - np.outer(v, v.conj())).max() < 1e-6
    evals = np.linalg.eigvalsh(g1)
    assert evals[-1] == pytest.approx(np.sum(np.abs(v) ** 2), abs=1e-6)


def test_symmetric_basis_order_and_weights():
    tuples, weights = fq.symmetric_basis(3, 1)
    assert tuples == [(0,), (1,), (2,)]
    assert weights.tolist() == [1.0, 1.0, 1.0]
    tuples, weights = fq.symmetric_basis(3, 2)
    assert tuples == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    r2 = np.sqrt(2.0)
    assert weights.tolist() == [1.0, r2, r2, 1.0, r2, 1.0]
    tuples, weights = fq.symmetric_basis(2, 3)
    assert tuples == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert np.allclose(weights, [1.0, np.sqrt(3.0), np.sqrt(3.0), 1.0], rtol=1e-15)
    # squared weights count the ordered k-tuples behind each sorted one
    for K, k in ((4, 2), (3, 3)):
        assert np.sum(fq.symmetric_basis(K, k)[1] ** 2) == pytest.approx(K**k, rel=1e-14)


def test_coherent_rdm_equals_one_sample_moment():
    # a coherent state's reduced densities are the moments of the one-point
    # measure at v, so both sides must share one tuple order and weighting
    v = np.array([0.3 + 0.2j, -0.25 + 0.1j, 0.15j])
    b = fq.build_fock(3, 16)
    state = oracles.coherent_state(v, b).state
    ens = Ensemble(coefficients=v[None, :].copy(), weights=np.ones(1), seed=0)
    for k in (1, 2):
        g = fq.reduced_density(state, k)
        m = cg.reduced_moment(ens, k).matrix
        assert g.shape == m.shape
        assert np.abs(g - m).max() < 1e-15, k


def test_coherent_truncation_warning():
    b = fq.build_fock(1, 6)
    with pytest.warns(UserWarning):
        rep = oracles.coherent_state(np.array([2.0 + 0j]), b)
    assert rep.truncation_warning
    assert rep.captured_mass < 1.0


def test_free_energy_functional_variational(op, bump):
    t = build_pair_tensor(op, bump, 2)
    b = fq.build_fock(2, 8)
    H = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:2]) \
        + fq.second_quantize_pair(b, t).scaled(0.3)
    res = fq.gibbs_state(H, 1.2, 0.1)
    assert oracles.free_energy_functional(res.state, H, 1.2, 0.1) == pytest.approx(
        res.free_energy, abs=1e-8)
    rng = np.random.default_rng(17)
    for _ in range(20):
        test_state = oracles.random_test_state(b, rng)
        val = oracles.free_energy_functional(test_state, H, 1.2, 0.1)
        assert val >= res.free_energy - 1e-9


def test_free_energy_functional_pure_state_entropy():
    b = fq.build_fock(2, 4)
    H = fq.second_quantize_one_body(b, np.array([1.0, 2.0]))
    blocks = [np.zeros(b.sector_dim(n)) for n in range(5)]
    vec = np.zeros(b.sector_dim(2), dtype=complex)
    vec[0] = 1.0
    blocks[2] = [(np.arange(len(vec)), np.outer(vec, vec.conj()))]
    state = fq.FockState(basis=b, blocks=blocks)
    occ = b.occupations[2][0]
    energy = float(occ @ np.array([1.0, 2.0]))
    assert oracles.free_energy_functional(state, H, 3.0, 0.0) == pytest.approx(energy, abs=1e-12)


def test_cutoff_audit():
    lam = np.array([1.0, 2.5])
    b = fq.build_fock(2, 30)
    spectra = fq.sector_eigensystems(fq.second_quantize_one_body(b, lam), 0.0)
    audit = fq.cutoff_audit(spectra, 1.0, [10, 16, 22, 28])
    assert audit.converged
    deltas = [r.delta_free_energy for r in audit.rows[1:]]
    assert all(b_ < a_ for a_, b_ in zip(deltas[:-1], deltas[1:]))
    F_exact = 1.0 * np.sum(np.log1p(-np.exp(-lam)))
    assert audit.rows[-1].free_energy == pytest.approx(F_exact, abs=1e-8)
    with pytest.raises(ConfigurationError, match="schedule"):
        fq.cutoff_audit(spectra, 1.0, [])
    for bad in (-1, 31):
        with pytest.raises(ConfigurationError, match="outside 0..30"):
            fq.boltzmann_weights(spectra, 1.0, bad)
        with pytest.raises(ConfigurationError, match="outside 0..30"):
            fq.cutoff_audit(spectra, 1.0, sorted([bad, 2]))


def _dense_cut_state(spectra, T, n_max, E0=0.0):
    """Free energy and dense Gibbs state cut at n_max particles: V diag(p) V^T
    on the sectors up to n_max (bare p on diagonal ones), zeros above."""
    kept = spectra.energies[:n_max + 1]
    e_min = min(float(e.min()) for e in kept)
    z = sum(float(np.exp(-(e - e_min) / T).sum()) for e in kept)
    blocks = []
    for n, (e, V) in enumerate(zip(spectra.energies, spectra.vectors)):
        p = np.exp(-(e - e_min) / T) / z if n <= n_max else np.zeros(len(e))
        blocks.append(p if V is None else [(np.arange(len(p)), _block_matrix(V, p))])
    F = float(-T * (np.log(z) - (e_min + E0) / T))
    return F, fq.FockState(basis=spectra.basis, blocks=blocks)


def _embedded(blocks, d):
    """Per-block vectors as one d x d matrix, zero between blocks."""
    full, col = np.zeros((d, d)), 0
    for states, V in blocks:
        full[states, col:col + len(states)] = V
        col += len(states)
    return full


def _block_matrix(blocks, diag):
    """The dense sector matrix V diag(diag) V^T of per-block vectors."""
    V = _embedded(blocks, len(diag))
    return (V * diag) @ V.T


def test_cutoff_audit_matches_dense_states(op, bump):
    # the audit reads sector weights as sums of level probabilities; the
    # dense states it used to assemble give the same free energies bit for
    # bit and the same <N> and top-sector weights up to roundoff
    K, T, nu, E0 = 3, 2.0, -0.3, 0.7
    b = fq.build_fock(K, 8)
    H = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:K]) \
        + fq.second_quantize_pair(b, build_pair_tensor(op, bump, K))
    schedule = [2, 4, 6, 8]
    spectra = fq.sector_eigensystems(H, nu)
    audit = fq.cutoff_audit(spectra, T, schedule, E0=E0)
    assert sum(V is not None for V in spectra.vectors) == 7
    prev = None
    for row, n_max in zip(audit.rows, schedule):
        F, state = _dense_cut_state(spectra, T, n_max, E0)
        weights = oracles.sector_weights(state)
        assert row.n_max == n_max
        assert row.free_energy == F
        assert row.mean_particles == pytest.approx(np.arange(len(weights)) @ weights,
                                                   rel=1e-14)
        assert row.top_sector_weight == pytest.approx(weights[n_max], rel=1e-14)
        if prev is None:
            assert np.isnan(row.delta_free_energy)
        else:
            assert row.delta_free_energy == abs(F - prev)
        prev = F


def test_study_1d_audit_matches_dense_states():
    # audit_delta_F is |F(n_max) - F(n_max - 2)| of the interacting state,
    # the last step of cutoff_audit on the same spectra bit for bit
    cfg = RunConfig()
    cfg.model.points = 128
    cfg.model.modes = 3
    cfg.interaction.amplitude = 0.4
    cfg.classical.samples = 200
    cfg.quantum.n_max = 8
    cfg.quantum.t_schedule = (2.0, 4.0)
    rep = run_study_1d(cfg)
    op = build_model_operator(cfg)
    tensor = build_pair_tensor(op, bind_potential(cfg, op.grid), cfg.model.modes)
    _, spectra_at = quantum_schedule(cfg, op, tensor)
    for p in rep.points:
        spectra = spectra_at(p.T)
        F_full, _ = _dense_cut_state(spectra, p.T, 8)
        F_cut, _ = _dense_cut_state(spectra, p.T, 6)
        assert p.free_energy_interacting == F_full
        assert p.audit_delta_F == abs(F_full - F_cut)
        audit = fq.cutoff_audit(spectra, p.T, [6, 8])
        assert p.audit_delta_F == audit.rows[-1].delta_free_energy


def test_number_operator(op):
    b = fq.build_fock(3, 5)
    # sum_i a+_i a_i: each diagonal entry sums sqrt(occ_i)^2, exact to roundoff
    N = fq.second_quantize_one_body(b, np.ones(3))
    for n in range(6):
        diag = np.diag(oracles.operator_sector(N, n))
        assert np.abs(diag - n).max() <= 4 * np.finfo(float).eps * n


def _interacting(op, bump, K, n_max):
    b = fq.build_fock(K, n_max)
    return b, fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:K]) \
        + fq.second_quantize_pair(b, build_pair_tensor(op, bump, K))


def _whole_sector_spectra(H, nu, b, driver=None):
    """Reference: one eigh of each shifted dense sector, one block each, by
    numpy's divide and conquer or by the given scipy driver."""
    energies, vectors = [], []
    for n in range(b.num_sectors):
        dense = oracles.operator_sector(H, n)
        if not np.any(dense - np.diag(np.diag(dense))):
            energies.append(np.diag(dense) - nu * n)
            vectors.append(None)
            continue
        dense[np.diag_indices_from(dense)] -= nu * n
        w, v = (np.linalg.eigh(dense) if driver is None
                else scipy.linalg.eigh(dense, driver=driver))
        energies.append(w)
        vectors.append([(np.arange(len(w)), v)])
    return fq.SectorSpectra(basis=b, energies=energies, vectors=vectors)


def _assert_parity_blocks(spectra, b, odd_modes, blocked):
    """Every dense sector holds two blocks, each on one parity class of the
    particles in odd_modes, ascending within, if blocked; one block if not."""
    for n, V in enumerate(spectra.vectors):
        if V is None:
            continue
        parity = b.occupations[n][:, odd_modes].sum(axis=1) % 2
        assert len(V) == (2 if blocked else 1), n
        col = 0
        for states, vecs in V:
            assert vecs.shape == (len(states), len(states))
            assert len(np.unique(parity[states])) == 1 or not blocked
            assert np.all(np.diff(spectra.energies[n][col:col + len(states)]) >= 0)
            col += len(states)
        all_states = np.sort(np.concatenate([states for states, _ in V]))
        assert np.array_equal(all_states, np.arange(len(parity)))


def test_parity_blocks_agree_with_one_block(op, bump, monkeypatch):
    # the pair interaction conserves the parity of the particles in odd modes:
    # the Gram splits its pairs by the mode labels, the solve finds the two
    # blocks in H itself, reproduces the whole-sector solve, and the Gibbs
    # state and both reduced densities have exact zeros between opposite
    # parities
    K, T, nu = 4, 2.0, -0.2
    labels = mode_parity(op, K)
    assert np.array_equal(labels, [1, -1, 1, -1])
    assert len(build_pair_tensor(op, bump, K).pairs) == 2
    b, H = _interacting(op, bump, K, 8)
    whole = _whole_sector_spectra(H, nu, b, driver="evr")
    blocked = fq.sector_eigensystems(H, nu)
    g_whole, g_blocked = fq.gibbs_from_spectra(whole, T), fq.gibbs_from_spectra(blocked, T)
    assert abs(g_blocked.free_energy - g_whole.free_energy) <= 1e-13 * abs(g_whole.free_energy)
    for k in fq.ORDERS:
        got = fq.reduced_density(g_blocked.state, k)
        assert np.abs(got - fq.reduced_density(g_whole.state, k)).max() <= 1e-13, k
        tuple_parity = np.array([np.sum(labels[list(t)] < 0) % 2
                                 for t in fq.symmetric_basis(K, k)[0]])
        assert np.all(got[tuple_parity[:, None] != tuple_parity[None, :]] == 0.0), k
    # gibbs_state gets the same blocks, given no labels
    solve, solved = fq.sector_eigensystems, []
    monkeypatch.setattr(fq, "sector_eigensystems",
                        lambda *args: solved.append(solve(*args)) or solved[-1])
    g_state = fq.gibbs_state(H, T, nu)
    assert len(solved) == 1
    for spectra in (blocked, *solved):
        # each block lives on one parity class; energies ascend within it
        _assert_parity_blocks(spectra, b, labels < 0, blocked=True)
        dense = 0
        for n in range(b.num_sectors):
            e, V = spectra.energies[n], spectra.vectors[n]
            assert (V is None) == (whole.vectors[n] is None)
            if V is None:
                assert np.array_equal(e, whole.energies[n])
                continue
            dense += 1
            parity = b.occupations[n][:, labels < 0].sum(axis=1) % 2
            cross = parity[:, None] != parity[None, :]
            for g in (g_blocked, g_state):
                # one matrix per parity class, nothing held between them
                assert len(g.state.blocks[n]) == 2
                assert all(len(np.unique(parity[states])) == 1 for states, _ in g.state.blocks[n])
                assert np.all(oracles.dense_sector(g.state.blocks[n])[cross] == 0.0)
            # each column lives on one parity class
            V = _embedded(V, b.sector_dim(n))
            col_parity = parity[np.argmax(np.abs(V), axis=0)]
            assert np.all(V[parity[:, None] != col_parity[None, :]] == 0.0)
            assert np.abs(np.sort(e) - whole.energies[n]).max() <= 1e-12 * np.abs(e).max()
        assert dense == 7


def test_block_solves_match_whole_sector_oracle(op, bump):
    # per-block divide-and-conquer spectra against one MRRR solve of each
    # whole sector: the Gibbs state, both reduced densities and the free
    # energy agree to roundoff
    K, T, nu = 4, 2.0, -0.2
    b, H = _interacting(op, bump, K, 8)
    g_blocked = fq.gibbs_from_spectra(fq.sector_eigensystems(H, nu), T)
    g_whole = fq.gibbs_from_spectra(_whole_sector_spectra(H, nu, b, driver="evr"), T)
    assert abs(g_blocked.free_energy - g_whole.free_energy) <= 1e-13 * abs(g_whole.free_energy)
    for got, ref in zip(g_blocked.state.blocks, g_whole.state.blocks):
        assert isinstance(got, list) == isinstance(ref, list)
        got, ref = oracles.dense_sector(got), oracles.dense_sector(ref)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13
    for k in fq.ORDERS:
        got = fq.reduced_density(g_blocked.state, k)
        assert np.abs(got - fq.reduced_density(g_whole.state, k)).max() <= 1e-13, k


def _assert_one_block(spectra, whole):
    for got, ref in zip(spectra.energies, whole.energies):
        assert np.array_equal(got, ref)
    for got, ref in zip(spectra.vectors, whole.vectors):
        assert (got is None) == (ref is None)
        if got is not None:
            assert len(got) == len(ref) == 1
            assert np.array_equal(got[0][0], ref[0][0]) and np.array_equal(got[0][1], ref[0][1])


def test_tilted_trap_has_no_parity_labels(bump):
    x = GridSpec(1, 6.0, 200).axis()
    op = build_one_body(GridSpec(1, 6.0, 200), "custom", 8, potential_array=x**4 + x)
    assert mode_parity(op, 3) is None
    assert len(build_pair_tensor(op, bump, 3).pairs) == 1
    b, H = _interacting(op, bump, 3, 6)
    spectra = fq.sector_eigensystems(H, 0.0)
    _assert_parity_blocks(spectra, b, [1], blocked=False)
    _assert_one_block(spectra, _whole_sector_spectra(H, 0.0, b))


def test_opposite_parity_coupling_merges_blocks(op, bump):
    # the odd mode 1 coupled to the even modes 0 and 2 on top of a
    # parity-cleaned pair term: H conserves no parity, so each dense sector
    # is solved whole, and nothing is refused
    b, H = _interacting(op, bump, 3, 4)
    h1 = np.zeros((3, 3))
    h1[0, 1] = h1[1, 0] = 0.3
    h1[1, 2] = h1[2, 1] = 0.2
    coupled = H + fq.second_quantize_one_body(b, h1)
    split = fq.sector_eigensystems(H, 0.0)
    merged = fq.sector_eigensystems(coupled, 0.0)
    _assert_one_block(merged, _whole_sector_spectra(coupled, 0.0, b))
    _assert_parity_blocks(split, b, [1], blocked=True)
    _assert_parity_blocks(merged, b, [1], blocked=False)
    for n in range(2, b.num_sectors):
        parity = b.occupations[n][:, 1] % 2
        for spectra, blocked in ((split, True), (merged, False)):
            V = _embedded(spectra.vectors[n], b.sector_dim(n))
            col_parity = parity[np.argmax(np.abs(V), axis=0)]
            assert np.all(V[parity[:, None] != col_parity[None, :]] == 0.0) == blocked


def _csgraph_spectra(H, nu):
    """Reference: each sector's blocks from scipy.sparse.csgraph, cut out of
    the dense sector by fancy indexing and solved by divide and conquer."""
    from scipy.sparse.csgraph import connected_components
    energies, vectors = [], []
    for n in range(H.basis.num_sectors):
        block = oracles.operator_sector(H, n)
        off = block - np.diag(np.diag(block))
        if not off.any():
            energies.append(np.diag(block) - nu * n)
            vectors.append(None)
            continue
        labels = connected_components(sp.csr_matrix(off), directed=False)[1]
        vals, vecs = [], []
        for c in range(labels.max() + 1):
            states = np.flatnonzero(labels == c)
            sub = block[np.ix_(states, states)]
            sub[np.diag_indices_from(sub)] -= nu * n
            w, v = np.linalg.eigh(sub)
            vals.append(w)
            vecs.append((states, v))
        energies.append(np.concatenate(vals))
        vectors.append(vecs)
    return fq.SectorSpectra(basis=H.basis, energies=energies, vectors=vectors)


def _assert_same_spectra(got, ref):
    for e, e_ref, V, V_ref in zip(got.energies, ref.energies, got.vectors, ref.vectors):
        assert np.array_equal(e, e_ref)
        assert (V is None) == (V_ref is None)
        if V is not None:
            assert len(V) == len(V_ref)
            for (s, v), (s_ref, v_ref) in zip(V, V_ref):
                assert np.array_equal(s, s_ref) and np.array_equal(v, v_ref)


def _coupling_cases(op, bump):
    """(H1, H2, parity-split) of the block structures: parity blocks, a
    tilted trap's one block, the odd mode coupled to the even ones by a
    non-diagonal H1, and that H1 against its negative, which cancels it
    at g = 1 only."""
    cases = []
    b = fq.build_fock(4, 8)
    H1 = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:4])
    cases.append((H1, fq.second_quantize_pair(b, build_pair_tensor(op, bump, 4)), True))
    x = GridSpec(1, 6.0, 200).axis()
    tilted = build_one_body(GridSpec(1, 6.0, 200), "custom", 8, potential_array=x**4 + x)
    b = fq.build_fock(3, 6)
    cases.append((fq.second_quantize_one_body(b, tilted.unshifted_eigenvalues[:3]),
                  fq.second_quantize_pair(b, build_pair_tensor(tilted, bump, 3)), False))
    b = fq.build_fock(3, 5)
    h1 = np.diag(op.unshifted_eigenvalues[:3])
    h1[0, 1] = h1[1, 0] = 0.3
    h1[1, 2] = h1[2, 1] = 0.2
    coupled = fq.second_quantize_one_body(b, h1)
    cases.append((coupled, fq.second_quantize_pair(b, build_pair_tensor(op, bump, 3)), False))
    cases.append((coupled, coupled.scaled(-1.0), False))
    return cases


def _triplets(H):
    return [H.triplets(n) for n in range(H.basis.num_sectors)]


def _fresh(H):
    """H built afresh from its own triplets."""
    return fq.FockOperator.from_triplets(H.basis, _triplets(H))


def test_blocked_spectra_match_fresh_solves(op, bump):
    # H1 + g Hpair, which keeps Hpair's blocks for a diagonal H1 and
    # rebuilds the sectors where both have blocks, solves as the operator
    # built afresh from its triplets and as the csgraph-labelled one bit
    # for bit, on parity blocks, one tilted block and a coupled H1, also
    # where H1 + Hpair itself would cancel
    nu = -0.2
    for H1, Hpair, split in _coupling_cases(op, bump):
        for g in (0.5, -1.7):
            H = H1 + Hpair.scaled(g)
            assert any(len(blocks) == 2 for _, blocks in H.sectors) == split
            blocked = fq.sector_eigensystems(H, nu)
            _assert_same_spectra(blocked, fq.sector_eigensystems(_fresh(H), nu))
            _assert_same_spectra(blocked, _csgraph_spectra(H, nu))


def test_sum_shares_pair_blocks(op, bump):
    # a diagonal H1 plus g Hpair holds Hpair's own read-only block arrays at
    # every g, as the schedule's solves do, and solves as the
    # csgraph-labelled operator bit for bit
    H1, Hpair, _ = _coupling_cases(op, bump)[0]
    nu = -0.2
    assert sum(len(blocks) for _, blocks in Hpair.sectors) > 2
    for g in (0.5, -1.7):
        H = H1 + Hpair.scaled(g)
        for (_, blocks), (_, own) in zip(H.sectors, Hpair.sectors):
            assert len(blocks) == len(own)
            for blk, ref in zip(blocks, own):
                assert blk[3] == g * ref[3]
                for a, b in zip(blk[:3], ref[:3]):
                    assert a is b and not a.flags.writeable
        _assert_same_spectra(fq.sector_eigensystems(H, nu), _csgraph_spectra(H, nu))


def _with_stored_zero(H, n, i, j):
    """H built with an explicit zero at (i, j) and (j, i) of sector n."""
    triplets = _triplets(H)
    rows, cols, data = triplets[n]
    triplets[n] = (np.r_[rows, i, j], np.r_[cols, j, i], np.r_[data, 0.0, 0.0])
    return fq.FockOperator.from_triplets(H.basis, triplets)


def test_stored_zeros_join_no_blocks(op, bump):
    # an explicit zero between the two parity blocks joins nothing, in an
    # operator alone or in either term of a sum: it is dropped when the
    # operator is built, the blocks stay apart, and the spectra are those
    # of the operators without it, bit for bit
    H1, Hpair, _ = _coupling_cases(op, bump)[0]
    labels = mode_parity(op, 4)
    n = 4
    parity = H1.basis.occupations[n][:, labels < 0].sum(axis=1) % 2
    i, j = np.flatnonzero(parity == 0)[0], np.flatnonzero(parity == 1)[0]
    pair_z, one_z = _with_stored_zero(Hpair, n, i, j), _with_stored_zero(H1, n, i, j)
    for got, ref in ((pair_z, Hpair), (one_z, H1)):
        assert all(np.array_equal(a, b) for a, b in zip(got.triplets(n), ref.triplets(n)))
    nu, g = 0.1, -0.8
    ref = fq.sector_eigensystems(H1 + Hpair.scaled(g), nu)
    for coupled in (H1 + pair_z.scaled(g), one_z + Hpair.scaled(g)):
        assert len(coupled.sectors[n][1]) == 2
        _assert_same_spectra(fq.sector_eigensystems(coupled, nu), ref)
    stored = _with_stored_zero(H1 + Hpair.scaled(g), n, i, j)
    assert len(stored.sectors[n][1]) == 2
    _assert_same_spectra(fq.sector_eigensystems(stored, nu), ref)


def test_duplicate_entries_are_summed(op, bump):
    # a sector given with every entry twice, as two exact halves, is summed
    # when the operator is built and solves as the operator itself, alone
    # or as either term of a sum
    H1, Hpair, _ = _coupling_cases(op, bump)[0]
    n, g, nu = 5, 0.7, 0.1
    triplets = _triplets(Hpair)
    rows, cols, data = triplets[n]
    triplets[n] = (np.repeat(rows, 2), np.repeat(cols, 2), np.repeat(0.5 * data, 2))
    twice = fq.FockOperator.from_triplets(Hpair.basis, triplets)
    assert all(np.array_equal(a, b) for a, b in zip(twice.triplets(n), Hpair.triplets(n)))
    ref = fq.sector_eigensystems(H1 + Hpair.scaled(g), nu)
    _assert_same_spectra(fq.sector_eigensystems(H1 + twice.scaled(g), nu), ref)
    _assert_same_spectra(fq.sector_eigensystems(twice + H1.scaled(1.0), 0.0),
                         fq.sector_eigensystems(Hpair + H1, 0.0))


def test_block_labels_match_csgraph(op, bump):
    # numpy label propagation numbers the components by their smallest
    # state, as csgraph does, on the Fock sectors and on random patterns
    from scipy.sparse.csgraph import connected_components
    patterns = []
    for H1, Hpair, _ in _coupling_cases(op, bump):
        for n, (rows, cols, _) in enumerate(_triplets(H1 + Hpair)):
            off = rows != cols
            if off.any():
                patterns.append((rows[off], cols[off], H1.basis.sector_dim(n)))
    rng = np.random.default_rng(3)
    for d, density in ((1, 0.0), (7, 0.1), (60, 0.02), (300, 0.004), (500, 0.01)):
        m = sp.random(d, d, density=density, random_state=rng, format="coo")
        m = (m + m.T).tocoo()
        patterns.append((m.row, m.col, d))
    # a path whose states alternate between the ends of the index range
    d = 101
    path = np.array([i // 2 if i % 2 == 0 else d - 1 - i // 2 for i in range(d)])
    patterns.append((path[:-1], path[1:], d))
    for rows, cols, d in patterns:
        graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(d, d))
        ref = connected_components(graph, directed=False)[1]
        assert np.array_equal(fq._component_labels(rows, cols, d), ref)


def test_whole_spectra_over_byte_cap_is_refused_before_allocating(op, bump, monkeypatch):
    # each block of FockBasis(4, 14) fits a cap set just under all the
    # vectors the spectra would hold plus the largest block's solve, so the
    # whole-spectra check refuses it, naming the bytes, before any solve
    b = fq.build_fock(4, 14)
    H = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:4]) \
        + fq.second_quantize_pair(b, build_pair_tensor(op, bump, 4))
    sizes = [len(blk[0]) for _, blocks in H.sectors for blk in blocks]
    held, m = 8 * sum(s * s for s in sizes), max(sizes)
    solve = 8 * (5 * m * m + 8 * m + 1) + 4 * (5 * m + 3)
    monkeypatch.setattr(fq, "MAX_DENSE_BYTES", held + solve - 1)
    assert solve < held

    def refuse(*args, **kwargs):
        raise AssertionError("a block was solved")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError,
                           match=f"hold {held} bytes of vectors and their largest block "
                                 f"solve needs {solve} more"):
            fq.sector_eigensystems(H, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**26
    # at the cap itself the spectra are solved
    monkeypatch.undo()
    monkeypatch.setattr(fq, "MAX_DENSE_BYTES", held + solve)
    assert len(fq.sector_eigensystems(H, 0.0).energies) == 15


def test_gibbs_state_holds_only_its_blocks(op, bump):
    # study-1d's quantum half (K = 4, N_max = 14): the Gibbs state keeps one
    # matrix per parity block, about half of the dense sector blocks'
    # 8 sum d_n^2 bytes, and allocates nothing between blocks
    b = fq.build_fock(4, 14)
    H = fq.second_quantize_one_body(b, op.unshifted_eigenvalues[:4]) \
        + fq.second_quantize_pair(b, build_pair_tensor(op, bump, 4))
    spectra = fq.sector_eigensystems(H, 0.0)
    dense = 8 * sum(b.sector_dim(n) ** 2 for n in range(b.num_sectors))
    tracemalloc.start()
    try:
        state = fq.gibbs_from_spectra(spectra, 2.0).state
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * dense
    assert sum(G.nbytes for blk in state.blocks if isinstance(blk, list) for _, G in blk) \
        < 0.55 * dense


def test_1d_commands_leave_scipy_unloaded(tmp_path):
    # the 1D pipeline runs on numpy alone: its one-body solve, Fock blocks,
    # block solves and sampling never import a scipy module
    root = Path(__file__).resolve().parent.parent
    config = tmp_path / "small.ini"
    config.write_text(textwrap.dedent("""
        [model]
        points = 128
        modes = 3
        [classical]
        samples = 200
        [quantum]
        n_max = 6
        t_schedule = 2, 4
    """), encoding="utf-8")
    script = textwrap.dedent("""
        import sys
        from gibbslab import cli
        for command in ("spectrum", "sample-gaussian", "classical-gibbs",
                        "quantum-gibbs", "study-1d"):
            assert cli.main([command, "--config", "small.ini", "--out", command]) == 0
        print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert res.stdout.strip() == "[]"


def test_2d_hartree_leaves_scipy_unloaded(tmp_path):
    # the counterterm scheme builds its dense operator and solves it in
    # numpy; only the 1D free-gas quadrature would import scipy
    root = Path(__file__).resolve().parent.parent
    config = tmp_path / "small.ini"
    config.write_text(textwrap.dedent("""
        [model]
        dimension = 2
        s = 2.0
        half_width = 8.0
        points = 32
        modes = 4
        [interaction]
        amplitude = 0.05
        sigma = 1.25
        [quantum]
        n_max = 6
        [hartree]
        t_schedule = 4, 8
        points = 12
        shared_modes = 8
        kappa = 4.0
        damping = 0.85
    """), encoding="utf-8")
    script = textwrap.dedent("""
        import sys
        from gibbslab import cli
        assert cli.main(["hartree", "--config", "small.ini", "--out", "hartree"]) == 0
        print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert res.stdout.strip() == "[]"
