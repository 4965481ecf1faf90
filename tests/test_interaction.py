import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from gibbslab.config import MAX_DENSE_BYTES, ConfigurationError
from gibbslab.gaussian import Ensemble, sample_gaussian
from gibbslab.interaction import (_next_fast_len, batch_interactions, build_pair_tensor,
                                  convolve, direct_term, exchange_term,
                                  make_pair_potential, quadratic_form, wick_shift)
from gibbslab.spectral import GridSpec, build_one_body, green_diagonal, mode_parity

import oracles


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 6.0, 200)


@pytest.fixture(scope="module")
def op(grid):
    return build_one_body(grid, "power", 12, s=4.0)


@pytest.fixture(scope="module")
def bump(grid):
    return make_pair_potential("gaussian-bump", grid, amplitude=0.5, sigma=0.6)


@pytest.fixture(scope="module")
def delta(grid):
    return make_pair_potential("grid-delta", grid, amplitude=0.4)


@pytest.fixture(scope="module")
def op2d():
    return build_one_body(GridSpec(2, 6.0, 32), "power", 24, s=4.0)


@pytest.fixture(scope="module")
def bump2d(op2d):
    return make_pair_potential("gaussian-bump", op2d.grid, amplitude=0.5, sigma=0.6)


def brute_quadratic(w, density, amplitude, sigma=None):
    """O(M^2) reference for the convolution quadrature of a Gaussian bump of
    the given amplitude and sigma, or of a grid delta when sigma is None."""
    g = w.grid
    M = g.points
    x = g.axis()
    out = 0.0
    for i in range(M):
        for j in range(M):
            off = abs(x[i] - x[j])
            if sigma is not None:
                val = amplitude * np.exp(-off**2 / (2 * sigma**2))
            else:
                val = amplitude / g.cell_volume if i == j else 0.0
            out += density[i] * val * density[j]
    return 0.5 * out


def one(coeffs) -> Ensemble:
    """Batch-of-one ensemble holding a single field."""
    a = np.asarray(coeffs, dtype=complex)[None, :]
    return Ensemble(coefficients=a, weights=np.ones(1), seed=0)


def energy(op, w, coeffs, renormalized=False) -> float:
    """Gram-path interaction of one field at its own cutoff."""
    ens = one(coeffs)
    tensor = build_pair_tensor(op, w, ens.cutoff)
    return float(batch_interactions(ens, op, tensor, renormalized)[0])


def grid_oracle(ens, op, w, renormalized):
    """Grid quadrature of (1/2) iint rho w rho with rho = |u|^2 (- rho_K)."""
    rho = np.abs(oracles.fields_on_grid(ens, op)) ** 2
    if renormalized:
        rho = rho - green_diagonal(op, ens.cutoff)
    return quadratic_form(w, rho)


def test_kernel_properties(bump, delta):
    for w in (bump, delta):
        assert w.w_hat_min > -1e-10
        assert w.w_hat_zero >= 0
    for w in (bump, delta):  # the numerical transform at k = 0
        w_hat_0 = w.kernel_fft.flat[0].real * w.grid.cell_volume
        assert w_hat_0 == pytest.approx(w.w_hat_zero, rel=1e-12)


def test_convolution_against_brute_force(bump, delta, op):
    rng = np.random.default_rng(0)
    dens = rng.random(op.grid.total_points)
    for w, amplitude, sigma in ((bump, 0.5, 0.6), (delta, 0.4, None)):
        assert quadratic_form(w, dens) == pytest.approx(
            brute_quadratic(w, dens, amplitude, sigma), rel=1e-10)


def padded_convolve(w, density):
    """The zero-padded definition: embed the data in the padded grid, then
    transform the whole array."""
    g = w.grid
    shape = w.kernel.shape
    axes = tuple(range(1, g.dimension + 1))
    crop = (slice(None),) + (slice(g.points),) * g.dimension
    dens = density.reshape((-1,) + (g.points,) * g.dimension)
    buf = np.zeros((len(dens),) + shape)
    buf[crop] = dens
    conv = scipy.fft.irfftn(scipy.fft.rfftn(buf, axes=axes) * w.kernel_fft,
                            s=shape, axes=axes)
    out = conv[crop].reshape(len(dens), -1)
    return out if density.ndim == 2 else out[0]


def test_convolve_matches_padded_definition():
    # only the data rows are transformed, yet every value equals the padded
    # definition bit for bit, so documents built on it stay byte-identical
    rng = np.random.default_rng(5)
    for d, n, P in ((1, 64, 128), (1, 513, 1029), (1, 3072, 6144),
                    (2, 24, 48), (2, 33, 66), (2, 64, 128)):
        w = make_pair_potential("gaussian-bump", GridSpec(d, 6.0, n),
                                amplitude=0.5, sigma=0.6)
        assert w.kernel.shape == (P,) * d
        batch = rng.random((4, n**d))
        assert np.array_equal(convolve(w, batch), padded_convolve(w, batch))
        assert np.array_equal(convolve(w, batch[1]), padded_convolve(w, batch[1]))


def test_next_fast_len_matches_scipy():
    assert all(_next_fast_len(n) == scipy.fft.next_fast_len(n) for n in range(1, 20001))


def test_tabulated_matches_bump(grid, bump):
    r = np.linspace(0, 15.0, 4001)
    table = np.column_stack([r, 0.5 * np.exp(-(r**2) / (2 * 0.6**2))])
    tab = make_pair_potential("tabulated", grid, table=table)
    rng = np.random.default_rng(1)
    dens = rng.random(grid.total_points)
    a = quadratic_form(bump, dens)
    b = quadratic_form(tab, dens)
    assert b == pytest.approx(a, rel=1e-6)


def test_bare_zero_field(op, bump):
    assert energy(op, bump, np.zeros(4)) == 0.0


def test_bare_delta_on_ground_mode(op, delta, grid):
    rho = np.abs(op.eigenvectors[:, 0]) ** 2
    # 0.5 c int |u1|^4: stored vectors fold the cell volume once per factor
    oracle = 0.5 * 0.4 * np.sum(rho**2) / grid.cell_volume
    assert energy(op, delta, [1.0]) == pytest.approx(oracle, rel=1e-12)


def test_quartic_scaling(op, bump):
    rng = np.random.default_rng(2)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v1 = energy(op, bump, a)
    v2 = energy(op, bump, 2.0 * a)
    assert v2 == pytest.approx(16.0 * v1, rel=1e-12)


def test_phase_invariance(op, bump):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    base = energy(op, bump, a)
    rot = energy(op, bump, np.exp(0.73j) * a)
    assert rot == pytest.approx(base, rel=1e-10)
    rb = energy(op, bump, a, renormalized=True)
    rr = energy(op, bump, np.exp(0.73j) * a, renormalized=True)
    assert rr == pytest.approx(rb, rel=1e-10)


def test_renormalized_single_mode_closed_form(op, bump):
    W1 = oracles.fock_tensor(build_pair_tensor(op, bump, 1))[0, 0, 0, 0]
    lam1 = op.eigenvalues[0]
    for amp in (0.3, 1.7):
        expected = 0.5 * (amp**2 - 1.0 / lam1) ** 2 * W1
        assert energy(op, bump, [amp], renormalized=True) == pytest.approx(expected, abs=1e-12)
    centred = energy(op, bump, [1.0 / np.sqrt(lam1)], renormalized=True)
    assert abs(centred) < 1e-14


def test_renormalized_cutoff_mismatch(op, bump):
    # a tensor serves every cutoff up to its own, never beyond
    with pytest.raises(ConfigurationError):
        batch_interactions(one(np.ones(4)), op, build_pair_tensor(op, bump, 3),
                           renormalized=True)


def test_positivity_on_samples(op, bump):
    ens = sample_gaussian(op, 6, 4000, seed=8)
    tensor = build_pair_tensor(op, bump, 6)
    bare = batch_interactions(ens, op, tensor, renormalized=False)
    ren = batch_interactions(ens, op, tensor, renormalized=True)
    assert bare.min() > -1e-10
    assert ren.min() > -1e-10


def test_mode_path_equals_grid_path(op, bump, op2d, bump2d):
    # Gram energies against grid quadrature, in 1D and 2D, at the tensor's
    # cutoff and at a smaller one served by its leading block
    for o, w, K in ((op, bump, 12), (op2d, bump2d, 24)):
        ens = sample_gaussian(o, K, 300, seed=9)
        tensor = build_pair_tensor(o, w, K)
        for sub in (ens, ens.truncated(K // 2)):
            for renorm in (False, True):
                a = batch_interactions(sub, o, tensor, renorm)
                b = grid_oracle(sub, o, w, renorm)
                assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))


def test_wick_shift_against_per_sample_oracle(op2d, bump2d, grid, bump):
    # bare form plus shift against (1/2)(f - c)^T Q (f - c) sample by sample,
    # with reflection labels (2D) and without them (a tilted 1D trap), at the
    # tensor's cutoff and at a smaller one served by its leading blocks
    x = grid.axis()
    tilted = build_one_body(grid, "custom", 8, potential_array=x**4 + x)
    assert mode_parity(op2d, 24) is not None and mode_parity(tilted, 8) is None
    for o, w, K in ((op2d, bump2d, 24), (tilted, bump, 8)):
        tensor = build_pair_tensor(o, w, K)
        ens = sample_gaussian(o, K, 300, seed=10)
        for sub in (ens, ens.truncated(K // 2)):
            ref = oracles.renormalized_energies(sub, o, tensor)
            bare = batch_interactions(sub, o, tensor, renormalized=False)
            tol = 1e-13 * np.abs(ref).max()
            assert np.abs(wick_shift(sub, o, tensor, bare) - ref).max() <= tol
            assert np.abs(batch_interactions(sub, o, tensor, True) - ref).max() <= tol


def test_zero_field_wick_shift_is_direct_term():
    # at alpha = 0 only (1/2) c^T Q c is left: the direct term, through the
    # Gram rather than a convolution of rho_K
    op2 = build_one_body(GridSpec(2, 8.0, 32), "power", 64, s=2.0)
    w2 = make_pair_potential("gaussian-bump", op2.grid, amplitude=0.05, sigma=1.25)
    tensor = build_pair_tensor(op2, w2, 64)
    for K in (8, 16, 32, 64):
        shift = wick_shift(one(np.zeros(K)), op2, tensor, np.zeros(1))[0]
        assert shift == pytest.approx(direct_term(op2, w2, K), rel=1e-14)


def test_gram_leading_block(op, bump, op2d, bump2d):
    # pairs of a smaller cutoff come first, so its Gram is the leading block
    for o, w, K, K2 in ((op, bump, 12, 5), (op2d, bump2d, 24, 10)):
        big = build_pair_tensor(o, w, K).gram
        small = build_pair_tensor(o, w, K2).gram
        P = K2 * (K2 + 1) // 2
        assert small.shape == (P, P)
        assert np.abs(big[:P, :P] - small).max() <= 1e-14 * np.abs(small).max()


def test_direct_exchange_from_gram(op, bump):
    # the convolution paths of the free-measure terms against Q itself
    K = 7
    Q = build_pair_tensor(op, bump, K).gram
    lam = op.eigenvalues[:K]
    b, a = np.tril_indices(K)
    g = np.where(a == b, 1.0 / lam[a], 0.0)
    assert direct_term(op, bump, K) == pytest.approx(0.5 * g @ Q @ g, rel=1e-12)
    fac = np.where(a == b, 1.0, 2.0) / (lam[a] * lam[b])
    assert exchange_term(op, bump, K) == pytest.approx(0.5 * fac @ np.diag(Q), rel=1e-12)


def test_exchange_from_gram_matches_streamed(op, bump, op2d, bump2d, monkeypatch):
    # diag(Q) from a Gram's leading block against the streamed convolutions;
    # with both convolution routes raising, the tensor path shows it
    # convolves nothing.  The potentials own their eigenfactors, so neither
    # route factors a Toeplitz table.  The 2D tabulated kernel is not rank
    # one, so it is streamed by FFT over the pair classes of the labelled
    # modes.  The tensor cutoffs stay below the eigenpair counts (12 and 24)
    from gibbslab import interaction, spectral
    exp2d = make_pair_potential("tabulated", op2d.grid, table=exp_table())
    assert exp2d.factors is None and mode_parity(op2d, 20) is not None
    assert bump2d.factors is not None
    for o, w, Kt in ((op, bump, 10), (op2d, bump2d, 20), (op2d, exp2d, 20)):
        with monkeypatch.context() as m:
            for module in (interaction, spectral):
                m.setattr(module, "reflection_eigh", lambda *args: 1 / 0)
            t = build_pair_tensor(o, w, Kt)
            streamed = {K: exchange_term(o, w, K) for K in (1, Kt // 2, Kt)}
        with monkeypatch.context() as m:
            m.setattr(interaction, "convolve", lambda *args: 1 / 0)
            m.setattr(interaction, "_pair_features", lambda *args: 1 / 0)
            for K, ref in streamed.items():
                assert exchange_term(o, w, K, t) == pytest.approx(ref, rel=1e-13)
        with pytest.raises(ConfigurationError, match="exceeds"):
            exchange_term(o, w, Kt + 1, t)


def test_cutoff_beyond_eigenpairs(op, bump):
    # every reader of the first K eigenpairs refuses K outside 1..12, the
    # computed ones, through OneBodyOperator.modes
    assert op.num_modes == 12
    readers = [lambda K: sample_gaussian(op, K, 5, seed=1),
               lambda K: green_diagonal(op, K), lambda K: mode_parity(op, K)]
    readers += [lambda K, f=f: f(op, bump, K)
                for f in (direct_term, exchange_term, build_pair_tensor)]
    for f in readers:
        for K in (0, 13):
            with pytest.raises(ConfigurationError,
                               match=rf"^K={K} out of range \(have 12 modes\)$"):
                f(K)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, -0.6, 1e-300])
def test_gaussian_bump_refuses_sigma_without_positive_square(dimension, sigma):
    # 1e-300 is positive but squares to 0, which would put -0/0 at the origin
    with pytest.raises(ConfigurationError, match="sigma"):
        make_pair_potential("gaussian-bump", GridSpec(dimension, 6.0, 16), sigma=sigma)


def test_exchange_rank_one(op, bump):
    W1 = oracles.fock_tensor(build_pair_tensor(op, bump, 1))[0, 0, 0, 0]
    lam1 = op.eigenvalues[0]
    assert exchange_term(op, bump, 1) == pytest.approx(0.5 * W1 / lam1**2, rel=1e-12)
    assert direct_term(op, bump, 1) == pytest.approx(exchange_term(op, bump, 1), rel=1e-12)


def test_exchange_two_paths(op, delta):
    # tensor contraction against the convolution path
    K = 5
    t = build_pair_tensor(op, delta, K)
    lam = op.eigenvalues[:K]
    oracle = 0.5 * sum(oracles.fock_tensor(t)[a, b, a, b] / (lam[a] * lam[b])
                       for a in range(K) for b in range(K))
    assert exchange_term(op, delta, K) == pytest.approx(oracle, rel=1e-10)


def test_wick_identities_monte_carlo(op, bump):
    ens = sample_gaussian(op, 8, 30_000, seed=10)
    tensor = build_pair_tensor(op, bump, 8)
    for K in (1, 4, 8):
        sub = ens.truncated(K)
        bare = batch_interactions(sub, op, tensor, renormalized=False)
        ren = batch_interactions(sub, op, tensor, renormalized=True)
        mb, sb = bare.mean(), bare.std(ddof=1) / np.sqrt(len(bare))
        mr, sr = ren.mean(), ren.std(ddof=1) / np.sqrt(len(ren))
        assert abs(mb - (direct_term(op, bump, K) + exchange_term(op, bump, K))) < 4.0 * sb
        assert abs(mr - exchange_term(op, bump, K)) < 4.0 * sr


def test_direct_sequence_1d_converges(op, bump):
    # partial sums of a convergent series: doubling increments decrease;
    # the sub-1% final change needs K in the hundreds (tail ~ K^(-2/3))
    # and is exercised at full size in the acceptance suite
    vals = [direct_term(op, bump, K) for K in (3, 6, 12)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
    exch = [exchange_term(op, bump, K) for K in (3, 6, 12)]
    assert abs(exch[2] - exch[1]) / exch[2] < 0.01


def test_direct_diverges_exchange_stabilizes_2d():
    # s=4 keeps the 2D trap strictly Hilbert-Schmidt; at s=2 (the boundary)
    # the exchange increments plateau instead of shrinking
    g2 = GridSpec(2, 6.0, 64)
    op2 = build_one_body(g2, "power", 32, s=4.0)
    w2 = make_pair_potential("gaussian-bump", g2, amplitude=0.1, sigma=1.0)
    ks = (4, 8, 16, 32)
    direct = [direct_term(op2, w2, K) for K in ks]
    exch = [exchange_term(op2, w2, K) for K in ks]
    for a, b in zip(direct[:-1], direct[1:]):
        assert b - a > 1e-3 * abs(b)
    incs = [b - a for a, b in zip(exch[:-1], exch[1:])]
    assert incs[0] > incs[1] > incs[2] > 0


def test_pair_tensor_symmetries(op, bump):
    # exact: both symmetries are index identities of the symmetric Gram
    t = oracles.fock_tensor(build_pair_tensor(op, bump, 4))
    assert np.array_equal(t, t.transpose(1, 0, 3, 2))  # particle exchange
    assert np.array_equal(t, t.transpose(3, 2, 1, 0))  # hermiticity (real)


def test_pair_tensor_constant_potential_factorizes(op):
    # sigma much larger than the box makes w effectively constant = a
    flat = make_pair_potential("gaussian-bump", op.grid, amplitude=0.7, sigma=500.0)
    t = oracles.fock_tensor(build_pair_tensor(op, flat, 3))
    K = 3
    expected = 0.7 * np.einsum("il,jk->ijkl", np.eye(K), np.eye(K))
    assert np.abs(t - expected).max() < 1e-3


def test_pair_matrix_psd(op, bump):
    q = build_pair_tensor(op, bump, 5).gram
    assert np.array_equal(q, q.T)
    assert np.linalg.eigvalsh(q).min() > -1e-10


def test_negative_transform_warns_at_gram_build():
    # a top-hat's transform is a sinc that dips negative, so its pair Gram
    # need not be positive semidefinite; a Gaussian's transform is positive
    grid = GridSpec(1, 6.0, 128)
    small = build_one_body(grid, "power", 4, s=4.0)
    r = np.linspace(0.0, 3.0, 301)
    hat = make_pair_potential("tabulated", grid,
                              table=np.column_stack([r, np.where(r < 1.0, 0.4, 0.0)]))
    assert hat.w_hat_min == pytest.approx(-0.17, abs=0.01)
    with pytest.warns(UserWarning, match="transform dips negative"):
        build_pair_tensor(small, hat, 4)
    gauss = make_pair_potential("gaussian-bump", grid, amplitude=0.4, sigma=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_pair_tensor(small, gauss, 4)


def test_tensor_byte_cap(bump):
    # K = 200 on 400 points: the even and odd modes give pair classes of
    # 10100 and 10000 pairs, which need 8 (10100^2 + 10000^2 + 10100 * 400)
    # bytes, and one 64-row chunk's FFT working set on the padded side of
    # 800 points 8 * 4 * 64 * 401 more, over the cap; the refusal comes
    # before any allocation
    g = GridSpec(1, 6.0, 400)
    big = build_one_body(g, "power", 200, s=4.0)
    w = make_pair_potential("gaussian-bump", g, amplitude=0.5, sigma=0.6)
    assert np.sum(mode_parity(big, 200) < 0) == 100
    assert w.kernel.shape == (800,)
    need = 8 * (10100**2 + 10000**2 + 10100 * 400 + 4 * 64 * 401)
    assert need > MAX_DENSE_BYTES
    with pytest.raises(ConfigurationError, match=f"K=200 needs {need} bytes"):
        build_pair_tensor(big, w, 200)


def exp_table():
    """Radial (offset, value) table of 0.05 exp(-r / 1.25): not rank one in 2D.
    gram_growth's child builds the same table."""
    r = np.linspace(0.0, 30.0, 3001)
    return np.column_stack([r, 0.05 * np.exp(-r / 1.25)])


def gram_growth(kind):
    """(growth, byte model, separable) of the K = 64 Gram build on 64² in a
    fresh child.

    The byte model checked against MAX_DENSE_BYTES counts every class
    block, the held features of each class's m_c pairs, one class at a
    time, and one 64-row chunk's working set.  A rank-one kernel's tables
    have numerical ranks ex + ox and ey + oy, split by the parity of their
    eigenvectors under the grid reversal (the ranks of the tables projected
    on the even and odd vectors, at the tolerance of the whole table).  A
    pair of the even class holds ex ey + ox oy eigenfactor coefficients and
    one of the odd class ex oy + ox ey, those whose parity matches its
    own, and a chunk's projection holds 64 (N + n ry + 2 rx ry) numbers on
    an n x n grid of N points; otherwise the pairs hold their densities of
    N points and a chunk 1.5 complex spectra of shape (64, P, P/2 + 1).
    Growth runs from the resident set just before the build to the peak of
    the child's own address space: ru_maxrss would carry over the peak of
    the test process that spawned it.
    """
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""
        import numpy as np
        from gibbslab.interaction import build_pair_tensor, make_pair_potential
        from gibbslab.spectral import GridSpec, build_one_body
        def status_kb(key):
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith(key))
        op = build_one_body(GridSpec(2, 8.0, 64), "power", 96, s=2.0)
        r = np.linspace(0.0, 30.0, 3001)
        w = make_pair_potential(%r, op.grid, amplitude=0.05, sigma=1.25,
                                table=np.column_stack([r, 0.05 * np.exp(-r / 1.25)]))
        before = status_kb("VmRSS:")
        t = build_pair_tensor(op, w, 64)
        after = status_kb("VmHWM:")
        import oracles
        tables = () if w.factors is None else oracles.toeplitz_tables(w)
        def parity_ranks(T):
            tol = len(T) * np.finfo(float).eps * np.abs(np.linalg.eigvalsh(T)).max()
            proj = [(np.eye(len(T)) + p * np.eye(len(T))[::-1]) / 2 for p in (1, -1)]
            return [np.linalg.matrix_rank(P @ T @ P, tol=tol, hermitian=True) for P in proj]
        ranks = [r for T in tables for r in parity_ranks(T)]
        print(before, after, int(w.factors is not None), op.grid.total_points,
              w.kernel.shape[0], *(ranks or (0,) * 4), *(len(pos) for pos in t.pairs))
    """ % kind)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    before_kb, after_kb, separable, N, P, ex, ox, ey, oy, *sizes = map(
        int, res.stdout.split())
    assert len(sizes) == 2 and sum(sizes) == 64 * 65 // 2
    if separable:
        rx, ry = ex + ox, ey + oy
        held, work = (ex * ey + ox * oy, ex * oy + ox * ey), 64 * (N + 64 * ry + 2 * rx * ry)
    else:
        held, work = (N, N), 3 * 64 * P * (P // 2 + 1)
    model = 8 * (sum(m * m for m in sizes) + max(m * h for m, h in zip(sizes, held)) + work)
    return (after_kb - before_kb) * 1024, model, bool(separable)


def test_gram_peak_rss():
    # the Gaussian bump is rank one: eigenfactor coefficients, far fewer
    # than the 4096 grid points, and their model
    growth, model, separable = gram_growth("gaussian-bump")
    assert separable
    assert growth <= 1.25 * model


def test_gram_peak_rss_fft_model():
    # a tabulated exponential fails the rank-one check and stays on the FFT
    growth, model, separable = gram_growth("tabulated")
    assert not separable
    assert growth <= 1.25 * model


def test_energy_peak_rss():
    # renormalized energies at K = 64 (2080 pairs) on 1000 samples hold one
    # block of at most _SAMPLE_CHUNK x _PAIR_CHUNK pair features, never the
    # (1000, m_c) features of a whole pair class and their products.  The
    # tensor is built first on a 1D grid small enough that the build's own
    # peak stays far below the bound
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""
        from gibbslab.gaussian import sample_gaussian
        from gibbslab.interaction import (batch_interactions, build_pair_tensor,
                                          make_pair_potential)
        from gibbslab.spectral import GridSpec, build_one_body
        def status_kb(key):
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith(key))
        op = build_one_body(GridSpec(1, 6.0, 200), "power", 64, s=4.0)
        w = make_pair_potential("gaussian-bump", op.grid, amplitude=0.5, sigma=0.6)
        tensor = build_pair_tensor(op, w, 64)
        ens = sample_gaussian(op, 64, 1000, seed=3)
        before = status_kb("VmRSS:")
        batch_interactions(ens, op, tensor, renormalized=True)
        after = status_kb("VmHWM:")
        print(before, after)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    before_kb, after_kb = map(int, res.stdout.split())
    assert (after_kb - before_kb) * 1024 <= 8 * 2**20


def single_class_gram(op, w, K):
    """Every pair in one class, as the Gram was built before the blocking:
    the lower triangle in 64-pair chunks, then mirrored."""
    b, a = np.tril_indices(K)
    U = op.eigenvectors[:, :K].T
    dens = U[a] * U[b]
    Q = np.zeros((len(a), len(a)))
    for lo in range(0, len(a), 64):
        hi = min(lo + 64, len(a))
        Q[lo:hi, :hi] = convolve(w, dens[lo:hi]) @ dens[:hi].T
    for i in range(len(a) - 1):
        Q[i, i + 1:] = Q[i + 1:, i]
    return Q


@pytest.mark.parametrize("case", ["quartic-1d", "harmonic-2d", "harmonic-2d-33", "delta-2d"])
def test_blocked_gram_matches_single_class(case, op, bump):
    # on reflection-symmetric traps the pairs split by pair parity p_a p_b;
    # the blocks agree with the single-class Gram, and the entries the blocks
    # leave out are roundoff there (1.1e-14 of max|Q| on the 1D trap, 2.1e-15
    # on the 2D one) and exact zeros in the assembled Gram.  The 2D kernels
    # are rank one, so their blocks come from the eigenfactors of their
    # Toeplitz tables, folded on an even (32) or odd (33) side, and the
    # single-class Gram, built with convolve, is an FFT oracle for them
    if case == "quartic-1d":
        o, w, K = op, bump, 12
    else:
        n = 33 if case == "harmonic-2d-33" else 32
        o = build_one_body(GridSpec(2, 6.0, n), "power", 20, s=2.0)
        kind = "grid-delta" if case == "delta-2d" else "gaussian-bump"
        w, K = make_pair_potential(kind, o.grid, amplitude=0.5, sigma=0.6), 20
        assert w.factors is not None
    t = build_pair_tensor(o, w, K)
    labels = mode_parity(o, K)
    assert labels is not None
    b, a = np.tril_indices(K)
    pair_class = labels[a] * labels[b]
    assert [pair_class[pos].tolist() for pos in t.pairs] == [
        [1] * int(np.sum(pair_class > 0)), [-1] * int(np.sum(pair_class < 0))]
    assert all(np.all(np.diff(pos) > 0) for pos in t.pairs)
    ref = single_class_gram(o, w, K)
    scale = np.abs(ref).max()
    cross = pair_class[:, None] != pair_class[None, :]
    assert np.abs(ref[cross]).max() <= 2e-14 * scale
    Q = t.gram
    assert np.all(Q[cross] == 0.0)
    assert np.abs(Q - ref)[~cross].max() <= 1e-14 * scale
    for pos, block in zip(t.pairs, t.grams):
        assert np.array_equal(block, block.T)
        assert np.array_equal(block, Q[np.ix_(pos, pos)])


def test_unlabelled_gram_is_one_class(bump):
    # a tilted trap has no reflection labels: one class, the single-class
    # Gram bit for bit
    g = GridSpec(1, 6.0, 200)
    x = g.axis()
    tilted = build_one_body(g, "custom", 8, potential_array=x**4 + x)
    t = build_pair_tensor(tilted, bump, 8)
    assert mode_parity(tilted, 8) is None and len(t.pairs) == 1
    assert np.array_equal(t.pairs[0], np.arange(36))
    assert np.array_equal(t.grams[0], single_class_gram(tilted, bump, 8))
    assert np.array_equal(t.gram, t.grams[0])


def test_pair_potential_toeplitz_tables(grid, bump, delta, bump2d):
    # only rank-one 2D kernels carry eigenfactors, those of the tables
    # Tx[i, k] = w(x_i - x_k, 0) and Ty[j, l] = w(0, y_j - y_l) / w(0, 0):
    # V diag(s) V^T rebuilds each table, its vectors orthonormal with the
    # parities V[::-1] = parity V
    g2 = bump2d.grid
    dx = np.subtract.outer(np.arange(g2.points), np.arange(g2.points)) * g2.spacing
    Tx = 0.5 * np.exp(-dx**2 / (2 * 0.6**2))
    delta2d = make_pair_potential("grid-delta", g2, amplitude=0.4)
    Dx = 0.4 / g2.cell_volume * np.eye(g2.points)
    for w, tables in ((bump2d, (Tx, Tx / 0.5)), (delta2d, (Dx, np.eye(g2.points)))):
        for (s, V, parity), T in zip(w.factors, tables):
            assert np.abs((V * s) @ V.T - T).max() <= 1e-14 * np.abs(T).max()
            assert np.abs(V.T @ V - np.eye(len(s))).max() <= 1e-14
            assert np.array_equal(V[::-1], parity * V)
    assert [len(s) for s, _, _ in delta2d.factors] == [g2.points] * 2
    exp2d = make_pair_potential("tabulated", g2, table=exp_table())
    flat = make_pair_potential("gaussian-bump", g2, amplitude=0.0, sigma=0.6)
    tab1d = make_pair_potential("tabulated", grid, table=exp_table())
    for w in (bump, delta, tab1d, exp2d, flat):
        assert w.factors is None


def test_non_separable_gram_stays_on_fft(op, bump, delta, monkeypatch):
    # a 2D kernel that fails the rank-one check, and every 1D kernel, build
    # the Gram by FFT bit for bit
    from gibbslab import interaction
    o2 = build_one_body(GridSpec(2, 6.0, 32), "power", 20, s=2.0)
    exp2d = make_pair_potential("tabulated", o2.grid, table=exp_table())
    for o, w, K in ((o2, exp2d, 20), (op, bump, 12), (op, delta, 12)):
        t = build_pair_tensor(o, w, K)
        with monkeypatch.context() as m:
            m.setattr(interaction, "_pair_features",
                      lambda w, rows, cols: (rows, interaction.convolve(w, rows)))
            ref = build_pair_tensor(o, w, K)
        assert all(np.array_equal(a, b) for a, b in zip(t.grams, ref.grams))


def held_widths(monkeypatch, o, w, K):
    """The Gram of o and w at cutoff K, and the held width of each chunk."""
    from gibbslab import interaction
    widths, features = [], interaction._pair_features

    def recorded(*args):
        held, left = features(*args)
        widths.append(held.shape[1])
        return held, left

    with monkeypatch.context() as m:
        m.setattr(interaction, "_pair_features", recorded)
        Q = build_pair_tensor(o, w, K).gram
    return Q, widths


@pytest.mark.parametrize("n, L, sigma", [(32, 6.0, 0.6), (33, 6.0, 0.6), (64, 8.0, 1.25)])
def test_parity_half_gram(n, L, sigma, monkeypatch):
    # a labelled class holds only the eigenfactor coefficients px_i py_j of
    # its own parity: those of the other parity are roundoff in every pair
    # density, also on study-2d's 64² grid and bump (amplitude aside), whose
    # tables keep eigenvalues below 4e-13 of the largest, 19 even and 19 odd
    # per axis: 722 of 38 x 38 coefficients per class.
    # test_blocked_gram_matches_single_class checks the Gram
    from gibbslab import interaction
    o = build_one_body(GridSpec(2, L, n), "power", 20, s=2.0)
    w = make_pair_potential("gaussian-bump", o.grid, amplitude=0.5, sigma=sigma)
    (_, Vx, px), (_, Vy, py) = w.factors
    labels = mode_parity(o, 20)
    assert labels is not None
    b, a = np.tril_indices(20)
    U = o.eigenvectors[:, :20].reshape(n, n, 20)
    for i, j in zip(a, b):
        coeff = Vx.T @ (U[:, :, i] * U[:, :, j]) @ Vy
        other = np.outer(px, py) != labels[i] * labels[j]
        assert np.abs(coeff[other]).max() <= 1e-13 * np.abs(coeff).max()
    _, widths = held_widths(monkeypatch, o, w, 20)
    assert sorted(set(widths)) == sorted({np.sum(np.outer(px, py) == p) for p in (1, -1)})
    if n == 64:
        assert len(px) == len(py) == 38 and set(widths) == {722}


def test_unlabelled_gram_holds_all_coefficients(monkeypatch):
    # a tilted 2D trap has no reflection labels: its one class holds all
    # rx ry coefficients of the bump's eigenfactors and matches the oracle
    from gibbslab import interaction
    g = GridSpec(2, 6.0, 32)
    x, y = g.coordinates().T
    tilted = build_one_body(g, "custom", 12, potential_array=x**2 + y**2 + x)
    w = make_pair_potential("gaussian-bump", g, amplitude=0.5, sigma=0.6)
    assert mode_parity(tilted, 12) is None and w.factors is not None
    (sx, _, _), (sy, _, _) = w.factors
    Q, widths = held_widths(monkeypatch, tilted, w, 12)
    assert set(widths) == {len(sx) * len(sy)}
    ref = single_class_gram(tilted, w, 12)
    assert np.abs(Q - ref).max() <= 1e-14 * np.abs(ref).max()


def test_signed_kernel_gram():
    # a Gaussian bump of negative amplitude: every kept eigenvalue of Tx is
    # negative, and fewer are kept than the grid has points.  Its Gram
    # matches the FFT oracle and is minus the positive bump's, so the
    # eigenfactors keep their signs instead of clipping them
    from gibbslab import interaction
    o = build_one_body(GridSpec(2, 8.0, 64), "power", 20, s=2.0)
    pos = make_pair_potential("gaussian-bump", o.grid, amplitude=0.05, sigma=1.25)
    neg = make_pair_potential("gaussian-bump", o.grid, amplitude=-0.05, sigma=1.25)
    (sx, _, _), (sy, _, _) = neg.factors
    assert np.all(sx < 0) and np.all(sy > 0) and len(sx) < 64
    with pytest.warns(UserWarning, match="dips negative"):
        Q = build_pair_tensor(o, neg, 20).gram
    ref = single_class_gram(o, neg, 20)
    scale = np.abs(ref).max()
    assert np.abs(Q - ref).max() <= 1e-14 * scale
    assert np.abs(Q + build_pair_tensor(o, pos, 20).gram).max() <= 1e-14 * scale


def test_w1111_matches_bare(op, bump):
    t = build_pair_tensor(op, bump, 1)
    oracle = grid_oracle(one([1.0]), op, bump, renormalized=False)[0]
    assert oracles.fock_tensor(t)[0, 0, 0, 0] == pytest.approx(2.0 * oracle, rel=1e-12)


@given(theta=st.floats(min_value=0.0, max_value=2 * np.pi),
       scale=st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_renormalized_nonnegative_property(op, bump, theta, scale):
    rng = np.random.default_rng(77)
    a = scale * np.exp(1j * theta) * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    val = energy(op, bump, a, renormalized=True)
    assert val > -1e-10
