import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gibbslab.config import ConfigurationError, load_config
from gibbslab.spectral import (GridSpec, build_one_body, green_diagonal, growth_exponent,
                               minus_laplacian, mode_parity, reflection_eigh,
                               shift_potential)
from gibbslab.studies import bind_potential, build_model_operator

import oracles


@pytest.fixture(scope="module")
def box_op():
    # walls at +-pi/2, so the Dirichlet spectrum is n^2
    return build_one_body(GridSpec(1, np.pi / 2, 512), "box", 8)


@pytest.fixture(scope="module")
def harmonic_op():
    return build_one_body(GridSpec(1, 8.0, 512), "power", 8, s=2.0)


@pytest.fixture(scope="module")
def quartic_op():
    return build_one_body(GridSpec(1, 6.0, 512), "power", 16, s=4.0)


def test_box_spectrum(box_op):
    n = np.arange(1, 4)
    assert np.allclose(box_op.eigenvalues[:3], n**2, rtol=2e-4)
    shifted = shift_potential(box_op, -1.0)
    assert np.allclose(shifted.eigenvalues[:3], n**2 + 1, rtol=2e-4)


def test_harmonic_spectrum(harmonic_op):
    assert np.allclose(harmonic_op.eigenvalues[:3], [1.0, 3.0, 5.0], atol=5e-3)


def test_harmonic_2d_spectrum():
    op = build_one_body(GridSpec(2, 6.0, 48), "power", 4, s=2.0)
    assert abs(op.eigenvalues[0] - 2.0) < 2e-2
    # second level twofold degenerate at 4
    assert np.allclose(op.eigenvalues[1:3], [4.0, 4.0], atol=4e-2)
    assert abs(op.eigenvalues[1] - op.eigenvalues[2]) < 1e-6


@pytest.mark.parametrize("dimension, n", [(1, 300), (2, 20)])
def test_minus_laplacian_is_the_sparse_kronecker_sum(dimension, n):
    grid = GridSpec(dimension, 8.0, n)
    assert np.array_equal(minus_laplacian(grid),
                          oracles.sparse_minus_laplacian(grid).toarray())


def test_orthonormality_and_residual(quartic_op):
    U = quartic_op.eigenvectors
    gram = U.T @ U
    off = gram - np.eye(U.shape[1])
    assert np.abs(off).max() < 1e-10
    H = oracles.hamiltonian(quartic_op)
    for j in range(quartic_op.num_modes):
        r = np.linalg.norm(H @ U[:, j] - quartic_op.eigenvalues[j] * U[:, j])
        assert r / quartic_op.eigenvalues[j] < 1e-8


def test_mode_parity_labels():
    # the shipped quartic trap alternates even and odd modes; the D4 pairs of
    # the 2D s = 2 trap are odd under inversion in any rotation
    op = build_model_operator(load_config(Path(__file__).parents[1] / "configs/study_1d.ini"))
    assert np.array_equal(mode_parity(op, 4), [1, -1, 1, -1])
    op2 = build_one_body(GridSpec(2, 6.0, 48), "power", 8, s=2.0)
    labels = mode_parity(op2, 8)
    assert labels is not None
    assert np.array_equal(labels, [1, -1, -1, 1, 1, 1, -1, -1])
    with pytest.raises(ConfigurationError):
        mode_parity(op2, 9)


def test_mode_parity_refuses_a_small_asymmetry():
    # x^4 + 1e-5 x: every overlap <u_j, R u_j> is within 1e-8 of +-1, yet the
    # reflection defects |u_j - p_j R u_j| are far above roundoff, so the
    # modes get no labels
    g = GridSpec(1, 6.0, 200)
    x = g.axis()
    op = build_one_body(g, "custom", 8, potential_array=x**4 + 1e-5 * x)
    U = op.eigenvectors
    overlaps = np.einsum("pj,pj->j", U, U[::-1])
    assert np.all(np.abs(np.abs(overlaps) - 1.0) <= 1e-8)
    assert np.linalg.norm(U - np.sign(overlaps) * U[::-1], axis=0).max() > 1e-10
    assert mode_parity(op, 8) is None


@pytest.mark.parametrize("n", [64, 33])
def test_reflection_eigh(n):
    # on the study-2d bump's Toeplitz tables and a random symmetric Toeplitz
    # matrix: exact parities, eigh's eigenvalues and an orthonormal basis;
    # numpy's matrix_rank rule keeps as many pairs as on eigh's eigenvalues,
    # 19 even and 19 odd per axis of the 64 x 64 tables
    cfg = load_config(Path(__file__).parents[1] / "perfbench/configs/study_2d.ini")
    w = bind_potential(cfg, GridSpec(2, cfg.model.half_width, n))
    random = scipy.linalg.toeplitz(np.random.default_rng(n).standard_normal(n))
    eps = np.finfo(float).eps
    for T in (*oracles.toeplitz_tables(w), random):
        s, V, parity = reflection_eigh(T)
        ref = np.linalg.eigvalsh(T)
        scale = np.abs(ref).max()
        assert np.array_equal(V[::-1], parity * V)
        assert np.sum(parity > 0) == (n + 1) // 2 and np.sum(parity < 0) == n // 2
        assert np.abs(s - ref).max() <= 1e-14 * scale
        assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-14
        assert np.abs(T @ V - V * s).max() <= 1e-14 * scale
        keep = np.abs(s) > n * eps * scale
        assert np.sum(keep) == np.sum(np.abs(ref) > n * eps * scale)
        if n == 64 and T is not random:
            assert np.sum(parity[keep] > 0) == np.sum(parity[keep] < 0) == 19
    with pytest.raises(ValueError, match="reversal"):
        reflection_eigh(np.diag(np.arange(n, dtype=float)))


def test_shift_identity_and_arithmetic(harmonic_op):
    same = shift_potential(harmonic_op, 0.0)
    assert np.array_equal(same.eigenvalues, harmonic_op.eigenvalues)
    shifted = shift_potential(harmonic_op, 0.5)
    assert np.allclose(shifted.eigenvalues, harmonic_op.eigenvalues - 0.5)
    assert shifted.shift == 0.5
    assert np.allclose(shifted.unshifted_eigenvalues, harmonic_op.eigenvalues)


def test_shift_at_ground_energy_rejected(box_op):
    with pytest.raises(ConfigurationError):
        shift_potential(box_op, box_op.eigenvalues[0])


@given(nu=st.floats(min_value=-5.0, max_value=0.9))
@settings(max_examples=25, deadline=None)
def test_shift_then_green_matches_shifted_eigenvalues(nu):
    op = build_one_body(GridSpec(1, 8.0, 64), "power", 6, s=2.0)
    shifted = shift_potential(op, nu)
    U = op.eigenvectors[:, :4]
    expected = (U / (op.eigenvalues[:4] - nu)) @ U.T
    assert np.abs(green_diagonal(shifted, 4) - np.diag(expected)).max() < 1e-13


def test_green_rank_one(harmonic_op):
    u1 = harmonic_op.eigenvectors[:, 0]
    diag = green_diagonal(harmonic_op, 1)
    assert np.abs(diag - u1**2 / harmonic_op.eigenvalues[0]).max() < 1e-14


def test_green_trace_identity(quartic_op):
    diag = green_diagonal(quartic_op, 6)
    assert abs(diag.sum() - np.sum(1.0 / quartic_op.eigenvalues[:6])) < 1e-8
    U = quartic_op.eigenvectors[:, :6]
    assert np.allclose(diag, np.diag((U / quartic_op.eigenvalues[:6]) @ U.T))


def test_green_psd(quartic_op):
    assert green_diagonal(quartic_op, 5).min() >= 0.0


def test_density_log_growth_2d():
    # matter density at the origin grows like log K for the 2D trap
    op = build_one_body(GridSpec(2, 8.0, 64), "power", 32, s=2.0)
    center = np.argmin(np.linalg.norm(op.grid.coordinates(), axis=1))
    rho = [green_diagonal(op, K)[center] / op.grid.cell_volume for K in (8, 16, 32)]
    d1, d2 = rho[1] - rho[0], rho[2] - rho[1]
    assert d1 > 0 and d2 > 0
    assert 0.5 < d2 / d1 < 1.5


def likely_divergent(op, p: float) -> bool:
    """The spectrum command's flag: sum lam_j^-p looks divergent when b p <= 1."""
    return growth_exponent(op) * p <= 1.0


def test_schatten_partial_sum_box(box_op):
    shifted = shift_potential(box_op, -1.0)
    n = np.arange(1, shifted.num_modes + 1)
    oracle = np.sum(1.0 / (n**2 + 1.0) ** 2)
    assert abs(np.sum(shifted.eigenvalues**-2.0) - oracle) / oracle < 1e-4
    assert not likely_divergent(shifted, 2.0)


def test_schatten_harmonic_flags_divergent():
    # marginal case: the harmonic series of inverse odd integers
    op = build_one_body(GridSpec(1, 16.0, 768), "power", 96, s=2.0)
    assert likely_divergent(op, 1.0)
    assert abs(growth_exponent(op) - 1.0) < 0.08


def test_schatten_2d_threshold():
    # 2D trap with s=2: finite above p = 2, divergent at p = 2
    op = build_one_body(GridSpec(2, 8.0, 64), "power", 128, s=2.0)
    assert likely_divergent(op, 2.0)
    assert not likely_divergent(op, 2.5)


def test_growth_exponent_refuses_short_or_nonpositive_spectra(box_op):
    with pytest.raises(ConfigurationError, match="at least 2 eigenpairs"):
        growth_exponent(build_one_body(GridSpec(1, 1.0, 16), "power", 1, s=2.0))
    with pytest.raises(ConfigurationError, match="positive"):
        growth_exponent(dataclasses.replace(box_op, eigenvalues=box_op.eigenvalues - 2.0))


def test_schatten_quartic_trace_class(quartic_op):
    assert not likely_divergent(quartic_op, 1.0)
    assert abs(growth_exponent(quartic_op) - 4.0 / 3.0) < 0.15


def test_grid_refinement_order():
    ref = build_one_body(GridSpec(1, 8.0, 1024), "power", 5, s=2.0).eigenvalues
    errs = []
    sizes = [64, 128, 256]
    for M in sizes:
        lam = build_one_body(GridSpec(1, 8.0, M), "power", 5, s=2.0).eigenvalues
        errs.append(np.abs(lam - ref).max())
    slope, _ = np.polyfit(np.log(sizes), np.log(errs), 1)
    assert -slope >= 1.8


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        GridSpec(3, 1.0, 32)
    with pytest.raises(ConfigurationError):
        GridSpec(1, -1.0, 32)
    with pytest.raises(ConfigurationError):
        GridSpec(1, 1.0, 4)
    with pytest.raises(ConfigurationError):
        build_one_body(GridSpec(1, 1.0, 16), "power", 17, s=2.0)
    with pytest.raises(ConfigurationError):
        build_one_body(GridSpec(1, 1.0, 16), "power", 4, s=0.5)
