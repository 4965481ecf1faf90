import warnings
import weakref

import numpy as np
import pytest

import gibbslab.hartree as ha
from gibbslab import interaction
from gibbslab.config import ConfigurationError, HartreeConfig
from gibbslab.interaction import make_pair_potential, quadratic_form
from gibbslab.spectral import GridSpec, minus_laplacian, potential_values

import oracles


@pytest.fixture(scope="module")
def grid1d():
    return GridSpec(1, 6.0, 160)


@pytest.fixture(scope="module")
def trap1d(grid1d):
    return potential_values(grid1d, "power", s=4.0)


@pytest.fixture(scope="module")
def bump1d(grid1d):
    return make_pair_potential("gaussian-bump", grid1d, amplitude=0.3, sigma=0.6)


def test_free_density_closed_form():
    val = ha.free_gas_density(1.0, 1.0, 2)
    assert val == pytest.approx(np.pi * (-np.log1p(-np.exp(-1.0))), rel=1e-14)
    assert val == pytest.approx(1.4409704671, abs=1e-9)


def test_free_density_matches_cartesian_quadrature():
    for T, gap in [(1.0, 1.0), (4.0, 0.5), (16.0, 4.0)]:
        closed = ha.free_gas_density(T, gap, 2)
        quad = oracles.free_gas_density_quadrature(T, gap)
        assert abs(closed - quad) < 1e-6 * max(1.0, closed)


def test_free_density_monotone_in_gap():
    vals = [ha.free_gas_density(2.0, g, 2) for g in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] > 0.0


def test_free_density_scaling():
    a = 3.7
    lhs = ha.free_gas_density(a * 2.0, a * 0.8, 2)
    rhs = a * ha.free_gas_density(2.0, 0.8, 2)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_free_density_2d_high_temperature():
    # 1 - exp(-gap/T) rounds to 0 from about T = 1e17 at gap 4; the density
    # stays finite there, with no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (1e17, 1e300):
            assert np.isfinite(ha.free_gas_density(T, 4.0, 2))


def test_free_density_2d_small_gap_series():
    # below x = gap/T = 2**-10, -log(1 - exp(-x)) = -log x + x/2 - x^2/24 + O(x^4)
    for x in np.geomspace(1e-8, 2.0**-11, 40):
        series = np.pi * (-np.log(x) + x / 2 - x * x / 24)
        assert ha.free_gas_density(1.0, x, 2) == pytest.approx(series, rel=1e-14, abs=0)


def test_free_density_1d_quadrature():
    from scipy.integrate import simpson
    k = np.linspace(0.0, 60.0, 200_001)
    with np.errstate(over="ignore"):
        ref = 2.0 * simpson(1.0 / np.expm1((k**2 + 0.7) / 2.5), x=k)
    assert ha.free_gas_density(2.5, 0.7, 1) == pytest.approx(ref, rel=1e-8)


def test_momentum_measure_option():
    base = ha.free_gas_density(1.0, 1.0, 2)
    assert ha.free_gas_density(1.0, 1.0, 2, "2pi") == pytest.approx(
        base / (2 * np.pi) ** 2, rel=1e-14)
    with pytest.raises(Exception):
        ha.free_gas_density(1.0, 1.0, 2, "nonsense")


def test_free_density_domain():
    with pytest.raises(Exception):
        ha.free_gas_density(1.0, 0.0, 2)
    with pytest.raises(Exception):
        ha.free_gas_density(1.0, -1.0, 2)


def test_chemical_potential(bump1d):
    assert ha.counterterm_chemical_potential(2.0, 0.0, 3.0, bump1d) == pytest.approx(-3.0)
    zero_w = make_pair_potential("gaussian-bump", bump1d.grid, amplitude=0.0, sigma=0.6)
    assert ha.counterterm_chemical_potential(2.0, 0.7, 3.0, zero_w) == pytest.approx(-3.0)


def test_chemical_potential_trajectory(bump1d):
    # lam = 1/T: the counterterm drifts slowly (logarithmically in 2D);
    # emitted as a table, only finiteness and order are asserted
    vals = [ha.counterterm_chemical_potential(T, 1.0 / T, 4.0, bump1d)
            for T in (4.0, 8.0, 16.0, 32.0)]
    assert all(np.isfinite(vals))
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))


def test_rhf_free_case(grid1d, trap1d, bump1d):
    st = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=2.0, lam=0.0, nu=-0.5)
    assert st.converged and st.iterations <= 1
    assert np.abs(st.effective_potential - (trap1d + 0.5)).max() < 1e-14
    oracle = 2.0 * np.sum(np.log1p(-np.exp(-st.energies / 2.0)))
    assert st.free_energy == pytest.approx(oracle, abs=1e-10)
    with np.errstate(over="ignore"):
        be = 1.0 / np.expm1(st.energies / 2.0)
    assert np.abs(st.occupations - be).max() < 1e-12


def test_rhf_perturbative_shift(grid1d, trap1d, bump1d):
    free = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=2.0, lam=0.0, nu=-0.5)
    lam = 1e-6
    pert = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=2.0, lam=lam, nu=-0.5)
    predicted = lam * quadratic_form(bump1d, free.density)
    assert (pert.free_energy - free.free_energy) == pytest.approx(predicted, rel=1e-2)


def test_rhf_density_even(grid1d, trap1d, bump1d):
    st = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=3.0, lam=0.2, nu=-1.0)
    assert st.converged
    assert np.abs(st.density - st.density[::-1]).max() < 1e-8 * st.density.max()


def test_rhf_fixed_point_posthoc(grid1d, trap1d, bump1d):
    tol = 1e-9
    st = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=3.0, lam=0.3,
                                  nu=-1.0, tol=tol)
    assert st.converged
    assert oracles.fixed_point_residual(st, trap1d, bump1d, 0.3, -1.0) < 2 * tol


def test_rhf_variational(grid1d, trap1d, bump1d):
    lam, nu, T = 0.3, -1.0, 3.0
    st = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T, lam, nu)
    free = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T, 0.0, nu)
    f_of_free_state, _ = ha._rhf_free_energy(trap1d, nu, lam, T, free.energies,
                                             free.occupations, free.density,
                                             ha.convolve(bump1d, free.density),
                                             free.effective_potential)
    assert st.free_energy <= f_of_free_state + 1e-10


def test_rhf_one_convolution_per_trial(grid1d, trap1d, bump1d, monkeypatch):
    # each trial potential is evaluated once: one eigh and one convolution,
    # counting those quadratic_form makes
    calls = []
    for mod, name in ((ha, "_thermal_eigs"), (ha, "convolve"), (interaction, "convolve")):
        f = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _f=f, _n=name: calls.append(_n) or _f(*a))
    st = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=3.0, lam=0.3, nu=-1.0)
    assert st.converged and st.iterations >= 3
    assert calls.count("convolve") == calls.count("_thermal_eigs") > st.iterations


def test_rhf_gauge_shift_invariance(grid1d, trap1d, bump1d):
    lam, T = 0.25, 2.5
    a = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T, lam, nu=-1.0, tol=1e-11)
    b = ha.solve_reduced_hartree(grid1d, trap1d + 2.0, bump1d, T, lam, nu=1.0, tol=1e-11)
    assert np.abs(a.density - b.density).max() < 1e-8
    assert np.abs(a.occupations - b.occupations).max() < 1e-8
    assert np.abs(a.effective_potential - b.effective_potential).max() < 1e-7


def test_rhf_gap_closure_aborts(grid1d, trap1d, bump1d):
    with pytest.raises(ha.GapClosedError):
        ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=2.0, lam=0.0, nu=5.0)


def test_rhf_nonconvergence_flag(grid1d, trap1d, bump1d):
    # stopped at max_iter, the state reports the residual of the potential
    # it returns, not of the iterate before it
    for max_iter in (2, 0):
        st = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=3.0, lam=0.4,
                                      nu=-1.0, damping=0.05, max_iter=max_iter)
        assert not st.converged
        assert st.iterations == max_iter
        assert st.residual == oracles.fixed_point_residual(st, trap1d, bump1d, 0.4, -1.0) > 0
    with pytest.raises(ConfigurationError, match="max_iter"):
        ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=3.0, lam=0.4, nu=-1.0,
                                 max_iter=-1)


def test_reference_energy(grid1d, trap1d, bump1d):
    # the fixed point carries its own direct term, (lam/2) iint rho w rho,
    # which the stabilization rows report as their reference energy
    st = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=2.0, lam=0.3, nu=-1.0)
    free = ha.solve_reduced_hartree(grid1d, trap1d, bump1d, T=2.0, lam=0.0, nu=-1.0)
    assert free.direct_energy == 0.0
    zero_w = make_pair_potential("gaussian-bump", grid1d, amplitude=0.0, sigma=0.6)
    assert ha.solve_reduced_hartree(grid1d, trap1d, zero_w, T=2.0, lam=0.3,
                                    nu=-1.0).direct_energy == 0.0
    val = st.direct_energy
    assert val == pytest.approx(0.3 * quadratic_form(bump1d, st.density), rel=1e-12)
    assert val >= 0.0


def test_reference_energy_rank_one(grid1d, bump1d):
    # density built from a single normalized orbital over lambda_1: the
    # direct term the free energy carries
    from gibbslab.spectral import build_one_body
    op = build_one_body(grid1d, "power", 1, s=4.0)
    rho = op.eigenvectors[:, 0] ** 2 / op.eigenvalues[0]
    lam = 0.7
    zero = np.zeros_like(rho)
    _, direct = ha._rhf_free_energy(zero, 0.0, lam, 1.0, op.eigenvalues,
                                    np.array([1.0 / op.eigenvalues[0]]), rho,
                                    ha.convolve(bump1d, rho), zero)
    expected = 0.5 * lam * 2.0 * quadratic_form(bump1d, rho)
    assert direct == pytest.approx(expected, rel=1e-12)


def test_stabilization_free_case(grid1d, trap1d):
    zero_w = make_pair_potential("gaussian-bump", grid1d, amplitude=0.0, sigma=0.6)
    h = HartreeConfig(t_schedule=(2.0, 4.0, 8.0), kappa=1.0, coupling_c=0.0, shared_modes=8)
    rep = ha.counterterm_stabilization(grid1d, trap1d, zero_w, h)
    for r in rep.rows:
        assert r.nu == pytest.approx(-1.0)
        assert r.delta_inf == pytest.approx(0.0, abs=1e-12)
        assert r.schatten_p_dist == pytest.approx(0.0, abs=1e-12)
        assert r.reference_energy == 0.0
    assert np.abs(rep.proxy_potential - (trap1d + 1.0)).max() < 1e-12


def test_stabilization_reads_the_momentum_measure(grid1d, trap1d, bump1d):
    # each row's counterterm uses the configured (2 pi)^-d measure
    h = HartreeConfig(t_schedule=(2.0, 4.0), kappa=1.0, coupling_c=0.7,
                      shared_modes=8, momentum_measure="2pi")
    rep = ha.counterterm_stabilization(grid1d, trap1d, bump1d, h)
    for r in rep.rows:
        assert r.lam == 0.7 / r.T
        assert r.nu == r.lam * bump1d.w_hat_zero * ha.free_gas_density(r.T, 1.0, 1, "2pi") - 1.0
        assert r.nu != r.lam * bump1d.w_hat_zero * ha.free_gas_density(r.T, 1.0, 1) - 1.0


def test_stabilization_small_2d():
    grid = GridSpec(2, 8.0, 24)
    V = potential_values(grid, "power", s=2.0)
    w = make_pair_potential("gaussian-bump", grid, amplitude=0.05, sigma=0.5)
    h = HartreeConfig(t_schedule=(4.0, 8.0, 16.0), kappa=4.0, damping=0.9, shared_modes=12)
    rep = ha.counterterm_stabilization(grid, V, w, h)
    assert all(r.residual < 1e-8 for r in rep.rows)
    assert rep.delta_decreasing
    assert rep.schatten_decreasing
    assert rep.p == 2.0


@pytest.mark.parametrize("n", [16, 24])
def test_thermal_eigs_match_scipy_evd(n):
    # numpy's eigh runs scipy's LAPACK driver: every eigenpair, and the
    # density summed over its vectors, equal scipy's bit for bit
    grid = GridSpec(2, 8.0, n)
    lap = minus_laplacian(grid)
    v_eff = potential_values(grid, "power", s=2.0) + 0.5
    ours, ref = ha._thermal_eigs(lap, v_eff, 4.0), oracles.thermal_eigs(lap, v_eff, 4.0)
    for a, b in zip(ours, ref):
        assert np.array_equal(a, b)


def test_stabilization_holds_the_proxy_and_one_state(grid1d, trap1d, bump1d, monkeypatch):
    # the proxy is solved first and every other state dropped once its row
    # is written, so no solve starts with more than two earlier states alive
    solve, states, alive = ha.solve_reduced_hartree, [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in states))
        st = solve(*args, **kwargs)
        states.append(weakref.ref(st))
        return st

    monkeypatch.setattr(ha, "solve_reduced_hartree", tracked)
    h = HartreeConfig(t_schedule=(2.0, 3.0, 4.0, 6.0, 8.0), kappa=1.0, shared_modes=8)
    rep = ha.counterterm_stabilization(grid1d, trap1d, bump1d, h)
    assert [r.T for r in rep.rows] == [2.0, 3.0, 4.0, 6.0, 8.0]
    assert len(alive) == 5 and max(alive) <= 2
