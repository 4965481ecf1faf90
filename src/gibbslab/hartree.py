"""Self-consistent reduced Hartree state and the counterterm scheme.

The effective potential solves V_T = lam * (rho * w) + V - nu with
rho the thermal density of -Laplacian + V_T, occupations Bose-Einstein at
temperature T.  The chemical potential nu = lam * w_hat(0) * rho0 - kappa
cancels the uniform divergent part of the direct interaction, leaving an
effective gap kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MOMENTUM_MEASURES, ConfigurationError, HartreeConfig
from .interaction import PairPotential, convolve
from .spectral import GridSpec, minus_laplacian


def strictly_decreasing(xs) -> bool:
    """The one rule behind every 'decreasing' verdict: each step goes down."""
    return all(b < a for a, b in zip(xs[:-1], xs[1:]))


def _measure_factor(measure: str, d: int) -> float:
    if measure == "unit":
        return 1.0
    if measure == "2pi":
        return (2.0 * np.pi) ** (-d)
    raise ConfigurationError(f"momentum measure must be one of {MOMENTUM_MEASURES}")


def free_gas_density(T: float, gap: float, d: int, measure: str = "unit") -> float:
    """Momentum-space density of a free Bose gas with spectral gap > 0.

    Integral over R^d of 1/(exp((|k|^2 + gap)/T) - 1).  In two dimensions
    this has the closed form pi T * (-log(1 - exp(-gap/T))); in one
    dimension it is evaluated by adaptive quadrature.
    """
    if gap <= 0:
        raise ConfigurationError("gap must be positive")
    if T <= 0:
        raise ConfigurationError("temperature must be positive")
    fac = _measure_factor(measure, d)
    if d == 2:
        x = gap / T
        # exp(-x) rounds to 1 below x ~ 1e-16, where -expm1(-x) keeps
        # 1 - exp(-x).  The log1p form stays above 2**-10: the two differ by
        # an ulp at x = 0.125 (study-2d's T = 32), which moves its documents
        tail = -np.log(-np.expm1(-x)) if x < 2.0**-10 else -np.log1p(-np.exp(-x))
        return fac * float(np.pi * T * tail)
    if d == 1:
        import scipy.integrate

        def integrand(k):
            x = (k * k + gap) / T
            return 0.0 if x > 700.0 else 1.0 / np.expm1(x)

        val, _ = scipy.integrate.quad(integrand, 0.0, np.inf,
                                      epsabs=1e-12, epsrel=1e-12, limit=400)
        return fac * 2.0 * float(val)
    raise ConfigurationError("free gas density implemented for d in {1, 2}")


def counterterm_chemical_potential(T: float, lam: float, kappa: float,
                                   w: PairPotential, measure: str = "unit") -> float:
    """nu = lam * w_hat(0) * rho0(T, kappa) - kappa."""
    if kappa <= 0:
        raise ConfigurationError("kappa must be positive")
    rho0 = free_gas_density(T, kappa, w.grid.dimension, measure)
    return lam * w.w_hat_zero * rho0 - kappa


class GapClosedError(ArithmeticError):
    """The effective one-body gap closed; chemical potential too large."""


@dataclass
class RhfState:
    """Converged (or last) iterate of the reduced-Hartree fixed point."""

    effective_potential: np.ndarray  # V_T on the grid
    energies: np.ndarray             # spectrum of -Lap + V_T
    orbitals: np.ndarray             # weight-folded eigenvectors, columns
    occupations: np.ndarray          # Bose-Einstein numbers of the energies
    density: np.ndarray              # weight-folded thermal density
    free_energy: float
    direct_energy: float             # (lam/2) iint rho(x) w(x-y) rho(y)
    residual: float
    iterations: int
    converged: bool


def _thermal_eigs(lap: np.ndarray, v_eff: np.ndarray, T: float):
    if not np.isfinite(v_eff).all():
        raise ArithmeticError("effective potential is not finite: coupling / T overflows")
    H = lap.copy()
    H.flat[::len(H) + 1] += v_eff
    eps, psi = np.linalg.eigh(H)
    if eps[0] <= 0:
        raise GapClosedError(
            f"effective gap closed (lowest level {eps[0]:.3g}); "
            "chemical potential too large")
    with np.errstate(over="ignore"):
        occ = 1.0 / np.expm1(eps / T)
    # square into Fortran order: a gemv on eigh's C-ordered vectors sums in
    # another order and moves rho by an ulp
    rho = np.multiply(psi, psi, order="F") @ occ
    return eps, psi, occ, rho


def _rhf_free_energy(V, nu, lam, T, eps, occ, rho, conv, v_eff) -> tuple[float, float]:
    """Energy trace + direct term - T * entropy at an iterate, and the
    direct term (lam/2) rho . conv; conv = w * rho."""
    # tr[(-Lap + V - nu) gamma] = sum eps f - int (V_eff - V + nu) rho
    energy = float(eps @ occ) - float((v_eff - V + nu) @ rho)
    direct = lam * (0.5 * float(rho @ conv))
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(occ > 0,
                       (1.0 + occ) * np.log1p(occ) - occ * np.log(occ), 0.0)
    return energy + direct - T * float(ent.sum()), direct


def solve_reduced_hartree(grid: GridSpec, V: np.ndarray, w: PairPotential,
                          T: float, lam: float, nu: float,
                          damping: float = 0.3, tol: float = 1e-8,
                          max_iter: int = 200) -> RhfState:
    """Damped fixed-point iteration for the self-consistent potential.

    The step is V <- (1 - theta) V_old + theta (V + lam rho*w - nu) with
    backtracking on theta whenever the free energy increases.  Each trial
    potential costs one eigh and one convolution w * rho, which give its free
    energy and direct term, the next target and the residual the returned
    state reports.
    """
    if not 0 < damping <= 1:
        raise ConfigurationError("damping must be in (0, 1]")
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    if max_iter < 0:
        raise ConfigurationError("max_iter must be nonnegative")
    V = np.asarray(V, dtype=float)
    lap = minus_laplacian(grid)
    denom = 1.0 + np.abs(V)

    def evaluate(v_eff):
        eps, psi, occ, rho = _thermal_eigs(lap, v_eff, T)
        conv = convolve(w, rho)
        return (v_eff, eps, psi, occ, rho, conv,
                *_rhf_free_energy(V, nu, lam, T, eps, occ, rho, conv, v_eff))

    v_eff, eps, psi, occ, rho, conv, f_cur, direct = evaluate(V - nu)
    for it in range(max_iter + 1):
        target = V + lam * conv - nu
        residual = float(np.max(np.abs(target - v_eff) / denom))
        if residual < tol or it == max_iter:
            break
        step = damping
        while True:
            trial = evaluate((1.0 - step) * v_eff + step * target)
            if trial[-2] <= f_cur + 1e-12 * max(1.0, abs(f_cur)) or step < 1e-4:
                break
            step *= 0.5
        v_eff, eps, psi, occ, rho, conv, f_cur, direct = trial

    return RhfState(effective_potential=v_eff, energies=eps,
                    orbitals=psi, occupations=occ, density=rho,
                    free_energy=f_cur, direct_energy=direct, residual=residual,
                    iterations=it, converged=residual < tol)


def truncated_inverse_distance(state_a: RhfState, state_b: RhfState,
                               K: int, p: float) -> float:
    """Schatten-p distance of K-mode truncations of the resolvents.

    Both truncated inverses live in the span of the 2K lowest orbitals, so
    the operator difference is diagonalized exactly in that joint subspace.
    """
    Ua = state_a.orbitals[:, :K] / state_a.energies[:K]
    Ub = state_b.orbitals[:, :K] / state_b.energies[:K]
    basis = np.column_stack([state_a.orbitals[:, :K], state_b.orbitals[:, :K]])
    Q, _ = np.linalg.qr(basis)
    A = (Q.T @ state_a.orbitals[:, :K]) @ (Q.T @ Ua).T
    B = (Q.T @ state_b.orbitals[:, :K]) @ (Q.T @ Ub).T
    diff = A - B
    vals = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    return float(np.sum(np.abs(vals) ** p))


@dataclass(frozen=True)
class StabilizationRow:
    T: float
    lam: float
    nu: float
    iterations: int
    residual: float
    converged: bool
    free_energy: float
    reference_energy: float
    delta_inf: float
    schatten_p_dist: float


@dataclass(frozen=True)
class StabilizationReport:
    rows: list[StabilizationRow]
    p: float
    sandwich_ok: bool
    sandwich_margin: float | None
    delta_decreasing: bool
    schatten_decreasing: bool
    proxy_potential: np.ndarray


def counterterm_stabilization(grid: GridSpec, V: np.ndarray, w: PairPotential,
                              h: HartreeConfig) -> StabilizationReport:
    """Solve the fixed point along h.t_schedule and test stabilization.

    Every setting comes from the [hartree] section h, but the grid, trap V
    and w are the caller's (studies.run_counterterm: h.points per axis).
    The largest-T solution stands in for the limiting potential; both the
    sup-distance delta_inf and the truncated-resolvent Schatten-p distance,
    p = 2 in 2D and 1 in 1D, must shrink along the schedule (proxy excluded).
    The sandwich V/2 <= V_proxy - kappa <= 3V/2 is checked where V > 1;
    where no grid point has V > 1 it holds vacuously, and its margin is
    None (JSON null) rather than an unbounded float.
    """
    if sorted(h.t_schedule) != list(h.t_schedule):
        raise ConfigurationError("T schedule must be increasing")
    p = 2.0 if grid.dimension == 2 else 1.0
    denom = 1.0 + np.abs(V)

    def solve(T):
        lam = h.coupling_c / T
        nu = counterterm_chemical_potential(T, lam, h.kappa, w, h.momentum_measure)
        return T, lam, nu, solve_reduced_hartree(grid, V, w, T, lam, nu, damping=h.damping,
                                                 tol=h.tol, max_iter=h.max_iter)

    def row(T, lam, nu, st):
        delta = float(np.max(np.abs(st.effective_potential
                                    - proxy.effective_potential) / denom))
        dist = truncated_inverse_distance(st, proxy, h.shared_modes, p)
        return StabilizationRow(T=T, lam=lam, nu=nu, iterations=st.iterations,
                                residual=st.residual, converged=st.converged,
                                free_energy=st.free_energy,
                                reference_energy=st.direct_energy,
                                delta_inf=delta, schatten_p_dist=dist)

    # the proxy first; every other state is dropped once its row is written
    solved = solve(h.t_schedule[-1])
    proxy = solved[-1]
    rows = [row(*solve(T)) for T in h.t_schedule[:-1]] + [row(*solved)]
    region = V > 1.0
    shifted = proxy.effective_potential - h.kappa
    if region.any():
        lower = shifted[region] - 0.5 * V[region]
        upper = 1.5 * V[region] - shifted[region]
        margin = float(min(lower.min(), upper.min()))
    else:
        margin = None
    return StabilizationReport(
        rows=rows, p=p,
        sandwich_ok=margin is None or margin >= 0.0, sandwich_margin=margin,
        delta_decreasing=strictly_decreasing([r.delta_inf for r in rows]),
        schatten_decreasing=strictly_decreasing([r.schatten_p_dist for r in rows]),
        proxy_potential=proxy.effective_potential)
