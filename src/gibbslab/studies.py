"""Experiment drivers: the 1D mean-field convergence study and the 2D
classical renormalization study.

The 1D study compares the grand-canonical quantum Gibbs state at coupling
1/T against the classical interacting measure built from the same trap:
free-energy differences against -log z_r and reduced density matrices
against classical moments, along an increasing temperature schedule.

The 2D study documents the ultraviolet dichotomy (direct term diverges,
exchange term stabilizes), the Cauchy property of the renormalized
interaction, and the counterterm stabilization of the effective potential.
The quantum side of the 2D limit is out of reach at desk scale and is not
attempted.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import classical_gibbs as cg
from . import fock_quantum as fq
from . import hartree
from .config import MAX_DENSE_MODES, ConfigurationError, RunConfig
from .gaussian import sample_gaussian
from .interaction import (PairPotential, PairTensor, batch_interactions,
                          build_pair_tensor, direct_term, exchange_term,
                          make_pair_potential, offset_sq_radii, wick_shift)
from .spectral import (GridSpec, OneBodyOperator, build_one_body, potential_values,
                       schatten_trace, shift_potential)


def model_grid(cfg: RunConfig) -> GridSpec:
    m = cfg.model
    return GridSpec(dimension=m.dimension, half_width=m.half_width, points=m.points)


def build_model_operator(cfg: RunConfig, num_eigs: int | None = None) -> OneBodyOperator:
    m = cfg.model
    grid = model_grid(cfg)
    if num_eigs is None:
        num_eigs = m.num_eigs if m.num_eigs > 0 else max(m.modes, min(32, grid.total_points))
    s = m.s if m.potential == "power" else None
    return build_one_body(grid, m.potential, num_eigs, s=s)


def shifted_operator(cfg: RunConfig, op: OneBodyOperator) -> OneBodyOperator:
    """op - model.nu, the inverse covariance of the free measure (op at nu = 0)."""
    return shift_potential(op, cfg.model.nu) if cfg.model.nu else op


def bind_potential(cfg: RunConfig, grid: GridSpec) -> PairPotential:
    i = cfg.interaction
    if i.kind == "tabulated":
        try:
            table = np.loadtxt(i.table_path)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"interaction.table_path {i.table_path!r}: {exc}") from exc
        return make_pair_potential("tabulated", grid, table=table)
    return make_pair_potential(i.kind, grid, amplitude=i.amplitude, sigma=i.sigma)


def run_counterterm(cfg: RunConfig
                    ) -> tuple[GridSpec, PairPotential, hartree.StabilizationReport]:
    """The configured counterterm scheme on its own (coarser) Hartree grid."""
    m, h = cfg.model, cfg.hartree
    hgrid = GridSpec(dimension=m.dimension, half_width=m.half_width, points=h.points)
    V = potential_values(hgrid, m.potential, s=m.s if m.potential == "power" else None)
    w = bind_potential(cfg, hgrid)
    stab = hartree.counterterm_stabilization(
        hgrid, V, w, list(h.t_schedule), h.kappa, coupling_c=h.coupling_c,
        damping=h.damping, tol=h.tol, max_iter=h.max_iter,
        shared_modes=h.shared_modes, measure=h.momentum_measure)
    return hgrid, w, stab


# ---------------------------------------------------------------------------
# The classical and quantum halves, shared by the 1D study and the CLI


def run_classical(cfg: RunConfig, op: OneBodyOperator, tensor: PairTensor | None
                  ) -> tuple[cg.PartitionEstimate, dict[int, cg.ReducedMoment]]:
    """The configured classical measure: -log z_r and reduced moments.

    Draws model.modes modes of the free measure with covariance op^-1 and,
    given a tensor, reweights by the configured interaction; order-2
    moments are skipped above MAX_DENSE_MODES.
    """
    K = cfg.model.modes
    ens = sample_gaussian(op, K, cfg.classical.samples, cfg.classical.seed)
    if tensor is not None:
        ens = cg.reweight(ens, op, tensor, cfg.interaction.renormalized)
    orders = fq.ORDERS if K <= MAX_DENSE_MODES else fq.ORDERS[:1]
    return cg.estimate_log_zr(ens), {k: cg.reduced_moment(ens, k) for k in orders}


def quantum_schedule(cfg: RunConfig, op: OneBodyOperator, tensor: PairTensor | None
                     ) -> tuple[fq.SectorSpectra, Callable[[float], fq.SectorSpectra]]:
    """Free spectra and spectra_at(T) of H1 + (coupling_c/T) Hpair.

    Spectra are of H - nu N on one Fock basis, which they carry; H1 is from
    op's unshifted eigenvalues.  Pass no tensor at coupling_c = 0:
    spectra_at then returns the free spectra.  Otherwise Hpair is held per
    connected block of each sector (one per odd-mode parity of a
    reflection-symmetric trap), found once when it is built; H1 is
    diagonal, so H1 + (coupling_c/T) Hpair shares Hpair's blocks.  Each
    call fills those blocks, diagonalizes them afresh by divide and
    conquer, returns each block's vectors apart, and keeps nothing.  Calls
    may run on several threads: they only read the basis, built complete
    with its index tables, and Hpair's read-only arrays.
    """
    K, nu, c = cfg.model.modes, cfg.model.nu, cfg.quantum.coupling_c
    basis = fq.build_fock(K, cfg.quantum.n_max)
    H1 = fq.second_quantize_one_body(basis, op.unshifted_eigenvalues[:K])
    spectra_free = fq.sector_eigensystems(H1, nu)
    if tensor is None:
        return spectra_free, lambda T: spectra_free
    Hpair = fq.second_quantize_pair(basis, tensor)

    def spectra_at(T: float) -> fq.SectorSpectra:
        return fq.sector_eigensystems(H1 + Hpair.scaled(c / T), nu)

    return spectra_free, spectra_at


# ---------------------------------------------------------------------------
# 1D convergence study


@dataclass(frozen=True)
class StudyPoint1D:
    T: float
    lam: float
    free_energy_interacting: float
    free_energy_free: float
    diff_over_T: float
    discrepancy: float
    delta_1: float
    delta_2: float
    mean_particles: float
    top_sector_weight: float
    cutoff_safe: bool
    audit_delta_F: float


@dataclass(frozen=True)
class Study1DReport:
    points: list[StudyPoint1D]
    neg_log_zr: float
    zr_stderr: float
    ess: float
    discrepancy_decreasing: bool
    delta_1_decreasing: bool
    delta_2_decreasing: bool
    final_discrepancy: float
    final_threshold: float
    trace_class_exponent: float


def run_study_1d(cfg: RunConfig, threads: int = 1) -> Study1DReport:
    """The classical measure, then the quantum Gibbs state at each temperature.

    With threads > 1 the temperatures are solved on a pool of that many
    threads.  A one-thread schedule runs on the calling thread: a pool
    thread would allocate from its own malloc arena, which cannot reuse
    what the classical half freed, and so raise the peak resident set.
    """
    if cfg.model.dimension != 1:
        raise ConfigurationError("the 1D study requires model.dimension = 1")
    if cfg.quantum.n_max < 2:
        raise ConfigurationError("the 1D study's cutoff audit needs quantum.n_max >= 2")
    K, n_max, c = cfg.model.modes, cfg.quantum.n_max, cfg.quantum.coupling_c

    op = build_model_operator(cfg)
    op_meas = shifted_operator(cfg, op)
    trace = schatten_trace(op_meas, 1.0)
    if trace.likely_divergent:
        raise ConfigurationError(
            "1D study needs a trace-class trap (growth exponent "
            f"{trace.growth_exponent:.3f} at p=1 looks divergent)")

    tensor = build_pair_tensor(op, bind_potential(cfg, op.grid), K) if c != 0.0 else None
    zr, moments = run_classical(cfg, op_meas, tensor)
    spectra_free, spectra_at = quantum_schedule(cfg, op, tensor)

    def solve_point(T: float) -> StudyPoint1D:
        lam = c / T
        spectra = spectra_at(T)
        g_int = fq.gibbs_from_spectra(spectra, T)
        F_free = -T * fq.boltzmann_weights(spectra_free, T, n_max)[1]
        audit = fq.cutoff_audit(spectra, T, [n_max - 2, n_max])
        diff = (g_int.free_energy - F_free) / T
        deltas = {f"delta_{k}": cg.trace_distance(
            fq.reduced_density(g_int.state, k) / T**k, moments[k].matrix)
            for k in fq.ORDERS}
        return StudyPoint1D(
            T=T, lam=lam,
            free_energy_interacting=g_int.free_energy,
            free_energy_free=F_free,
            diff_over_T=diff,
            discrepancy=abs(diff - zr.neg_log_zr),
            **deltas,
            mean_particles=g_int.mean_particles,
            top_sector_weight=g_int.top_sector_weight,
            cutoff_safe=g_int.cutoff_safe,
            audit_delta_F=audit.rows[-1].delta_free_energy)

    if threads == 1:
        points = list(map(solve_point, cfg.quantum.t_schedule))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(solve_point, cfg.quantum.t_schedule))

    discrepancies = [p.discrepancy for p in points]
    return Study1DReport(
        points=points,
        neg_log_zr=zr.neg_log_zr, zr_stderr=zr.stderr, ess=zr.ess,
        discrepancy_decreasing=_strictly_decreasing(discrepancies),
        **{f"delta_{k}_decreasing": _strictly_decreasing(
            [getattr(p, f"delta_{k}") for p in points]) for k in fq.ORDERS},
        final_discrepancy=discrepancies[-1],
        final_threshold=max(0.05, 5.0 * zr.stderr),
        trace_class_exponent=trace.growth_exponent)


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs[:-1], xs[1:]))


# ---------------------------------------------------------------------------
# 2D classical renormalization study


@dataclass(frozen=True)
class UVPoint:
    K: int
    direct: float
    exchange: float
    mean_bare: float
    stderr_bare: float
    mean_renorm: float
    stderr_renorm: float
    neg_log_zr: float
    zr_stderr: float


@dataclass(frozen=True)
class CauchyPoint:
    K: int
    mean_abs_renorm_diff: float
    stderr_renorm_diff: float
    mean_abs_bare_diff: float
    stderr_bare_diff: float


@dataclass(frozen=True)
class Study2DReport:
    uv_points: list[UVPoint]
    cauchy_points: list[CauchyPoint]
    direct_growing: bool
    exchange_increments_shrinking: bool
    cauchy_decreasing: bool
    stabilization: hartree.StabilizationReport
    relative_moment_trace_norm: float
    integrability_w_hat: float
    integrability_w_trap: float
    integrability_ok: bool


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))


def integrability_checks(w: PairPotential, trap_exponent: float | None
                         ) -> tuple[float, float, bool]:
    """Numerical versions of the transform and trap moment conditions.

    Evaluates int w_hat(k)(1 + sqrt|k|) dk on the dual grid and
    int |w(x)| V(x)^2 dx on the offset grid; passes when the outer halves of
    both integrals contribute under one percent, i.e. the integrands have
    decayed inside the sampled window.  These are properties of the pair
    potential alone, so bind it to a window fine enough to resolve its
    transform before calling (see fine_check_potential).
    """
    grid = w.grid
    shape = w.kernel.shape
    h = grid.spacing
    ax = 2.0 * np.pi * np.fft.fftfreq(shape[0], d=h)
    dk = ax[1] - ax[0]
    if grid.dimension == 2:
        kk = np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)
    else:
        kk = np.abs(ax)
    w_full = np.fft.fftn(w.kernel).real * grid.cell_volume
    vals = w_full * (1.0 + np.sqrt(kk)) * dk**grid.dimension
    total = float(vals.sum())
    outer = float(vals[kk > kk.max() / 2].sum())
    ok_hat = abs(outer) <= 0.01 * max(abs(total), 1e-30)

    if trap_exponent is None:
        return total, 0.0, ok_hat
    offs = np.sqrt(offset_sq_radii(grid))
    integrand = np.abs(w.kernel) * offs ** (2.0 * trap_exponent) * grid.cell_volume
    vmoment = float(integrand.sum())
    outer_v = float(integrand[offs > offs.max() / 2].sum())
    ok_v = abs(outer_v) <= 0.01 * max(abs(vmoment), 1e-30)
    return total, vmoment, bool(ok_hat and ok_v)


def fine_check_potential(cfg: RunConfig) -> PairPotential:
    """Rebind the configured potential to a transform-resolving window."""
    scale = cfg.interaction.sigma if cfg.interaction.kind == "gaussian-bump" else 0.25
    L = cfg.model.half_width
    points = int(np.ceil(2.0 * L / (scale / 6.0)))
    points = int(np.clip(points, cfg.model.points, 256 if cfg.model.dimension == 2 else 4096))
    return bind_potential(cfg, GridSpec(cfg.model.dimension, L, points))


def run_study_2d_classical(cfg: RunConfig) -> Study2DReport:
    if cfg.model.dimension != 2:
        raise ConfigurationError("the 2D study requires model.dimension = 2")
    ks = [int(k) for k in cfg.study.k_schedule]
    k_max = max(ks)
    # the floor of 96 eigenpairs asks for no more than the grid has
    num_eigs = max(k_max, min(96, model_grid(cfg).total_points))
    op = shifted_operator(cfg, build_model_operator(cfg, num_eigs=num_eigs))
    w = bind_potential(cfg, op.grid)

    uv_rows = []
    ens = sample_gaussian(op, k_max, cfg.study.cauchy_samples, cfg.classical.seed)
    tensor = build_pair_tensor(op, w, k_max)
    bare_by_k: dict[int, np.ndarray] = {}
    renorm_by_k: dict[int, np.ndarray] = {}
    for K in ks:
        sub = ens.truncated(K)
        bare_by_k[K] = batch_interactions(sub, op, tensor, renormalized=False)
        renorm_by_k[K] = wick_shift(sub, op, tensor, bare_by_k[K].copy())
        mb, sb = _mean_stderr(bare_by_k[K])
        mr, sr = _mean_stderr(renorm_by_k[K])
        zr = cg.estimate_log_zr(cg.weigh(sub, renorm_by_k[K]))
        uv_rows.append(UVPoint(K=K, direct=direct_term(op, w, K),
                               exchange=exchange_term(op, w, K, tensor),
                               mean_bare=mb, stderr_bare=sb,
                               mean_renorm=mr, stderr_renorm=sr,
                               neg_log_zr=zr.neg_log_zr, zr_stderr=zr.stderr))
    del tensor  # not held through the Hartree stage, which sets its own peak

    cauchy_rows = []
    for K, K2 in zip(ks[:-1], ks[1:]):
        dr = np.abs(renorm_by_k[K2] - renorm_by_k[K])
        db = np.abs(bare_by_k[K2] - bare_by_k[K])
        mr, sr = _mean_stderr(dr)
        mb, sb = _mean_stderr(db)
        cauchy_rows.append(CauchyPoint(K=K, mean_abs_renorm_diff=mr,
                                       stderr_renorm_diff=sr,
                                       mean_abs_bare_diff=mb, stderr_bare_diff=sb))

    directs = [r.direct for r in uv_rows]
    exchanges = [r.exchange for r in uv_rows]
    direct_growing = all(b - a > 1e-3 * abs(b) for a, b in zip(directs[:-1], directs[1:]))
    incs = [b - a for a, b in zip(exchanges[:-1], exchanges[1:])]

    hgrid, w_h, stab = run_counterterm(cfg)

    # classical half of the relative one-body comparison: moments of the
    # interacting and free measures built from the stabilized potential
    K_rel = min(cfg.hartree.shared_modes, 32)
    op_inf = build_one_body(hgrid, "custom", max(K_rel, 48),
                            potential_array=stab.proxy_potential)
    ens_rel = sample_gaussian(op_inf, K_rel, cfg.study.cauchy_samples,
                              cfg.classical.seed + 1)
    weighted = cg.reweight(ens_rel, op_inf, build_pair_tensor(op_inf, w_h, K_rel),
                           renormalized=True)
    m_mu = cg.reduced_moment(weighted, 1)
    m_mu0 = cg.reduced_moment(ens_rel, 1)
    rel_norm = cg.trace_distance(m_mu.matrix, m_mu0.matrix)

    trap_exp = cfg.model.s if cfg.model.potential == "power" else None
    ihat, itrap, i_ok = integrability_checks(fine_check_potential(cfg), trap_exp)
    return Study2DReport(
        uv_points=uv_rows, cauchy_points=cauchy_rows,
        direct_growing=direct_growing,
        exchange_increments_shrinking=_strictly_decreasing(incs),
        cauchy_decreasing=_strictly_decreasing(
            [r.mean_abs_renorm_diff for r in cauchy_rows]),
        stabilization=stab,
        relative_moment_trace_norm=rel_norm,
        integrability_w_hat=ihat, integrability_w_trap=itrap,
        integrability_ok=i_ok)
