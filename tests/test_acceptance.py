"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (with timing and the measured
numbers) even under pytest capture.  Tolerances are fixed here, not
calibrated at runtime.  Statistical checks run on fixed seeds that were
verified once and frozen.
"""

import time

import numpy as np
import pytest

import gibbslab.classical_gibbs as cg
import gibbslab.fock_quantum as fq
import gibbslab.hartree as ha
from gibbslab.cli import main
from gibbslab.config import HartreeConfig, RunConfig
from gibbslab.gaussian import sample_gaussian
from gibbslab.interaction import (batch_interactions, build_pair_tensor,
                                  direct_term, exchange_term,
                                  make_pair_potential)
from gibbslab.spectral import GridSpec, build_one_body, potential_values
from gibbslab.studies import run_study_1d

import oracles

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def report(capsys, label, ok, detail, budget, elapsed):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[{label}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")


def test_criterion_1_free_theory_exactness(capsys):
    t0 = time.time()
    budget = 10.0
    op = build_one_body(GridSpec(1, 8.0, 512), "power", 4, s=2.0)
    K, T, nu = 4, 1.0, 0.0
    basis = fq.build_fock(K, 26)
    H = fq.second_quantize_one_body(basis, op.unshifted_eigenvalues[:K])
    audit = fq.cutoff_audit(fq.sector_eigensystems(H, nu), T, [18, 22, 26])
    res = fq.gibbs_state(H, T, nu)
    lam = op.eigenvalues[:K]
    occ = np.sort(np.linalg.eigvalsh(fq.reduced_density(res.state, 1)))
    be = np.sort(1.0 / np.expm1((lam - nu) / T))
    occ_err = np.abs(occ - be).max()
    # grand potential of the K-mode free gas; finite sum, sign as dictated
    # by F = -T log Z
    f_oracle = T * np.sum(np.log1p(-np.exp(-(lam - nu) / T)))
    f_err = abs(res.free_energy - f_oracle)
    elapsed = time.time() - t0
    ok = audit.converged and occ_err < 1e-8 and f_err < 1e-8 and elapsed < budget
    report(capsys, "criterion 1: free-theory exactness", ok,
           f"occupation err {occ_err:.2e}, free-energy err {f_err:.2e}, "
           f"audit converged {audit.converged}", budget, elapsed)
    assert audit.converged
    assert occ_err < 1e-8
    assert f_err < 1e-8
    assert elapsed < budget


def _wick_checks(op, w, K, ens):
    sub = ens.truncated(K)
    tensor = build_pair_tensor(op, w, K)
    bare = batch_interactions(sub, op, tensor, renormalized=False)
    ren = batch_interactions(sub, op, tensor, renormalized=True)
    n = len(bare)
    mb, sb = bare.mean(), bare.std(ddof=1) / np.sqrt(n)
    mr, sr = ren.mean(), ren.std(ddof=1) / np.sqrt(n)
    z_bare = (mb - direct_term(op, w, K) - exchange_term(op, w, K)) / sb
    z_ren = (mr - exchange_term(op, w, K)) / sr
    return z_bare, z_ren


def test_criterion_2_wick_identities(capsys):
    t0 = time.time()
    budget = 60.0
    n = 100_000
    op1 = build_one_body(GridSpec(1, 6.0, 256), "power", 8, s=4.0)
    w1 = make_pair_potential("gaussian-bump", op1.grid, amplitude=0.5, sigma=0.6)
    ens1 = sample_gaussian(op1, 8, n, seed=101)
    op2 = build_one_body(GridSpec(2, 8.0, 64), "power", 8, s=2.0)
    w2 = make_pair_potential("gaussian-bump", op2.grid, amplitude=0.05, sigma=1.25)
    ens2 = sample_gaussian(op2, 8, n, seed=102)
    zs = {}
    for tag, op, w, ens in (("1d", op1, w1, ens1), ("2d", op2, w2, ens2)):
        for K in (1, 4, 8):
            zs[f"{tag} K={K}"] = _wick_checks(op, w, K, ens)
    worst = max(max(abs(zb), abs(zr)) for zb, zr in zs.values())
    elapsed = time.time() - t0
    ok = worst < 4.0 and elapsed < budget
    report(capsys, "criterion 2: Wick identities", ok,
           f"worst |z| = {worst:.2f} over {len(zs)} cases x 2 identities", budget, elapsed)
    assert worst < 4.0
    assert elapsed < budget


def test_criterion_3_single_mode_closed_forms(capsys):
    t0 = time.time()
    budget = 10.0
    op = build_one_body(GridSpec(1, 6.0, 256), "power", 2, s=4.0)
    w = make_pair_potential("gaussian-bump", op.grid, amplitude=0.5, sigma=0.6)
    lam1 = float(op.eigenvalues[0])
    W1 = float(oracles.fock_tensor(build_pair_tensor(op, w, 1))[0, 0, 0, 0])

    from scipy.integrate import simpson
    m = 1.0 / lam1
    x = np.linspace(0.0, 90.0 * m, 300_001)
    dens = np.exp(-x / m) / m
    prof = np.exp(-0.5 * W1 * (x - m) ** 2) * dens
    z_oracle = simpson(prof, x=x)
    mom_oracle = simpson(x * prof, x=x) / z_oracle
    renorm_mean_oracle = simpson(0.5 * W1 * (x - m) ** 2 * dens, x=x)

    det_errs = [abs(oracles.single_mode_log_zr(lam1, W1) - (-np.log(z_oracle))),
                abs(oracles.single_mode_moment(lam1, W1) - mom_oracle),
                abs(oracles.single_mode_mean_renorm_energy(lam1, W1) - renorm_mean_oracle)]

    ens = sample_gaussian(op, 1, 100_000, seed=303)
    ren = batch_interactions(ens, op, build_pair_tensor(op, w, 1), renormalized=True)
    weighted = ens.with_weights(np.exp(-ren))
    est = cg.estimate_log_zr(weighted)
    mom = cg.reduced_moment(weighted, 1)
    z_scores = [abs(est.neg_log_zr - (-np.log(z_oracle))) / est.stderr,
                abs(mom.matrix[0, 0].real - mom_oracle) / mom.stderr[0, 0],
                abs(ren.mean() - renorm_mean_oracle)
                / (ren.std(ddof=1) / np.sqrt(len(ren)))]
    elapsed = time.time() - t0
    ok = max(det_errs) < 1e-8 and max(z_scores) < 4.0 and elapsed < budget
    report(capsys, "criterion 3: single-mode closed forms", ok,
           f"deterministic err {max(det_errs):.2e}, worst MC |z| = {max(z_scores):.2f}",
           budget, elapsed)
    assert max(det_errs) < 1e-8
    assert max(z_scores) < 4.0
    assert elapsed < budget


def test_criterion_4_mean_field_limit_1d(capsys):
    # Parameters exactly as stated: s=4 trap (L=8, M=512), K=4, N_max=14,
    # lambda = 1/T, nu = 0, T in {2,4,8,16}, n = 2e5.  At T = 16 the FREE
    # reference alone wants <n_1> = 1/(exp(1.06/16)-1) = 14.6 particles in
    # the lowest mode, above the whole N_max = 14 budget, so the truncated
    # F_0 carries an O(1)/T error that no interaction choice cancels; the
    # discrepancy bottoms out mid-schedule and rises again.  The identical
    # pipeline converges monotonically at every step once the cutoff is
    # adequate (see test_studies.test_interacting_convergence_with_adequate
    # _truncation).  The criterion is asserted verbatim regardless.
    t0 = time.time()
    budget = 900.0
    cfg = RunConfig()
    cfg.model.dimension = 1
    cfg.model.s = 4.0
    cfg.model.half_width = 8.0
    cfg.model.points = 512
    cfg.model.modes = 4
    cfg.model.nu = 0.0
    cfg.interaction.kind = "gaussian-bump"
    cfg.interaction.amplitude = 0.5
    cfg.interaction.sigma = 0.6
    cfg.classical.samples = 200_000
    cfg.classical.seed = 7
    cfg.quantum.n_max = 14
    cfg.quantum.t_schedule = (2.0, 4.0, 8.0, 16.0)
    cfg.quantum.coupling_c = 1.0
    rep = run_study_1d(cfg)
    elapsed = time.time() - t0
    ok = (rep.discrepancy_decreasing and rep.delta_1_decreasing
          and rep.delta_2_decreasing
          and rep.final_discrepancy < rep.final_threshold and elapsed < budget)
    discs = ", ".join(f"{p.discrepancy:.4f}" for p in rep.points)
    report(capsys, "criterion 4: 1D mean-field limit at stated cutoffs", ok,
           f"discrepancies [{discs}], final threshold {rep.final_threshold:.4f}; "
           f"monotone: disc {rep.discrepancy_decreasing}, "
           f"d1 {rep.delta_1_decreasing}, d2 {rep.delta_2_decreasing}; "
           f"top-sector weight at T=16: {rep.points[-1].top_sector_weight:.2e} "
           f"(free <n_1> at T=16 is 14.6 > N_max = 14: the stated cutoff "
           f"saturates and the criterion cannot close)", budget, elapsed)
    assert rep.discrepancy_decreasing, (
        "discrepancy is not monotone at the stated N_max=14: the free "
        "reference saturates the particle cutoff above T ~ 10")
    assert rep.delta_1_decreasing
    assert rep.delta_2_decreasing
    assert rep.final_discrepancy < rep.final_threshold
    assert elapsed < budget


def test_criterion_5_ultraviolet_dichotomy(capsys):
    # 2D leg at the stated s=2: this trap sits exactly on the
    # Hilbert-Schmidt boundary (sum of 1/lambda^2 is log-divergent, which
    # criterion 5's own p=2 divergence flag asserts), so the exchange term
    # inherits a log-critical tail and its doubling increments plateau
    # instead of shrinking; measured here and asserted verbatim anyway.
    # The strictly Hilbert-Schmidt regime (s=4) shows clean shrinking
    # increments, see test_studies.
    t0 = time.time()
    budget = 300.0
    op2 = build_one_body(GridSpec(2, 8.0, 128), "power", 64, s=2.0)
    w2 = make_pair_potential("gaussian-bump", op2.grid, amplitude=0.05, sigma=1.25)
    ks2 = (8, 16, 32, 64)
    d2 = [direct_term(op2, w2, K) for K in ks2]
    e2 = [exchange_term(op2, w2, K) for K in ks2]
    direct_growing = all(b - a > 1e-3 * abs(b) for a, b in zip(d2[:-1], d2[1:]))
    incs = [b - a for a, b in zip(e2[:-1], e2[1:])]
    exchange_shrinking = incs[0] > incs[1] > incs[2] > 0

    op1 = build_one_body(GridSpec(1, 12.0, 3072), "power", 512, s=4.0)
    w1 = make_pair_potential("gaussian-bump", op1.grid, amplitude=0.5, sigma=0.6)
    ks1 = (64, 128, 256, 512)
    d1 = [direct_term(op1, w1, K) for K in ks1]
    e1 = [exchange_term(op1, w1, K) for K in ks1]
    d1_rel = abs(d1[-1] - d1[-2]) / abs(d1[-1])
    e1_rel = abs(e1[-1] - e1[-2]) / abs(e1[-1])
    one_d_ok = d1_rel < 0.01 and e1_rel < 0.01

    elapsed = time.time() - t0
    ok = direct_growing and exchange_shrinking and one_d_ok and elapsed < budget
    report(capsys, "criterion 5: ultraviolet dichotomy", ok,
           f"2D direct growth ok {direct_growing}; 2D exchange increments "
           f"{[f'{v:.6f}' for v in incs]} shrinking {exchange_shrinking} "
           f"(s=2 is the Hilbert-Schmidt boundary: increments plateau); "
           f"1D final rel changes direct {d1_rel:.4f}, exchange {e1_rel:.2e}",
           budget, elapsed)
    assert direct_growing
    assert one_d_ok, f"1D stabilization: direct {d1_rel:.4f}, exchange {e1_rel:.2e}"
    assert exchange_shrinking, (
        "exchange doubling increments plateau at s=2, the Hilbert-Schmidt "
        f"boundary (measured {incs}); they shrink only for s > 2")
    assert elapsed < budget


def test_criterion_6_renormalization_cauchy(capsys):
    t0 = time.time()
    budget = 300.0
    op = build_one_body(GridSpec(2, 8.0, 128), "power", 64, s=2.0)
    w = make_pair_potential("gaussian-bump", op.grid, amplitude=0.05, sigma=1.25)
    ens = sample_gaussian(op, 64, 12_000, seed=606)
    tensor = build_pair_tensor(op, w, 64)
    renorm = {K: batch_interactions(ens.truncated(K), op, tensor, renormalized=True)
              for K in (8, 16, 32, 64)}
    diffs = {K: np.abs(renorm[2 * K] - renorm[K]) for K in (8, 16, 32)}
    means = {K: diffs[K].mean() for K in (8, 16, 32)}
    z_scores = []
    for K, K2 in ((8, 16), (16, 32)):
        paired = diffs[K] - diffs[K2]
        z_scores.append(paired.mean() / (paired.std(ddof=1) / np.sqrt(len(paired))))
    elapsed = time.time() - t0
    decreasing = means[8] > means[16] > means[32]
    beyond = all(z > 2.0 for z in z_scores)
    ok = decreasing and beyond and elapsed < budget
    report(capsys, "criterion 6: renormalization Cauchy diagnostic", ok,
           f"E|dD^R| = {means[8]:.6f}, {means[16]:.6f}, {means[32]:.6f}; "
           f"paired z = {z_scores[0]:.1f}, {z_scores[1]:.1f}", budget, elapsed)
    assert decreasing
    assert beyond
    assert elapsed < budget


def test_criterion_7_counterterm_scheme(capsys):
    t0 = time.time()
    budget = 600.0
    # closed form against independent Cartesian quadrature on a 3x3 grid
    worst_quad = 0.0
    for T in (1.0, 4.0, 16.0):
        for kappa in (0.5, 2.0, 8.0):
            closed = ha.free_gas_density(T, kappa, 2)
            quad = oracles.free_gas_density_quadrature(T, kappa)
            worst_quad = max(worst_quad, abs(closed - quad) / max(1.0, closed))
    grid = GridSpec(2, 8.0, 40)
    V = potential_values(grid, "power", s=2.0)
    w = make_pair_potential("gaussian-bump", grid, amplitude=0.007, sigma=1.25)
    stab = ha.counterterm_stabilization(grid, V, w, HartreeConfig(
        t_schedule=(4.0, 8.0, 16.0, 32.0), kappa=4.0, coupling_c=1.0,
        damping=0.85, tol=1e-8, shared_modes=32))
    residual_ok = all(r.residual < 1e-8 for r in stab.rows)
    elapsed = time.time() - t0
    ok = (worst_quad < 1e-6 and residual_ok and stab.delta_decreasing
          and stab.schatten_decreasing and stab.sandwich_ok and elapsed < budget)
    report(capsys, "criterion 7: counterterm scheme", ok,
           f"closed-form vs quadrature {worst_quad:.2e}; residuals ok "
           f"{residual_ok}; delta decreasing {stab.delta_decreasing}; "
           f"schatten decreasing {stab.schatten_decreasing}; sandwich margin "
           f"{stab.sandwich_margin:+.4f}", budget, elapsed)
    assert worst_quad < 1e-6
    assert residual_ok
    assert stab.delta_decreasing
    assert stab.schatten_decreasing
    assert stab.sandwich_ok
    assert elapsed < budget


def test_criterion_8_structural_invariants(capsys, tmp_path):
    t0 = time.time()
    budget = 300.0
    failures = []

    # Gibbs variational principle on two models, 20 random states each
    models = []
    op_a = build_one_body(GridSpec(1, 6.0, 200), "power", 3, s=4.0)
    w_a = make_pair_potential("gaussian-bump", op_a.grid, amplitude=0.5, sigma=0.6)
    models.append((op_a, w_a, 3, 8, 0.4, 1.5))
    op_b = build_one_body(GridSpec(1, 8.0, 200), "power", 2, s=2.0)
    w_b = make_pair_potential("gaussian-bump", op_b.grid, amplitude=0.3, sigma=1.0)
    models.append((op_b, w_b, 2, 10, 0.2, 2.5))
    rng = np.random.default_rng(808)
    gibbs_results = []
    for op, w, K, n_max, lam_c, T in models:
        basis = fq.build_fock(K, n_max)
        H = fq.second_quantize_one_body(basis, op.unshifted_eigenvalues[:K]) \
            + fq.second_quantize_pair(basis, build_pair_tensor(op, w, K)).scaled(lam_c)
        res = fq.gibbs_state(H, T, 0.1)
        gibbs_results.append((basis, H, res, T))
        for _ in range(20):
            trial = oracles.free_energy_functional(oracles.random_test_state(basis, rng),
                                              H, T, 0.1)
            if not trial >= res.free_energy - 1e-9:
                failures.append("variational principle violated")
        shifted = fq.gibbs_state(H, T, 0.1, E0=3.25)
        if abs(shifted.free_energy - res.free_energy - 3.25) > 1e-9:
            failures.append("E0 does not shift F additively")
        block_dist = max(np.linalg.norm(oracles.dense_sector(a) - oracles.dense_sector(b))
                         for a, b in zip(res.state.blocks, shifted.state.blocks))
        if block_dist > 1e-12:
            failures.append("E0 changed the Gibbs blocks")

    # Hermiticity / PSD / permutation symmetry of reduced objects
    basis, H, res, T = gibbs_results[0]
    for order in (1, 2):
        m = fq.reduced_density(res.state, order)
        if np.abs(m - m.conj().T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            failures.append(f"quantum order-{order} not Hermitian")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            failures.append(f"quantum order-{order} not PSD")

    op, w = models[0][0], models[0][1]
    ens = sample_gaussian(op, 3, 30_000, seed=909)
    weighted = cg.reweight(ens, op, build_pair_tensor(op, w, 3), False)
    for order in (1, 2):
        mom = cg.reduced_moment(weighted, order)
        if np.abs(mom.matrix - mom.matrix.conj().T).max() > 1e-12:
            failures.append(f"classical order-{order} not Hermitian")
        if np.linalg.eigvalsh(mom.matrix).min() < -3.0 * mom.stderr.max():
            failures.append(f"classical order-{order} not PSD within noise")
    pseudo = oracles.pseudo_moment(weighted)
    lam = op.eigenvalues[:3]
    for i in range(3):
        for j in range(3):
            if abs(pseudo[i, j]) > 4.0 / np.sqrt(lam[i] * lam[j] * weighted.size):
                failures.append("phase symmetry violated")

    # bit-exact reproducibility of a full study under different thread counts
    ini = tmp_path / "repro.ini"
    out = tmp_path / "out"
    ini.write_text(f"""
[model]
points = 256
modes = 3
[interaction]
amplitude = 0.5
sigma = 0.6
[classical]
samples = 20000
seed = 3
[quantum]
n_max = 12
t_schedule = 2, 4, 8
[output]
directory = {out}
""", encoding="utf-8")
    assert main(["study-1d", "--config", str(ini), "--threads", "1"]) == 0
    first = (out / "study-1d.json").read_bytes()
    assert main(["study-1d", "--config", str(ini), "--threads", "4"]) == 0
    if (out / "study-1d.json").read_bytes() != first:
        failures.append("study-1d not byte-identical across thread counts")

    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    report(capsys, "criterion 8: structural invariant suite", ok,
           "all invariants hold" if not failures else "; ".join(failures),
           budget, elapsed)
    assert not failures, failures
    assert elapsed < budget
