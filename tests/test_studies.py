import threading

import numpy as np
import pytest

from gibbslab.cli import main
from gibbslab.config import ConfigurationError, RunConfig
from gibbslab.interaction import exchange_term
from gibbslab.studies import (bind_potential, build_model_operator, run_study_1d,
                              run_study_2d_classical, shifted_operator)


def small_1d_config(**kw):
    cfg = RunConfig()
    cfg.model.points = 128
    cfg.model.half_width = 6.0
    cfg.model.modes = 3
    cfg.interaction.amplitude = kw.get("amplitude", 0.4)
    cfg.interaction.sigma = 0.6
    cfg.classical.samples = kw.get("samples", 5000)
    cfg.classical.seed = kw.get("seed", 7)
    cfg.quantum.n_max = kw.get("n_max", 10)
    cfg.quantum.t_schedule = kw.get("t_schedule", (2.0, 4.0))
    cfg.quantum.coupling_c = kw.get("coupling_c", 1.0)
    return cfg


def test_study_requires_1d():
    cfg = small_1d_config()
    cfg.model.dimension = 2
    cfg.model.s = 2.0
    with pytest.raises(ConfigurationError):
        run_study_1d(cfg)


def test_free_sanity_run():
    # zero coupling: F_lambda = F_0 exactly and z_r = 1; the remaining
    # trace distance is the free-case shadow, decreasing in T
    cfg = small_1d_config(coupling_c=0.0, t_schedule=(1.0, 2.0, 4.0), n_max=60,
                          samples=50_000)
    rep = run_study_1d(cfg)
    assert rep.neg_log_zr == 0.0
    assert rep.zr_stderr == 0.0
    for p in rep.points:
        assert abs(p.diff_over_T) < 1e-10
        assert p.discrepancy < 1e-10
    assert rep.delta_1_decreasing
    d1 = [p.delta_1 for p in rep.points]
    # closed-form shadow: distance between diag(f_j / T) and diag(1 / lam_j);
    # the study's number is the same up to classical sampling noise
    from gibbslab.spectral import GridSpec, build_one_body
    op = build_one_body(GridSpec(1, 6.0, 128), "power", 32, s=4.0)
    lam = op.eigenvalues[:3]
    mc_tol = 5.0 * np.sum(1.0 / lam) / np.sqrt(cfg.classical.samples)
    shadows = []
    for T, obs in zip((1.0, 2.0, 4.0), d1):
        with np.errstate(over="ignore"):
            shadow = np.sum(np.abs(1.0 / np.expm1(lam / T) / T - 1.0 / lam))
        shadows.append(shadow)
        assert obs == pytest.approx(shadow, abs=mc_tol)
    assert shadows[0] > shadows[1] > shadows[2]


def test_interacting_convergence_with_adequate_truncation():
    # the mean-field limit instance: with the particle cutoff far above the
    # thermal occupancy, all three gauges shrink monotonically along T
    cfg = small_1d_config()
    cfg.model.modes = 2
    cfg.model.points = 256
    cfg.interaction.amplitude = 0.5
    cfg.classical.samples = 120_000
    cfg.quantum.n_max = 110
    cfg.quantum.t_schedule = (2.0, 4.0, 8.0, 16.0)
    rep = run_study_1d(cfg)
    assert rep.discrepancy_decreasing
    assert rep.delta_1_decreasing
    assert rep.delta_2_decreasing
    assert all(p.cutoff_safe for p in rep.points)
    assert rep.final_discrepancy < max(0.05, 5.0 * rep.zr_stderr)


def test_study_point_fields_consistent():
    cfg = small_1d_config()
    rep = run_study_1d(cfg)
    for p, T in zip(rep.points, cfg.quantum.t_schedule):
        assert p.T == T
        assert p.lam == pytest.approx(1.0 / T)
        assert p.diff_over_T == pytest.approx(
            (p.free_energy_interacting - p.free_energy_free) / T)
        assert p.discrepancy == pytest.approx(abs(p.diff_over_T - rep.neg_log_zr))


def test_thread_count_determinism(tmp_path):
    ini = tmp_path / "study.ini"
    out = tmp_path / "o"
    base = """
[model]
points = 128
modes = 3
[interaction]
amplitude = 0.4
sigma = 0.6
[classical]
samples = 4000
seed = 5
[quantum]
n_max = 10
t_schedule = 2, 4, 8
[output]
directory = {out}
"""
    ini.write_text(base.format(out=out))
    assert main(["study-1d", "--config", str(ini), "--threads", "1"]) == 0
    first = (out / "study-1d.json").read_bytes()
    assert main(["study-1d", "--config", str(ini), "--threads", "3"]) == 0
    assert (out / "study-1d.json").read_bytes() == first


def test_one_thread_schedule_runs_on_the_caller(monkeypatch):
    # threads = 1 solves each temperature on the calling thread, with no
    # pool: a pool thread's malloc arena cannot reuse what the classical
    # half freed.  The pool for threads > 1 is covered by the byte
    # identity above
    import concurrent.futures

    from gibbslab import fock_quantum
    solved_on = []
    gibbs = fock_quantum.gibbs_from_spectra

    def recorded(*args, **kw):
        solved_on.append(threading.get_ident())
        return gibbs(*args, **kw)

    def no_pool(*args, **kw):
        raise AssertionError("a one-thread schedule started a pool")

    monkeypatch.setattr(fock_quantum, "gibbs_from_spectra", recorded)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    cfg = small_1d_config(samples=500, t_schedule=(2.0, 4.0, 8.0))
    run_study_1d(cfg, threads=1)
    assert solved_on == [threading.get_ident()] * 3


@pytest.fixture(scope="module")
def small_2d_cfg():
    # s = 4 keeps the trap strictly inside the Hilbert-Schmidt class, where
    # the renormalized interaction is genuinely Cauchy and the exchange term
    # genuinely stabilizes; s = 2 sits exactly on the boundary
    cfg = RunConfig()
    cfg.model.dimension = 2
    cfg.model.s = 4.0
    cfg.model.half_width = 6.0
    cfg.model.points = 64
    cfg.interaction.amplitude = 0.05
    cfg.interaction.sigma = 1.0
    cfg.classical.samples = 4000
    cfg.study.k_schedule = (8, 16, 32)
    cfg.study.cauchy_samples = 4000
    cfg.hartree.points = 24
    cfg.hartree.t_schedule = (4.0, 8.0, 16.0)
    cfg.hartree.damping = 0.9
    cfg.hartree.shared_modes = 10
    return cfg


@pytest.fixture(scope="module")
def small_2d_report(small_2d_cfg):
    return run_study_2d_classical(small_2d_cfg)


def test_2d_study_uv_dichotomy(small_2d_report):
    rep = small_2d_report
    directs = [r.direct for r in rep.uv_points]
    assert all(b > a for a, b in zip(directs[:-1], directs[1:]))
    assert rep.direct_growing
    exchanges = [r.exchange for r in rep.uv_points]
    incs = [b - a for a, b in zip(exchanges[:-1], exchanges[1:])]
    assert all(i > 0 for i in incs)
    assert rep.exchange_increments_shrinking


def test_2d_study_wick_checks(small_2d_report):
    for r in small_2d_report.uv_points:
        assert abs(r.mean_bare - (r.direct + r.exchange)) < 4.0 * r.stderr_bare
        assert abs(r.mean_renorm - r.exchange) < 4.0 * r.stderr_renorm


def test_2d_study_exchange_matches_streamed(small_2d_cfg, small_2d_report):
    # the study reads exchange from its pair Gram; the streamed path agrees.
    # The study solves for max(k_max, 96) eigenpairs
    cfg = small_2d_cfg
    op = shifted_operator(cfg, build_model_operator(cfg, num_eigs=96))
    w = bind_potential(cfg, op.grid)
    for r in small_2d_report.uv_points:
        assert r.exchange == pytest.approx(exchange_term(op, w, r.K), rel=1e-13)


def test_2d_study_cauchy_and_zr(small_2d_report):
    rep = small_2d_report
    assert rep.cauchy_decreasing
    bare_diffs = [c.mean_abs_bare_diff for c in rep.cauchy_points]
    ren_diffs = [c.mean_abs_renorm_diff for c in rep.cauchy_points]
    assert all(r < b for r, b in zip(ren_diffs, bare_diffs))
    zrs = [r.neg_log_zr for r in rep.uv_points]
    # z_r stabilizes along the cutoff schedule
    assert abs(zrs[-1] - zrs[-2]) < abs(zrs[1] - zrs[0]) + 4.0 * rep.uv_points[-1].zr_stderr


def test_2d_study_stabilization_and_relative_moment(small_2d_report):
    rep = small_2d_report
    assert rep.stabilization.delta_decreasing
    assert all(r.residual < 1e-8 for r in rep.stabilization.rows)
    assert np.isfinite(rep.relative_moment_trace_norm)
    assert rep.relative_moment_trace_norm > 0
    assert rep.integrability_ok
    assert rep.integrability_w_hat > 0
    assert rep.integrability_w_trap > 0
