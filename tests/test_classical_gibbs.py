import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gibbslab import classical_gibbs as cg
from gibbslab import fock_quantum as fq
from gibbslab.gaussian import _SAMPLE_CHUNK, sample_gaussian
from gibbslab.interaction import batch_interactions, build_pair_tensor, make_pair_potential
from gibbslab.spectral import GridSpec, build_one_body

import oracles


@pytest.fixture(scope="module")
def op():
    return build_one_body(GridSpec(1, 6.0, 200), "power", 8, s=4.0)


@pytest.fixture(scope="module")
def bump(op):
    return make_pair_potential("gaussian-bump", op.grid, amplitude=0.5, sigma=0.6)


@pytest.fixture(scope="module")
def zero_w(op):
    return make_pair_potential("gaussian-bump", op.grid, amplitude=0.0, sigma=0.6)


@pytest.fixture(scope="module")
def bump4(op, bump):
    return build_pair_tensor(op, bump, 4)


@pytest.fixture(scope="module")
def ensemble(op):
    return sample_gaussian(op, 4, 50_000, seed=424)


def simpson_average(lam1, pair_diag, renormalized, observable, n=200_001, x_max=80.0):
    """Independent dense-grid oracle for single-mode averages."""
    from scipy.integrate import simpson
    m = 1.0 / lam1
    x = np.linspace(0.0, x_max * m, n)
    shift = m if renormalized else 0.0
    profile = np.exp(-0.5 * pair_diag * (x - shift) ** 2) * np.exp(-x / m) / m
    return simpson(observable(x) * profile, x=x)


def test_zero_interaction_weights(ensemble, op, zero_w):
    out = cg.reweight(ensemble, op, build_pair_tensor(op, zero_w, 4), False)
    assert np.all(out.weights == 1.0)
    est = cg.estimate_log_zr(out)
    assert est.neg_log_zr == 0.0
    assert est.ess == pytest.approx(ensemble.size)


def test_single_mode_weights_closed_form(op, bump):
    ens = sample_gaussian(op, 1, 200, seed=3)
    bump1 = build_pair_tensor(op, bump, 1)
    out = cg.reweight(ens, op, bump1, True)
    W1 = oracles.fock_tensor(bump1)[0, 0, 0, 0]
    x = np.abs(ens.coefficients[:, 0]) ** 2
    expected = np.exp(-0.5 * W1 * (x - 1.0 / op.eigenvalues[0]) ** 2)
    # stored as exp(-(D - min D)): the importance weights are scaled back
    assert np.abs(out.weights * np.exp(-out.energy_floor) - expected).max() < 1e-12


def test_weights_bounded_by_one(ensemble, op, bump4):
    for renormalized in (False, True):
        out = cg.reweight(ensemble, op, bump4, renormalized)
        # min D >= 0, so every importance weight exp(-D) is at most one
        assert out.energy_floor >= -1e-12
        assert out.weights.min() > 0.0


def test_log_zr_single_mode_oracle(op, bump):
    lam1 = op.eigenvalues[0]
    bump1 = build_pair_tensor(op, bump, 1)
    W1 = oracles.fock_tensor(bump1)[0, 0, 0, 0]
    # package quadrature against an independent Simpson oracle
    for renorm in (True, False):
        z_pkg = oracles.single_mode_log_zr(lam1, W1, renormalized=renorm)
        z_ora = -np.log(simpson_average(lam1, W1, renorm, lambda x: np.ones_like(x)))
        assert abs(z_pkg - z_ora) < 1e-8
    # Monte Carlo against the quadrature
    ens = sample_gaussian(op, 1, 100_000, seed=5150)
    out = cg.reweight(ens, op, bump1, True)
    est = cg.estimate_log_zr(out)
    assert abs(est.neg_log_zr - oracles.single_mode_log_zr(lam1, W1)) < 4.0 * est.stderr


def test_moment_single_mode_oracle(op, bump):
    lam1 = op.eigenvalues[0]
    bump1 = build_pair_tensor(op, bump, 1)
    W1 = oracles.fock_tensor(bump1)[0, 0, 0, 0]
    m_pkg = oracles.single_mode_moment(lam1, W1)
    z = simpson_average(lam1, W1, True, lambda x: np.ones_like(x))
    m_ora = simpson_average(lam1, W1, True, lambda x: x) / z
    assert abs(m_pkg - m_ora) < 1e-8
    ens = sample_gaussian(op, 1, 100_000, seed=5151)
    out = cg.reweight(ens, op, bump1, True)
    mom = cg.reduced_moment(out, 1)
    assert abs(mom.matrix[0, 0].real - m_pkg) < 4.0 * mom.stderr[0, 0]


def test_mean_renorm_energy_is_exchange(op, bump):
    from gibbslab.interaction import exchange_term
    lam1 = op.eigenvalues[0]
    W1 = oracles.fock_tensor(build_pair_tensor(op, bump, 1))[0, 0, 0, 0]
    assert oracles.single_mode_mean_renorm_energy(lam1, W1) == pytest.approx(
        exchange_term(op, bump, 1), rel=1e-10)


def test_free_moment_k1(ensemble, op):
    mom = cg.reduced_moment(ensemble, 1)
    lam = op.eigenvalues[:4]
    target = np.diag(1.0 / lam)
    assert np.abs(mom.matrix - target).max() < 5.0 * mom.stderr.max()
    herm = mom.matrix - mom.matrix.conj().T
    assert np.abs(herm).max() < 1e-12 * np.abs(mom.matrix).max()


def test_free_moment_k2_isserlis(ensemble, op):
    mom = cg.reduced_moment(ensemble, 2)
    lam = op.eigenvalues[:4]
    pairs, _ = fq.symmetric_basis(4, 2)
    # E |a_i|^2 |a_j|^2 = (1 + delta_ij) / (lam_i lam_j), with the sqrt(2)
    # symmetric-basis weights on the off-diagonal pairs
    for col, (i, j) in enumerate(pairs):
        c2 = 1.0 if i == j else 2.0
        expected = c2 * (1.0 + (i == j)) / (lam[i] * lam[j])
        err = abs(mom.matrix[col, col].real - expected)
        assert err < 5.0 * mom.stderr[col, col], (i, j)


def test_moment_stderr_explicit_sum(op):
    # M and the stderr, accumulated over blocks of _SAMPLE_CHUNK samples,
    # against sum_s w_s f_s f_s^* / sum w and
    # sqrt(sum_s w_s^2 |f_s f_s^* - M|^2) / sum w over the symmetric-basis
    # features f_s of each sample; n = 1, C - 1, C, C + 1 and 3C + 5 cross
    # the block boundaries
    C = _SAMPLE_CHUNK
    rng = np.random.default_rng(3)
    for n in (50, 1, C - 1, C, C + 1, 3 * C + 5):
        w = rng.uniform(0.05, 1.0, n)
        ens = sample_gaussian(op, 3, n, seed=9).with_weights(w)
        for order in fq.ORDERS:
            tuples, c = fq.symmetric_basis(3, order)
            f = np.stack([c[col] * np.prod(ens.coefficients[:, list(t)], axis=1)
                          for col, t in enumerate(tuples)], axis=1)
            ff = f[:, :, None] * f.conj()[:, None, :]
            M = np.einsum("s,sij->ij", w, ff) / w.sum()
            mom = cg.reduced_moment(ens, order)
            assert np.abs(mom.matrix - M).max() <= 1e-13 * np.abs(M).max(), (n, order)
            if n == 1:
                # one sample: the expansion cancels to roundoff, which must
                # not go negative
                assert np.all(np.isfinite(mom.stderr)) and mom.stderr.min() >= 0.0, order
                assert mom.stderr.max() <= 1e-6 * np.abs(mom.matrix).max(), order
                continue
            dev = ff - mom.matrix
            ref = np.sqrt(np.einsum("s,sij->ij", w**2, np.abs(dev) ** 2)) / w.sum()
            assert np.all(np.abs(mom.stderr - ref) <= 1e-12 * ref), (n, order)


def test_moment_peak_rss():
    # the order-2 moment at the K = 12 cap on 100k samples holds one block's
    # features and its products, never (n, P) arrays (P = 78, 125 MB each).
    # Growth runs from the resident set just before the call to the peak of
    # the child's own address space: ru_maxrss would carry over the peak of
    # the test process that spawned it
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""
        import numpy as np
        from gibbslab import classical_gibbs as cg
        from gibbslab.gaussian import Ensemble
        def status_kb(key):
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith(key))
        rng = np.random.default_rng(5)
        n = 100_000
        ens = Ensemble(coefficients=rng.standard_normal((n, 24)).view(complex),
                       weights=rng.uniform(0.05, 1.0, n), seed=0)
        before = status_kb("VmRSS:")
        cg.reduced_moment(ens, 2)
        after = status_kb("VmHWM:")
        print(before, after)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    before_kb, after_kb = map(int, res.stdout.split())
    assert (after_kb - before_kb) * 1024 <= 16 * 2**20


def test_reweight_peak_rss():
    # reweight writes the weights over the energies it owns, and the Wick
    # shift is added into them block by block: study-1d's 400k samples at
    # K = 4, bare or renormalized interaction, raise the peak by one (n,)
    # array and block temporaries, not by the energies, a shift, a shifted
    # copy and the weights side by side.  Growth runs as in
    # test_moment_peak_rss, one child per form; the ensemble is allocated
    # last before the call, so no earlier peak is above the resident set it
    # starts from
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from gibbslab import classical_gibbs as cg, studies
        from gibbslab.config import load_config
        from gibbslab.gaussian import Ensemble
        from gibbslab.interaction import build_pair_tensor
        def status_kb(key):
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith(key))
        cfg = load_config(%r)
        op = studies.shifted_operator(cfg, studies.build_model_operator(cfg))
        tensor = build_pair_tensor(op, studies.bind_potential(cfg, op.grid), 4)
        n = 400_000
        coeffs = np.random.default_rng(5).standard_normal((n, 8)).view(complex)
        coeffs *= 1.0 / np.sqrt(2.0 * op.eigenvalues[:4])
        ens = Ensemble(coefficients=coeffs, weights=np.ones(n), seed=0)
        before = status_kb("VmRSS:")
        out = cg.reweight(ens, op, tensor, renormalized=sys.argv[1] == "True")
        after = status_kb("VmHWM:")
        print(before, after, out.weights.nbytes)
    """ % str(root / "configs" / "study_1d.ini"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    for renormalized in (False, True):
        res = subprocess.run([sys.executable, "-c", script, str(renormalized)], env=env,
                             check=True, capture_output=True, text=True, timeout=300)
        before_kb, after_kb, nbytes = map(int, res.stdout.split())
        assert (after_kb - before_kb) * 1024 <= 1.5 * nbytes, renormalized


def test_log_domain_weights(ensemble, op, bump4):
    # exp(-(D + 800)) underflows to zero for every sample; stored relative
    # to min D, the weights, ESS and moments are those of D, and -log z_r
    # moves by 800
    D = batch_interactions(ensemble, op, bump4, False)
    base, shifted = cg.weigh(ensemble, D), cg.weigh(ensemble, D + 800.0)
    assert shifted.weights.max() == 1.0
    eb, es = cg.estimate_log_zr(base), cg.estimate_log_zr(shifted)
    assert es.neg_log_zr == pytest.approx(eb.neg_log_zr + 800.0, rel=1e-12)
    assert es.ess == pytest.approx(eb.ess, rel=1e-13)
    for order in fq.ORDERS:
        mb, ms = cg.reduced_moment(base, order), cg.reduced_moment(shifted, order)
        assert np.abs(ms.matrix - mb.matrix).max() <= 1e-13 * np.abs(mb.matrix).max()
    for bad in (np.inf, np.nan):
        with pytest.raises(ArithmeticError):
            cg.weigh(ensemble, np.where(np.arange(ensemble.size) < 3, bad, np.inf))
    with pytest.raises(ArithmeticError, match="vanished"):
        cg.estimate_log_zr(ensemble.with_weights(np.zeros(ensemble.size)))


def test_moment_mass_consistency(ensemble, op, bump4):
    out = cg.reweight(ensemble, op, bump4, False)
    mom = cg.reduced_moment(out, 1)
    mass = (np.abs(out.coefficients) ** 2).sum(axis=1)
    weighted_mass = float((out.weights * mass).sum() / out.weights.sum())
    assert np.trace(mom.matrix).real == pytest.approx(weighted_mass, rel=1e-12)


def test_moment_psd(ensemble, op, bump4):
    out = cg.reweight(ensemble, op, bump4, True)
    for order in (1, 2):
        mom = cg.reduced_moment(out, order)
        evals = np.linalg.eigvalsh(mom.matrix)
        assert evals.min() > -3.0 * mom.stderr.max()


def test_phase_symmetry(ensemble, op, bump4):
    out = cg.reweight(ensemble, op, bump4, False)
    pseudo = oracles.pseudo_moment(out)
    lam = op.eigenvalues[:4]
    for i in range(4):
        for j in range(4):
            stderr = 1.0 / np.sqrt(lam[i] * lam[j] * out.size)
            assert abs(pseudo[i, j]) < 4.0 * stderr


def test_zr_in_unit_interval(ensemble, op, bump4):
    out = cg.reweight(ensemble, op, bump4, False)
    est = cg.estimate_log_zr(out)
    assert est.neg_log_zr > -3.0 * est.stderr  # z_r <= 1 when D >= 0


def test_stderr_clt_scaling(op, bump4):
    errs = []
    ns = [1000, 10_000, 100_000]
    for n in ns:
        ens = sample_gaussian(op, 4, n, seed=88)
        out = cg.reweight(ens, op, bump4, False)
        errs.append(cg.estimate_log_zr(out).stderr)
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    assert abs(slope + 0.5) < 0.15


def test_renorm_vs_bare_zr_shift_single_mode(op):
    # small grid-delta: the renormalized weight differs from the bare one by
    # the counterterm recentering; both must match their quadrature oracles
    delta = make_pair_potential("grid-delta", op.grid, amplitude=0.05)
    lam1 = op.eigenvalues[0]
    delta1 = build_pair_tensor(op, delta, 1)
    W1 = oracles.fock_tensor(delta1)[0, 0, 0, 0]
    ens = sample_gaussian(op, 1, 100_000, seed=4242)
    bare = cg.reweight(ens, op, delta1, False)
    ren = cg.reweight(ens, op, delta1, True)
    eb, er = cg.estimate_log_zr(bare), cg.estimate_log_zr(ren)
    diff_mc = eb.neg_log_zr - er.neg_log_zr
    diff_oracle = (oracles.single_mode_log_zr(lam1, W1, renormalized=False)
                   - oracles.single_mode_log_zr(lam1, W1, renormalized=True))
    assert abs(diff_mc - diff_oracle) < 4.0 * np.hypot(eb.stderr, er.stderr)


def test_low_ess_warning(op):
    strong = make_pair_potential("gaussian-bump", op.grid, amplitude=300.0, sigma=0.6)
    ens = sample_gaussian(op, 4, 2000, seed=11)
    with pytest.warns(cg.LowEffectiveSampleSize):
        out = cg.reweight(ens, op, build_pair_tensor(op, strong, 4), False)
    assert cg.estimate_log_zr(out).low_confidence


def test_trace_distance():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert cg.trace_distance(a, a) == 0.0
    assert cg.trace_distance(a, b) == pytest.approx(2.0)
    with pytest.raises(Exception):
        cg.trace_distance(np.ones((2, 2)), np.ones((2, 3)))


def test_moment_order_cap(ensemble):
    with pytest.raises(Exception):
        cg.reduced_moment(ensemble, 3)
