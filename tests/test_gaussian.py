import os
import struct
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import _ziggurat, gaussian
from gibbslab import classical_gibbs as cg
from gibbslab import formats
from gibbslab.config import ConfigurationError
from gibbslab.gaussian import _SAMPLE_CHUNK, Ensemble, sample_gaussian
from gibbslab.spectral import GridSpec, build_one_body, shift_potential

from oracles import (fields_on_grid, numpy_normals, sobolev_norms_sq, ziggurat_fi,
                     ziggurat_tables)


@pytest.fixture(scope="module")
def op():
    return build_one_body(GridSpec(1, 6.0, 256), "power", 16, s=4.0)


def one(coeffs) -> Ensemble:
    """Batch-of-one ensemble holding a single field."""
    a = np.asarray(coeffs, dtype=complex)[None, :]
    return Ensemble(coefficients=a, weights=np.ones(1), seed=0)


@pytest.fixture(scope="module")
def big_ensemble(op):
    return sample_gaussian(op, 8, 100_000, seed=20240)


def test_mode_variance(op, big_ensemble):
    lam = op.eigenvalues[:8]
    emp = (np.abs(big_ensemble.coefficients) ** 2).mean(axis=0)
    stderr = (1.0 / lam) / np.sqrt(big_ensemble.size)
    assert np.all(np.abs(emp - 1.0 / lam) < 4.0 * stderr)


def test_cross_mode_independence(op, big_ensemble):
    a = big_ensemble.coefficients
    lam = op.eigenvalues[:8]
    n = big_ensemble.size
    for i, j in [(0, 1), (2, 5), (3, 7)]:
        cross = np.mean(a[:, i] * np.conj(a[:, j]))
        stderr = 1.0 / np.sqrt(lam[i] * lam[j] * n)
        assert abs(cross) < 4.0 * stderr


def test_pseudo_covariance_vanishes(op, big_ensemble):
    a = big_ensemble.coefficients
    lam = op.eigenvalues[:8]
    for j in range(4):
        val = np.mean(a[:, j] ** 2)
        assert abs(val) < 4.0 / (lam[j] * np.sqrt(big_ensemble.size))


def test_fourth_moment_isserlis(op, big_ensemble):
    lam = op.eigenvalues[:8]
    emp = (np.abs(big_ensemble.coefficients) ** 4).mean(axis=0)
    # Var|a|^4 = 20 / lam^4 for the complex Gaussian
    stderr = np.sqrt(20.0) / lam**2 / np.sqrt(big_ensemble.size)
    assert np.all(np.abs(emp - 2.0 / lam**2) < 5.0 * stderr)


def test_reproducibility(op):
    e1 = sample_gaussian(op, 4, 500, seed=99)
    e2 = sample_gaussian(op, 4, 500, seed=99)
    assert np.array_equal(e1.coefficients, e2.coefficients)
    e3 = sample_gaussian(op, 4, 500, seed=100)
    assert not np.array_equal(e1.coefficients, e3.coefficients)


def test_empty_ensemble(op):
    for K in (4, 13):
        ens = sample_gaussian(op, K, 0, seed=3)
        assert ens.coefficients.shape == (0, K) and ens.weights.shape == (0,)


def test_sample_streams_are_prefix_stable(op):
    # per-sample streams: the first rows do not depend on n, also when the
    # larger ensemble is drawn in more than one block
    small = sample_gaussian(op, 4, 10, seed=7)
    large = sample_gaussian(op, 4, 2 * _SAMPLE_CHUNK + 5, seed=7)
    assert np.array_equal(small.coefficients, large.coefficients[:10])
    mid = sample_gaussian(op, 4, _SAMPLE_CHUNK + 1, seed=7)
    assert np.array_equal(mid.coefficients, large.coefficients[:_SAMPLE_CHUNK + 1])


@pytest.fixture(scope="module")
def wide_op():
    return build_one_body(GridSpec(1, 6.0, 256), "power", 64, s=4.0)


@pytest.mark.parametrize("K", [1, 2, 4, 5, 6, 7, 12, 13, 18, 19, 64])
def test_draws_match_per_sample_philox(wide_op, K):
    # sample i is numpy's standard_normal((2, K)) on Philox(key=(seed << 64) | i),
    # whichever path drew it (the block path serves K <= 18)
    assert gaussian._BLOCK_MAX_K == 18
    scale = 1.0 / np.sqrt(2.0 * wide_op.eigenvalues[:K])
    for n in (1, 2 * _SAMPLE_CHUNK + 3):
        for seed in (0, 7, 2**63 - 1, 2**64 - 2, 2**64 - 1):
            ens = sample_gaussian(wide_op, K, n, seed=seed)
            expect = np.empty((n, K), dtype=complex)
            for i in range(n):
                rng = np.random.Generator(np.random.Philox(key=(seed << 64) | i))
                z = rng.standard_normal((2, K))
                expect[i] = scale * (z[0] + 1j * z[1])
            assert np.array_equal(ens.coefficients, expect)


@pytest.mark.parametrize("K", [1, 4, 12, 13, 18])
def test_block_draws_match_numpy_across_batches(wide_op, monkeypatch, K):
    # blocks of 128 samples, so that the samples off the ziggurat's fast
    # path fill several resolve batches of 64 and carry over between them
    monkeypatch.setattr(gaussian, "_SAMPLE_CHUNK", 32)
    batches = []
    resolve = gaussian._BlockDraws.resolve

    def counted(self, resets):
        batches.append(min(self.piled, self.batch))
        yield from resolve(self, resets)

    monkeypatch.setattr(gaussian._BlockDraws, "resolve", counted)
    n = {1: 6000, 4: 2000, 12: 800, 13: 800, 18: 600}[K]
    scale = 1.0 / np.sqrt(2.0 * wide_op.eigenvalues[:K])
    for seed in (0, 7, 2**64 - 1):
        batches.clear()
        ens = sample_gaussian(wide_op, K, n, seed=seed)
        assert len(batches) >= 3 and batches.count(64) >= 2
        for i in range(n):
            z = np.random.Generator(np.random.Philox(key=(seed << 64) | i)).standard_normal((2, K))
            assert np.array_equal(ens.coefficients[i], scale * (z[0] + 1j * z[1])), (seed, i)


@pytest.mark.parametrize("K, share", [(4, (0.995, 1.0)), (6, (0.995, 1.0)),
                                      (12, (0.995, 1.0)), (13, (0.995, 1.0)),
                                      (18, (0.995, 1.0)), (19, None)])
def test_block_path_serves_small_cutoffs(wide_op, monkeypatch, K, share):
    # the block path finishes a sample unless its draws run past the words of
    # its counters and two more, so all but at most 0.5% of the samples are
    # finished without a numpy Philox reset; for K > 18 every sample is reset
    resets, blocks = [], []
    draw, init = gaussian._Resets.draw, gaussian._BlockDraws.__init__

    def counted(self, i, out):
        resets.append(i)
        return draw(self, i, out)

    def made(self, *args):
        blocks.append(args)
        init(self, *args)

    monkeypatch.setattr(gaussian._Resets, "draw", counted)
    monkeypatch.setattr(gaussian._BlockDraws, "__init__", made)
    n = 3 * _SAMPLE_CHUNK + 5
    sample_gaussian(wide_op, K, n, seed=11)
    if share is None:
        assert blocks == [] and resets == list(range(n))
    else:
        assert len(blocks) == 1
        assert share[0] <= (n - len(resets)) / n <= share[1]


def _word(layer, rabs):
    """A stream word of the given ziggurat layer and 52-bit magnitude, sign bit 0."""
    return int(rabs) << 9 | layer


def test_block_fast_path_boundary(monkeypatch):
    # a word r is taken iff rabs < ki[layer], with layer = r & 0xff, sign at
    # bit 8 and rabs = r >> 9: here sample 0's four words sit just inside
    # their layers, and sample 1 has one word on a bound (layer 1's is 0)
    layer = np.array([[0, 2, 255, 7], [1, 2, 3, 4]])
    sign = np.array([[0, 1, 0, 1], [0, 0, 0, 0]])
    rabs = _ziggurat.KI[layer] - np.array([[1, 1, 1, 1], [0, 1, 1, 1]], dtype=np.uint64)
    words = rabs << np.uint64(9) | (sign << 8 | layer).astype(np.uint64)
    blocks = gaussian._BlockDraws(2, 2, seed=0)
    monkeypatch.setattr(blocks, "philox", lambda i, counters: tuple(words.T[:, None]))
    out = np.empty((2, 4))
    assert blocks.draw(out, 0).tolist() == [1]
    assert np.array_equal(out[0], (1 - 2 * sign[0]) * rabs[0] * _ziggurat.WI[layer[0]])


def test_block_rejection_replay(monkeypatch):
    # K = 2 reads 4 normals from the 4 words of counter 1; a sample with a
    # miss among them is replayed on those and the 4 words of counter 2,
    # and drawn again by a reset only when numpy's loop reads past them
    ki, top = _ziggurat.KI, (1 << 52) - 1
    fast, u_low, u_high = _word(7, 1), 0, top << 12

    def tail(sign):
        return _word(0, top - (not sign) * 256)  # sign at bit 8 of rabs

    rows = [
        [_word(5, ki[5]), u_low] + [fast] * 6,  # wedge accept
        [_word(200, top), u_high] + [fast] * 6,  # wedge reject, then fast words
        [_word(1, 12345), u_low] + [fast] * 6,  # layer 1, whose bound is 0
        [fast, tail(1), 1 << 63, 1 << 63] + [fast] * 4,  # tail accept, negative
        [fast, fast, tail(0), u_high, 0, 1 << 63, 1 << 63, fast],  # tail reject, accept
        [fast, fast, fast, _word(9, top), u_high] + [fast] * 3,  # miss at word 3
        [fast] * 4 + [_word(9, top)] * 4,  # misses only after the wanted words
        [tail(0)] + [u_high, 0] * 3 + [fast],  # tail runs past: drawn again
        [_word(200, top), u_high] * 4,  # rejections run past: drawn again
    ]
    words = np.array(rows, dtype=np.uint64)
    expect = [numpy_normals(row, 4) for row in rows]
    drawn_again = [j for j, (_, used) in enumerate(expect) if used > 8]
    assert drawn_again == [7, 8]

    blocks = gaussian._BlockDraws(2 * len(rows), 2, seed=0)  # one batch of len(rows)

    def philox(i, counters):
        w = words[i[0].astype(np.intp), 4 * counters.start:4 * counters.stop]
        return tuple(w[:, k::4].T for k in range(4))

    class Resets:
        def draw(self, i, out):
            calls.append(i)
            return out

    calls = []
    monkeypatch.setattr(blocks, "philox", philox)
    out = np.empty((len(rows), 4))
    assert blocks.draw(out, 0).tolist() == [0, 1, 2, 3, 4, 5, 7, 8]
    assert np.array_equal(out[6], expect[6][0])
    (done, z), *rest = blocks.resolve(Resets())
    assert done.tolist() == [0, 1, 2, 3, 4, 5]
    for j, normals in zip(done, z.reshape(len(done), 4)):
        assert np.array_equal(normals, expect[j][0]), j
    assert [rows_.start for rows_, _ in rest] == calls == drawn_again
    assert blocks.piled == 0 and blocks.pile == []


def test_ziggurat_tables_match_numpy():
    ki, wi = ziggurat_tables()
    assert np.array_equal(_ziggurat.KI, ki) and np.array_equal(_ziggurat.WI, wi)
    fi = _ziggurat.FI
    assert fi[0] == 1.0 and np.all(np.diff(fi) < 0)
    assert np.array_equal(fi, ziggurat_fi(wi))


def test_seed_out_of_range(op, monkeypatch):
    # a seed is one 64-bit Philox key word; nothing wraps around, and the
    # seed is refused before anything is drawn
    def refuse(*args):
        raise AssertionError("drew samples for a seed out of range")

    monkeypatch.setattr(gaussian, "_BlockDraws", refuse)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            sample_gaussian(op, 2, 3, seed=seed)


def test_sampling_peak_rss():
    # draws go through one block buffer and, for K <= 18, one block workspace
    # of twice its size, never a full (n, 2, K) array.
    # Growth runs from the resident set just before sampling to the peak of
    # the child's own address space: ru_maxrss would carry over the peak of
    # the test process that spawned it
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""
        from gibbslab import studies
        from gibbslab.config import load_config
        from gibbslab.gaussian import sample_gaussian
        def status_kb(key):
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith(key))
        cfg = load_config(%r)
        op = studies.shifted_operator(cfg, studies.build_model_operator(cfg))
        before = status_kb("VmRSS:")
        ens = sample_gaussian(op, 4, 200_000, 7)
        after = status_kb("VmHWM:")
        print(before, after, ens.coefficients.nbytes)
    """ % str(root / "configs" / "study_1d.ini"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    before_kb, after_kb, nbytes = map(int, res.stdout.split())
    assert (after_kb - before_kb) * 1024 <= 1.25 * nbytes


def test_covariance_frobenius_scaling(op):
    lam = op.eigenvalues[:4]
    target = np.diag(1.0 / lam)
    errs = []
    ns = [1000, 10_000, 100_000]
    for n in ns:
        ens = sample_gaussian(op, 4, n, seed=31)
        cov = (ens.coefficients.conj().T @ ens.coefficients) / n
        errs.append(np.linalg.norm(cov - target))
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    assert abs(slope + 0.5) < 0.15


def test_mass_matches_partial_traces(op, big_ensemble):
    # E sum |a_j|^2 equals the partial sum of 1/lambda_j
    mass = sobolev_norms_sq(big_ensemble, op, 0.0)
    partial_k8 = np.sum(1.0 / op.eigenvalues[:8])
    stderr = np.sqrt(np.sum(1.0 / op.eigenvalues[:8] ** 2) / big_ensemble.size)
    assert abs(mass.mean() - partial_k8) < 4.0 * stderr
    assert partial_k8 < np.sum(1.0 / op.eigenvalues)  # mass grows with the cutoff


def test_sobolev_t0_is_mass(op):
    a = np.array([1.0 + 1j, 0.5, 0.25j])
    assert sobolev_norms_sq(one(a), op, 0.0)[0] == pytest.approx(np.sum(np.abs(a) ** 2))


def test_sobolev_energy_expectation(op, big_ensemble):
    vals = sobolev_norms_sq(big_ensemble, op, 1.0)
    K = big_ensemble.cutoff
    stderr = np.sqrt(K / big_ensemble.size)
    assert abs(vals.mean() - K) < 4.0 * stderr


def test_sobolev_pairing_with_schatten(op, big_ensemble):
    # E |u|^2_{1-p} equals the partial Schatten sum at exponent p
    p = 1.0
    vals = sobolev_norms_sq(big_ensemble, op, 1.0 - p)
    partial = np.sum(op.eigenvalues[:8] ** (-p))
    spread = np.sqrt(np.sum(op.eigenvalues[:8] ** (-2 * p)) / big_ensemble.size)
    assert abs(vals.mean() - partial) < 4.0 * spread


def test_field_synthesis_basis(op):
    f = fields_on_grid(one([1.0, 0, 0]), op)[0]
    assert np.abs(f - op.eigenvectors[:, 0]).max() < 1e-14
    assert not fields_on_grid(one(np.zeros(3)), op).any()


def test_parseval(op):
    ens = sample_gaussian(op, 6, 50, seed=3)
    fields = fields_on_grid(ens, op)
    grid_mass = (np.abs(fields) ** 2).sum(axis=1)
    coeff_mass = (np.abs(ens.coefficients) ** 2).sum(axis=1)
    assert np.abs(grid_mass - coeff_mass).max() < 1e-10


def test_requires_positive_operator(op):
    shifted = shift_potential(op, op.eigenvalues[0] - 1e-9)
    assert shifted.eigenvalues[0] > 0  # legal but tiny
    with pytest.raises(ConfigurationError, match=r"K=40 out of range"):
        sample_gaussian(op, 40, 5, seed=1)  # more modes than computed
    with pytest.raises(ConfigurationError, match="positive operator"):
        negative = replace(op, eigenvalues=op.eigenvalues - op.eigenvalues[1])
        sample_gaussian(negative, 2, 5, seed=1)


@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.integers(min_value=1, max_value=32))
@settings(max_examples=20, deadline=None)
def test_weights_start_at_one(op, seed, n):
    ens = sample_gaussian(op, 3, n, seed=seed)
    assert np.all(ens.weights == 1.0)
    assert np.all(np.isfinite(ens.coefficients))


def test_truncated_view(op):
    ens = sample_gaussian(op, 8, 40, seed=12)
    sub = ens.truncated(3)
    assert sub.cutoff == 3
    assert np.array_equal(sub.coefficients, ens.coefficients[:, :3])
    for bad in (9, 0, -1):
        with pytest.raises(ValueError):
            ens.truncated(bad)


def test_ensemble_binary_roundtrip(op, tmp_path):
    ens = sample_gaussian(op, 5, 37, seed=17)
    ens = ens.with_weights(np.linspace(0.5, 1.0, 37))
    path = tmp_path / "e.gfl1"
    formats.write_ensemble(path, ens)
    back = formats.read_ensemble(path)
    assert back.cutoff == 5 and back.size == 37 and back.seed == 17
    assert np.array_equal(back.coefficients, ens.coefficients)
    assert np.array_equal(back.weights, ens.weights)


def test_ensemble_dump_refuses_energy_floor(op, tmp_path):
    # weighed weights are relative to exp(-min D), which GFL1 does not hold:
    # reading them back would move -log z_r by min D, so the write is refused
    ens = sample_gaussian(op, 2, 10, seed=4)
    weighed = cg.weigh(ens, np.linspace(800.0, 801.0, 10))
    path = tmp_path / "e.gfl1"
    with pytest.raises(ValueError, match="energy_floor"):
        formats.write_ensemble(path, weighed)
    assert not path.exists()
    formats.write_ensemble(path, cg.weigh(ens, np.linspace(0.0, 1.0, 10)))
    back = formats.read_ensemble(path)
    assert np.array_equal(back.weights, np.exp(-np.linspace(0.0, 1.0, 10)))


def test_ensemble_binary_layout(op, tmp_path):
    ens = sample_gaussian(op, 2, 3, seed=5)
    path = tmp_path / "e.gfl1"
    formats.write_ensemble(path, ens)
    raw = path.read_bytes()
    assert raw[:4] == b"GFL1"
    K, n, seed = struct.unpack("<IQQ", raw[4:24])
    assert (K, n, seed) == (2, 3, 5)
    re0, im0 = struct.unpack("<dd", raw[24:40])
    assert re0 == ens.coefficients[0, 0].real
    assert im0 == ens.coefficients[0, 0].imag
    assert len(raw) == 24 + 16 * 6 + 8 * 3
