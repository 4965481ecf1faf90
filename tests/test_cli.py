import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbslab import formats
from gibbslab.cli import main
from gibbslab.config import ConfigurationError, RunConfig, load_config, validate
from gibbslab.gaussian import Ensemble

SMALL_1D = """
[model]
dimension = 1
potential = power
s = 4.0
half_width = 6.0
points = 128
modes = 3
nu = 0.0

[interaction]
kind = gaussian-bump
amplitude = 0.4
sigma = 0.6

[classical]
samples = 4000
seed = 13

[quantum]
n_max = 10
t_schedule = 2, 4
coupling_c = 1.0

[output]
directory = {out}
format = json
"""


def write_config(tmp_path, text=SMALL_1D, **extra):
    out = tmp_path / "out"
    body = text.format(out=out)
    for section, lines in extra.items():
        body += f"\n[{section}]\n" + "\n".join(lines) + "\n"
    path = tmp_path / "run.ini"
    path.write_text(body, encoding="utf-8")
    return path, out


def test_config_roundtrip(tmp_path):
    path, out = write_config(tmp_path)
    cfg = load_config(path)
    assert cfg.model.modes == 3
    assert cfg.quantum.t_schedule == (2.0, 4.0)
    assert cfg.output.directory == str(out)


def test_config_rejects_unknown_field(tmp_path):
    path, _ = write_config(tmp_path, model_extra=[])
    bad = path.read_text().replace("[interaction]", "[interaction]\nwhatever = 3")
    path.write_text(bad)
    with pytest.raises(ConfigurationError, match="whatever"):
        load_config(path)


@pytest.mark.parametrize("old, new, name", [
    ("[output]", "[echo]\nx = 1\n\n[output]", "[echo]"),  # a RunConfig method
    ("[output]", "[bogus]\nx = 1\n\n[output]", "[bogus]"),
    ("[model]", "[model]\nbogus = 1", "model.bogus"),
])
def test_config_rejects_unknown_names(tmp_path, old, new, name):
    path, _ = write_config(tmp_path, text=SMALL_1D.replace(old, new))
    with pytest.raises(ConfigurationError, match=re.escape(name)):
        load_config(path)


def test_config_cross_field_checks():
    cfg = RunConfig()
    cfg.model.dimension = 2
    cfg.interaction.kind = "grid-delta"
    with pytest.raises(ConfigurationError, match="grid-delta"):
        validate(cfg)
    cfg = RunConfig()
    cfg.quantum.t_schedule = (4.0, 2.0)
    with pytest.raises(ConfigurationError, match="increasing"):
        validate(cfg)
    cfg = RunConfig()
    cfg.model.modes = 13
    with pytest.raises(ConfigurationError, match="modes"):
        validate(cfg)
    cfg = RunConfig()
    cfg.model.s = 0.5
    with pytest.raises(ConfigurationError, match="model.s"):
        validate(cfg)
    cfg = RunConfig()
    cfg.interaction.kind = "tabulated"
    with pytest.raises(ConfigurationError, match="table_path"):
        validate(cfg)


def test_config_cauchy_samples_floor():
    # one sample has no standard error, zero none at all: both are refused
    # before the 2D study runs
    for n in (0, 1):
        cfg = RunConfig()
        cfg.study.cauchy_samples = n
        with pytest.raises(ConfigurationError, match="study.cauchy_samples"):
            validate(cfg)
    cfg = RunConfig()
    cfg.study.cauchy_samples = 2
    validate(cfg)


def test_config_classical_samples_floor(tmp_path, capsys):
    # one sample leaves the classical standard errors, and study-1d's final
    # threshold, infinite, and zero leaves nothing to estimate: both are
    # refused before any run
    for n in (0, 1):
        cfg = RunConfig()
        cfg.classical.samples = n
        with pytest.raises(ConfigurationError, match="classical.samples"):
            validate(cfg)
    cfg = RunConfig()
    cfg.classical.samples = 2
    validate(cfg)
    path, _ = write_config(tmp_path, text=SMALL_1D.replace("samples = 4000", "samples = 1"))
    assert main(["study-1d", "--config", str(path)]) == 2
    assert "classical.samples" in capsys.readouterr().err


def test_cli_default_num_eigs_on_a_small_grid(tmp_path):
    # with model.num_eigs = 0 the default of 32 eigenpairs stops at the grid,
    # so a 16-point grid runs instead of refusing a num_eigs the config never set
    path, out = write_config(tmp_path, text=SMALL_1D.replace("points = 128", "points = 16"))
    assert main(["spectrum", "--config", str(path)]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert len(doc["results"]["eigenvalues"]) == 16
    assert main(["classical-gibbs", "--config", str(path)]) == 0


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\ndimension = 7\n")
    assert main(["spectrum", "--config", str(bad)]) == 2
    assert main(["spectrum", "--config", str(tmp_path / "missing.ini")]) == 2


def test_shipped_configs_validate():
    root = Path(__file__).resolve().parent.parent
    shipped = sorted(root.glob("configs/*.ini")) + sorted(root.glob("perfbench/configs/*.ini"))
    assert shipped
    for path in shipped:
        validate(load_config(path))


def test_cli_gram_cap_exit_code(tmp_path, capsys):
    # 200 modes pass validation without a quantum run, but their pair Gram
    # blocks are over the byte cap: a config error, not a crash
    text = (SMALL_1D.replace("points = 128", "points = 400")
            .replace("modes = 3", "modes = 200")
            .replace("samples = 4000", "samples = 10")
            .replace("n_max = 10", "n_max = 0"))
    path, _ = write_config(tmp_path, text=text)
    assert main(["classical-gibbs", "--config", str(path)]) == 2
    assert "K=200 needs" in capsys.readouterr().err


def test_cli_oversize_ensemble_exit_code(tmp_path, capsys, monkeypatch):
    # 10**10 samples of 3 modes pass validation, but their coefficients are
    # 4.8e11 bytes: both sampling commands refuse them with exit 2, before
    # anything is allocated (an attempt would fail with MemoryError) or drawn
    from gibbslab import gaussian

    def refuse(*args):
        raise AssertionError("drew samples for an oversize ensemble")

    monkeypatch.setattr(gaussian, "_Resets", refuse)
    text = SMALL_1D.replace("samples = 4000", "samples = 10000000000")
    path, _ = write_config(tmp_path, text=text)
    for command in ("sample-gaussian", "classical-gibbs"):
        assert main([command, "--config", str(path)]) == 2
        assert "480000000000 bytes" in capsys.readouterr().err


def test_cli_domain_error_exit_code(tmp_path, capsys):
    # nu above the lowest eigenvalue passes validation, but the shifted
    # operator is not positive: a config error, not a traceback
    text = SMALL_1D.replace("points = 128", "points = 64").replace("nu = 0.0", "nu = 50.0")
    path, _ = write_config(tmp_path, text=text)
    assert main(["spectrum", "--config", str(path)]) == 2
    assert "lowest eigenvalue" in capsys.readouterr().err


SMALL_2D = """
[model]
dimension = 2
potential = power
s = 2.0
half_width = 8.0
points = 24
modes = 8
nu = 0.0

[quantum]
n_max = 10

[study]
k_schedule = 8, 16
cauchy_samples = 20

[hartree]
t_schedule = 4, 8
shared_modes = 8
points = 16

[output]
directory = {out}
format = json
"""


def test_cli_study_1d_n_max_floor(tmp_path, capsys):
    # n_max = 0 and 1 pass validation (other commands use them), but the 1D
    # study's cutoff audit compares against the sector n_max - 2
    for n_max in (0, 1):
        text = SMALL_1D.replace("n_max = 10", f"n_max = {n_max}")
        path, _ = write_config(tmp_path, text=text)
        validate(load_config(path))
        assert main(["study-1d", "--config", str(path)]) == 2
        assert "quantum.n_max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["study-1d", "quantum-gibbs"])
def test_cli_quantum_half_refuses_renormalized(tmp_path, capsys, monkeypatch, command):
    # the Fock Hamiltonian is the bare one, so a Wick-ordered interaction is
    # refused before any operator is built or sample drawn, and no document
    # is written
    from gibbslab import studies

    def unreachable(*args, **kwargs):
        raise AssertionError("built an operator before refusing the config")

    monkeypatch.setattr(studies, "build_model_operator", unreachable)
    text = SMALL_1D.replace("sigma = 0.6", "sigma = 0.6\nrenormalized = true")
    path, out = write_config(tmp_path, text=text)
    assert main([command, "--config", str(path)]) == 2
    assert "interaction.renormalized" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_renormalized_runs_without_coupling(tmp_path):
    # with quantum.coupling_c = 0 the quantum half is free, so study-1d runs
    text = SMALL_1D.replace("sigma = 0.6", "sigma = 0.6\nrenormalized = true")
    path, out = write_config(tmp_path, text=text.replace("coupling_c = 1.0", "coupling_c = 0.0"))
    assert main(["study-1d", "--config", str(path)]) == 0
    assert (out / "study-1d.json").exists()


def test_cli_classical_keeps_renormalized(tmp_path):
    # the classical half alone honours the flag: the shipped 1D study with a
    # Wick-ordered interaction, at seed 7
    root = Path(__file__).resolve().parent.parent
    text = (root / "configs/study_1d.ini").read_text(encoding="utf-8")
    path = tmp_path / "renormalized.ini"
    path.write_text(text.replace("renormalized = false", "renormalized = true"),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["classical-gibbs", "--config", str(path), "--out", str(out)]) == 0
    res = json.loads((out / "classical-gibbs.json").read_text())["results"]
    assert res["neg_log_zr"] == 0.13688007086245577


def test_cli_threads_below_one_exit_code(tmp_path, capsys):
    # a thread count below 1 is refused when the arguments are parsed,
    # before any config is read or work is done
    path, out = write_config(tmp_path)
    for threads in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["study-1d", "--config", str(path), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_names_existing_file(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["spectrum", "--config", str(path), "--out", str(taken)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_study_2d_shifts_by_nu(tmp_path, capsys):
    # the 2D study measures with h - nu, as spectrum does: nu at or above the
    # lowest eigenvalue is refused instead of silently ignored
    text = SMALL_2D.replace("nu = 0.0", "nu = 100.0")
    path, _ = write_config(tmp_path, text=text)
    assert main(["spectrum", "--config", str(path)]) == 2
    assert main(["study-2d-classical", "--config", str(path)]) == 2
    assert "lowest eigenvalue" in capsys.readouterr().err


def test_cli_study_2d_deterministic(tmp_path):
    path, out = write_config(tmp_path, text=SMALL_2D)
    assert main(["study-2d-classical", "--config", str(path)]) == 0
    first = (out / "study-2d-classical.json").read_bytes()
    assert main(["study-2d-classical", "--config", str(path)]) == 0
    assert (out / "study-2d-classical.json").read_bytes() == first
    doc = json.loads(first)
    assert list(doc) == ["gfl_schema", "kind", "config", "results"]
    assert list(doc["results"]) == [
        "uv", "cauchy", "direct_growing", "exchange_increments_shrinking",
        "cauchy_decreasing", "stabilization", "relative_moment_trace_norm",
        "integrability_w_hat", "integrability_w_trap", "integrability_ok"]
    assert [row["K"] for row in doc["results"]["uv"]] == [8, 16]


def test_cli_study_2d_strict_nonconverged_hartree(tmp_path):
    # study-2d-classical --strict applies the hartree rule: exit 3 when a
    # stabilization row stopped at hartree.max_iter, 0 when all converged
    path, _ = write_config(tmp_path, text=SMALL_2D)
    assert main(["study-2d-classical", "--config", str(path), "--strict"]) == 0
    text = SMALL_2D.replace("points = 16", "points = 16\nmax_iter = 1")
    path, out = write_config(tmp_path, text=text)
    assert main(["study-2d-classical", "--config", str(path), "--strict"]) == 3
    rows = json.loads((out / "study-2d-classical.json").read_text())[
        "results"]["stabilization"]["rows"]
    assert [r["iterations"] for r in rows] == [1, 1]
    assert main(["hartree", "--config", str(path), "--strict"]) == 3
    assert main(["study-2d-classical", "--config", str(path)]) == 0


def test_cli_strict_reads_the_solver_verdict(tmp_path):
    # at max_iter = 9 the T = 32 solve stops at its last iteration with a
    # residual already under tol = 1e-8: converged, so --strict exits 0
    root = Path(__file__).resolve().parent.parent
    text = (root / "perfbench/configs/study_2d.ini").read_text(encoding="utf-8")
    path = tmp_path / "study_2d.ini"
    path.write_text(text.replace("max_iter = 200", "max_iter = 9"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["hartree", "--config", str(path), "--out", str(out), "--strict"]) == 0
    rows = json.loads((out / "hartree.json").read_text())["results"]["rows"]
    assert any(r["iterations"] == 9 for r in rows)
    assert all(r["residual"] < 1e-8 for r in rows)
    assert main(["study-2d-classical", "--config", str(path), "--out", str(out),
                 "--strict"]) == 0


def test_cli_study_2d_small_grid(tmp_path):
    # 9^2 = 81 grid points: the study's floor of 96 eigenpairs stops at the
    # grid instead of refusing a num_eigs the config never set
    text = SMALL_2D.replace("points = 24", "points = 9").replace(
        "k_schedule = 8, 16", "k_schedule = 4, 8")
    path, out = write_config(tmp_path, text=text)
    assert main(["study-2d-classical", "--config", str(path)]) == 0
    doc = json.loads((out / "study-2d-classical.json").read_text())
    assert [row["K"] for row in doc["results"]["uv"]] == [4, 8]


def test_cli_commands_agree_with_study_1d(tmp_path):
    # classical-gibbs and quantum-gibbs run the classical and quantum halves
    # of study-1d, so the shared numbers agree exactly
    path, out = write_config(tmp_path)
    res = {}
    for command in ("classical-gibbs", "quantum-gibbs", "study-1d"):
        assert main([command, "--config", str(path)]) == 0
        res[command] = json.loads((out / f"{command}.json").read_text())["results"]
    assert res["classical-gibbs"]["neg_log_zr"] == res["study-1d"]["neg_log_zr"]
    assert ([row["free_energy"] for row in res["quantum-gibbs"]["schedule"]]
            == [p["F_lambda"] for p in res["study-1d"]["points"]])


def test_cli_spectrum(tmp_path):
    path, out = write_config(tmp_path)
    assert main(["spectrum", "--config", str(path)]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["gfl_schema"] == 1
    assert doc["kind"] == "spectrum"
    eigs = doc["results"]["eigenvalues"]
    assert len(eigs) == 32
    assert abs(eigs[0] - 1.06) < 0.01
    vec = formats.read_matrix(out / "eigenvectors.gflm")
    assert vec.shape == (128, 32)


def test_cli_sample_and_binary(tmp_path):
    # the document names the operator whose Gaussian measure was sampled:
    # the model operator shifted by model.nu, not the unshifted one
    from gibbslab import studies
    path, out = write_config(tmp_path, SMALL_1D.replace("nu = 0.0", "nu = 0.5"))
    assert main(["sample-gaussian", "--config", str(path)]) == 0
    ens = formats.read_ensemble(out / "ensemble.gfl1")
    assert ens.size == 4000 and ens.cutoff == 3 and ens.seed == 13
    doc = json.loads((out / "sample-gaussian.json").read_text())
    cfg = load_config(path)
    model = studies.build_model_operator(cfg)
    shifted = studies.shifted_operator(cfg, model)
    assert doc["results"]["operator_hash"] == shifted.content_hash()
    assert shifted.content_hash() != model.content_hash()


def test_cli_classical(tmp_path):
    path, out = write_config(tmp_path)
    assert main(["classical-gibbs", "--config", str(path)]) == 0
    doc = json.loads((out / "classical-gibbs.json").read_text())
    res = doc["results"]
    assert res["neg_log_zr"] > 0
    assert res["ess"] > 1000
    m1 = formats.read_matrix(out / "moment_k1.gflm")
    assert m1.shape == (3, 3)


def test_cli_quantum(tmp_path):
    path, out = write_config(tmp_path)
    assert main(["quantum-gibbs", "--config", str(path)]) == 0
    doc = json.loads((out / "quantum-gibbs.json").read_text())
    rows = doc["results"]["schedule"]
    assert [r["T"] for r in rows] == [2.0, 4.0]
    assert all(np.isfinite(r["free_energy"]) for r in rows)
    g2 = formats.read_matrix(out / "rdm_k2.gflm")
    assert g2.shape == (6, 6)


def test_cli_hartree_csv(tmp_path):
    path, out = write_config(tmp_path, hartree=["t_schedule = 2, 4",
                                                "kappa = 1.0",
                                                "points = 32",
                                                "shared_modes = 6",
                                                "damping = 0.9"])
    assert main(["hartree", "--config", str(path)]) == 0
    header = (out / "hartree.csv").read_text().splitlines()[0]
    assert header.split(",") == ["T", "lambda", "nu", "iterations", "residual",
                                 "F_rH", "E0", "delta_inf", "schatten_p_dist"]


def test_cli_strict_numerical_failure(tmp_path):
    path, out = write_config(tmp_path, hartree=["t_schedule = 2, 4",
                                                "kappa = 1.0",
                                                "points = 32",
                                                "shared_modes = 6",
                                                "damping = 0.01",
                                                "max_iter = 1"])
    assert main(["hartree", "--config", str(path), "--strict"]) == 3
    assert main(["hartree", "--config", str(path)]) == 0


def test_cli_seed_override_changes_results(tmp_path):
    path, out = write_config(tmp_path)
    main(["sample-gaussian", "--config", str(path), "--seed", "99"])
    ens = formats.read_ensemble(out / "ensemble.gfl1")
    assert ens.seed == 99


def test_cli_seed_out_of_range_exit_code(tmp_path, capsys):
    # a seed is one 64-bit Philox key word, and the 2D study also uses seed + 1
    path, _ = write_config(tmp_path)
    for seed in ("-1", str(2**64)):
        assert main(["sample-gaussian", "--config", str(path), "--seed", seed]) == 2
        assert "classical.seed" in capsys.readouterr().err


def test_cli_bad_mode_counts_exit_code(tmp_path, capsys):
    # fewer eigenpairs than modes, a negative eigenpair count and a
    # nonpositive study cutoff are config errors, not tracebacks
    cases = [(SMALL_1D.replace("modes = 3", f"modes = 3\nnum_eigs = {n}"), cmd,
              "model.num_eigs")
             for n in (2, -1) for cmd in ("classical-gibbs", "quantum-gibbs")]
    cases.append((SMALL_2D.replace("k_schedule = 8, 16", "k_schedule = -4, 8"),
                  "study-2d-classical", "study.k_schedule"))
    # one eigenpair passes validation but leaves no spectrum tail to fit
    cases.append((SMALL_1D.replace("modes = 3", "modes = 1\nnum_eigs = 1"),
                  "spectrum", "2 eigenpairs"))
    for text, cmd, field in cases:
        path, _ = write_config(tmp_path, text=text)
        assert main([cmd, "--config", str(path)]) == 2
        assert field in capsys.readouterr().err


def test_cli_fock_sector_cap_at_basis(tmp_path, capsys):
    # 8 modes at n_max = 14 validate (commands without a Fock space accept
    # any n_max), and quantum-gibbs exits 2 when the basis reaches the first
    # sector over the cap
    text = SMALL_1D.replace("modes = 3", "modes = 8").replace("n_max = 10", "n_max = 14")
    path, _ = write_config(tmp_path, text=text)
    validate(load_config(path))
    assert main(["quantum-gibbs", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "n=11" in err and "31824 states" in err and "20000" in err


def test_cli_hartree_field_checks(tmp_path, capsys):
    # on a 12^2 Hartree grid, shared_modes must lie in [1, 144]; a negative
    # count used to slice off the last orbitals, zero made every distance 0,
    # a negative max_iter reported no iterations, and a negative temperature
    # was refused without naming its field
    text = SMALL_2D.replace("points = 16", "points = 12")
    cases = [(text.replace("shared_modes = 8", f"shared_modes = {n}"),
              "hartree.shared_modes") for n in (-5, 0, 145)]
    cases.append((text.replace("shared_modes = 8", "shared_modes = 8\nmax_iter = -3"),
                  "hartree.max_iter"))
    cases.append((text.replace("t_schedule = 4, 8", "t_schedule = -4, 8"),
                  "hartree.t_schedule"))
    for body, field in cases:
        path, _ = write_config(tmp_path, text=body)
        assert main(["hartree", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err


def test_cli_hartree_points_floor(tmp_path, capsys):
    # 5^2 = 25 Hartree grid points hold shared_modes = 4, but the grid needs
    # 8 points per axis: refused at validation, naming the field, before the
    # 2D study runs its UV half or writes anything
    text = SMALL_2D.replace("points = 16", "points = 5").replace(
        "shared_modes = 8", "shared_modes = 4")
    path, out = write_config(tmp_path, text=text)
    with pytest.raises(ConfigurationError, match="hartree.points"):
        validate(load_config(path))
    for command in ("study-2d-classical", "hartree"):
        assert main([command, "--config", str(path)]) == 2
        assert "hartree.points" in capsys.readouterr().err
    assert not out.exists()


# Modules only some commands use, each imported where it is used: numpy.random
# for samples the block sampler cannot finish, numpy.ma through np.unique's
# masked-array check, hashlib for sample-gaussian's operator hash and
# concurrent.futures for study-1d's thread pool
DEFERRED_MODULES = ("numpy.random", "numpy.ma", "hashlib", "concurrent.futures")


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=root,
                          check=True, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.fft", "scipy.special",
                                    "scipy.sparse.linalg", "scipy.linalg", "scipy.sparse",
                                    *DEFERRED_MODULES])
def test_import_does_not_load(module):
    # scipy.integrate serves only the quadratures, scipy.sparse and
    # scipy.sparse.linalg only Lanczos on large grids, and scipy.linalg only
    # the 2D dense one-body solve; Hartree and the FFTs are numpy's.
    # Importing the CLI must not pay for any of them, nor for DEFERRED_MODULES
    res = _run_python(f"import sys, gibbslab.cli; print({module!r} in sys.modules)")
    assert res.stdout.strip() == "False"


def test_study_1d_loads_only_what_it_runs(tmp_path):
    # the shipped 1D study at K = 4 finishes every sample on the block path
    # and solves its Fock blocks with numpy: it loads no scipy module and
    # none of DEFERRED_MODULES, and its thread pool changes no byte
    script = ("import json, sys\n"
              "from gibbslab.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              "print(json.dumps([rc, sorted(m for m in sys.modules if m in "
              f"{DEFERRED_MODULES!r} or m.split('.')[0] == 'scipy')]))")
    out = tmp_path / "out"
    args = ("study-1d", "--config", "configs/study_1d.ini", "--seed", "7", "--out", str(out))
    res = _run_python(script, *args, "--threads", "1")
    assert json.loads(res.stdout.strip().splitlines()[-1]) == [0, []]
    first = (out / "study-1d.json").read_bytes()
    res = _run_python(script, *args, "--threads", "2")
    assert json.loads(res.stdout.strip().splitlines()[-1])[0] == 0
    assert (out / "study-1d.json").read_bytes() == first


@pytest.mark.parametrize("script, pinned, warns", [
    ("import scipy.linalg, gibbslab", False, True),
    ("import gibbslab, scipy.linalg", False, False),
    ("import numpy, gibbslab", False, True),
    ("import scipy.linalg, gibbslab", True, False),
], ids=["scipy-first", "gibbslab-first", "numpy-first", "caller-pinned"])
def test_import_warns_when_blas_pin_comes_late(script, pinned, warns):
    # OpenBLAS reads its thread count when numpy, or scipy.linalg, loads its
    # copy, so the pin set on import comes too late once either is loaded,
    # unless the caller set OPENBLAS_NUM_THREADS
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    res = subprocess.run([sys.executable, "-W", "always", "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert ("imported before gibbslab: BLAS is not pinned" in res.stderr) == warns


def test_cli_tabulated_potential(tmp_path):
    r = np.linspace(0.0, 12.0, 600)
    table = np.column_stack([r, 0.4 * np.exp(-r**2 / 0.72)])
    table_path = tmp_path / "w.txt"
    np.savetxt(table_path, table)
    path, out = write_config(tmp_path)
    body = path.read_text().replace("kind = gaussian-bump",
                                    f"kind = tabulated\ntable_path = {table_path}")
    path.write_text(body)
    assert main(["classical-gibbs", "--config", str(path)]) == 0
    doc = json.loads((out / "classical-gibbs.json").read_text())
    assert doc["results"]["neg_log_zr"] > 0


def test_cli_bad_table_path_exit_code(tmp_path, capsys):
    # a missing or unparsable table is a config error naming the field
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("0.0 0.4\nnot a number\n")
    for table_path in (tmp_path / "missing.txt", garbled):
        path, _ = write_config(tmp_path)
        body = path.read_text().replace("kind = gaussian-bump",
                                        f"kind = tabulated\ntable_path = {table_path}")
        path.write_text(body)
        assert main(["classical-gibbs", "--config", str(path)]) == 2
        assert "interaction.table_path" in capsys.readouterr().err


def test_json_determinism(tmp_path):
    path, out = write_config(tmp_path)
    main(["classical-gibbs", "--config", str(path)])
    first = (out / "classical-gibbs.json").read_bytes()
    main(["classical-gibbs", "--config", str(path)])
    assert (out / "classical-gibbs.json").read_bytes() == first
    assert (out / "meta.json").exists()


def test_json_floats_roundtrip():
    rng = np.random.default_rng(1)
    for x in rng.standard_normal(100) * 10.0 ** rng.integers(-30, 30, 100):
        assert json.loads(formats.dumps({"x": x}))["x"] == x
    doc = formats.dumps({"x": 0.1 + 0.2, "arr": np.array([1.5, np.pi]),
                         "neg_zero": -0.0, "two": 2.0, "n": np.int64(3), "z": 1 - 2j})
    parsed = json.loads(doc)
    assert parsed["x"] == 0.1 + 0.2
    assert parsed["arr"][1] == np.pi
    assert math.copysign(1.0, parsed["neg_zero"]) == -1.0
    assert isinstance(parsed["two"], float) and parsed["two"] == 2.0
    assert parsed["n"] == 3 and parsed["z"] == {"re": 1.0, "im": -2.0}


def test_json_refuses_non_finite(tmp_path):
    # documents are strict JSON: NaN and +-Infinity are refused, not written
    # as tokens a strict parser rejects, and write_json writes nothing
    for x in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(ValueError):
            formats.dumps({"x": [1.0, x]})
    with pytest.raises(ArithmeticError, match="doc.json"):
        formats.write_json(tmp_path / "doc.json", "kind", {"x": math.inf})
    assert not (tmp_path / "doc.json").exists()


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_cli_hartree_box_writes_strict_json(tmp_path):
    # a box trap has no grid point with V > 1: the sandwich holds vacuously
    # and its margin is null, not Infinity
    text = SMALL_1D.replace("potential = power", "potential = box")
    path, out = write_config(tmp_path, text=text, hartree=["t_schedule = 2, 4",
                                                           "kappa = 4.0",
                                                           "points = 32",
                                                           "shared_modes = 6",
                                                           "damping = 0.9"])
    assert main(["hartree", "--config", str(path)]) == 0
    results = _strict_json((out / "hartree.json").read_text())["results"]
    assert results["sandwich_margin"] is None and results["sandwich_ok"] is True


def test_output_path_with_tab_is_escaped(tmp_path):
    out = tmp_path / "out\tdir"
    path = tmp_path / "run.ini"
    path.write_text(SMALL_1D.format(out=out), encoding="utf-8")
    assert main(["spectrum", "--config", str(path)]) == 0
    doc = json.loads((out / "spectrum.json").read_text(encoding="utf-8"))
    assert doc["config"]["output"]["directory"] == str(out)


def test_matrix_format_layout(tmp_path):
    m = np.array([[1 + 2j, 3.5], [0, -1j]])
    p = tmp_path / "m.gflm"
    formats.write_matrix(p, m)
    raw = p.read_bytes()
    assert raw[:4] == b"GFLM"
    ndim, = struct.unpack("<I", raw[4:8])
    assert ndim == 2
    assert struct.unpack("<QQ", raw[8:24]) == (2, 2)
    re0, im0 = struct.unpack("<dd", raw[24:40])
    assert (re0, im0) == (1.0, 2.0)
    assert np.array_equal(formats.read_matrix(p), m)


def test_binary_roundtrip_special_values(tmp_path):
    # the dumps carry every float64 bit: signed zeros, infinities and NaN
    # come back as written
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5]
    m = np.array([complex(re, im) for re in specials for im in specials]).reshape(6, 6)
    p = tmp_path / "m.gflm"
    formats.write_matrix(p, m)
    back = formats.read_matrix(p)
    assert back.flags.writeable
    assert back.view("<f8").tobytes() == m.view("<f8").tobytes()
    ens = Ensemble(coefficients=m.copy(), weights=np.array(specials), seed=3)
    formats.write_ensemble(tmp_path / "e.gfl1", ens)
    got = formats.read_ensemble(tmp_path / "e.gfl1")
    assert got.coefficients.view("<f8").tobytes() == m.view("<f8").tobytes()
    assert got.weights.tobytes() == ens.weights.tobytes()
    assert (got.cutoff, got.size, got.seed) == (6, 6, 3)


def test_binary_dumps_refuse_wrong_length(tmp_path):
    # a dump cut in its header or payload, or with trailing bytes, is refused
    # with the path named
    m = np.arange(6, dtype=complex).reshape(2, 3)
    ens = Ensemble(coefficients=m.copy(), weights=np.ones(2), seed=1)
    for name, write, read, header in (
            ("m.gflm", lambda p: formats.write_matrix(p, m), formats.read_matrix, 24),
            ("e.gfl1", lambda p: formats.write_ensemble(p, ens), formats.read_ensemble, 24)):
        p = tmp_path / name
        write(p)
        raw = p.read_bytes()
        for bad in (raw[:header - 3], raw[:-1], raw + b"\0"):
            p.write_bytes(bad)
            with pytest.raises(ValueError, match=name):
                read(p)


def test_csv_format(tmp_path):
    rows = [{"T": 2.0, "value": 1.0 / 3.0, "flag": True},
            {"T": 4.0, "value": 2.0 / 3.0, "flag": False}]
    p = tmp_path / "t.csv"
    formats.write_csv(p, rows)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "T,value,flag"
    assert float(lines[1].split(",")[1]) == 1.0 / 3.0


COMMANDS = ("spectrum", "sample-gaussian", "classical-gibbs", "quantum-gibbs",
            "hartree", "study-1d", "study-2d-classical")


def _schedule(draw, values, max_size):
    """A strictly increasing schedule of 1 to max_size distinct draws, as INI text."""
    drawn = draw(st.lists(values, min_size=1, max_size=max_size, unique=True))
    return ", ".join(repr(v) for v in sorted(drawn))


@st.composite
def fuzz_configs(draw):
    """Sections of a small config that passes validate: 1D grids of up to
    128 points, 2D of up to 16^2, K <= 6, n_max <= 5, a few hundred samples,
    and amplitudes, shifts and temperatures from 1e-300 to 1e300."""
    magnitude = st.sampled_from([1e-300, 1e-8, 0.05, 0.5, 1.0, 3.0, 1e3, 1e300])
    signed = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 0.0, 1.0]), magnitude)
    dim = draw(st.sampled_from([1, 2]))
    points = draw(st.integers(8, 128 if dim == 1 else 16))
    modes = draw(st.integers(1, 6))
    hpoints = draw(st.integers(8, 16 if dim == 1 else 10))
    kinds = ["gaussian-bump", "tabulated"] + (["grid-delta"] if dim == 1 else [])
    return {
        "model": {"dimension": dim, "potential": draw(st.sampled_from(["power", "box"])),
                  "s": draw(st.floats(1.05, 8.0)), "half_width": draw(st.floats(0.5, 20.0)),
                  "points": points, "modes": modes, "nu": draw(signed),
                  "num_eigs": draw(st.sampled_from([0, modes, modes + 3]))},
        "interaction": {"kind": draw(st.sampled_from(kinds)), "amplitude": draw(signed),
                        "sigma": draw(magnitude), "table_path": "{table}",
                        "renormalized": draw(st.booleans())},
        "classical": {"samples": draw(st.integers(2, 300)),
                      "seed": draw(st.integers(0, 2**64 - 2))},
        "quantum": {"n_max": draw(st.integers(0, 5)),
                    "t_schedule": _schedule(draw, magnitude, 3), "coupling_c": draw(signed)},
        "hartree": {"kappa": draw(st.floats(1e-3, 1e3)), "damping": draw(st.floats(0.05, 1.0)),
                    "tol": draw(st.sampled_from([1e-12, 1e-8, 1e-2])),
                    "max_iter": draw(st.integers(1, 20)),
                    "t_schedule": _schedule(draw, magnitude, 3), "coupling_c": draw(signed),
                    "shared_modes": draw(st.integers(1, min(8, hpoints ** dim))),
                    "points": hpoints,
                    "momentum_measure": draw(st.sampled_from(["unit", "2pi"]))},
        "study": {"k_schedule": _schedule(draw, st.integers(1, 12), 3),
                  "cauchy_samples": draw(st.integers(2, 300))},
        "output": {"format": draw(st.sampled_from(["json", "csv"]))},
    }


def _refuse_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


@given(sections=fuzz_configs())
@settings(max_examples=50, deadline=None)
def test_config_fuzz(sections):
    # every command on a config that passes validation exits 0, 2 (refused
    # input) or 3 (numerical failure), names the cause of a 2 or 3 on
    # stderr, and writes strict JSON
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        r = np.linspace(0.0, 10.0, 101)
        np.savetxt(root / "table.txt", np.column_stack([r, np.exp(-r)]))
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                       for name, fields in sections.items())
        path = root / "run.ini"
        path.write_text(text.replace("{table}", str(root / "table.txt")), encoding="utf-8")
        load_config(path)
        for command in COMMANDS:
            out, err = root / command, io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3), (command, code)
            assert code == 0 or err.getvalue().strip(), command
            for doc in out.glob("*.json"):
                json.loads(doc.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
