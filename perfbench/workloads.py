"""The benchmark's workloads: what each one runs and on which inputs.

Why each was chosen is recorded in BENCHMARK.json.  Paths are relative to
the root of a gibbslab source checkout, which is the working directory of
every benchmark command.
"""

from __future__ import annotations

from pathlib import Path

# Seeded workloads map the benchmark seed onto this many program seeds,
# default_seed + (seed % SEED_SLOTS); each has a reference document recorded
# by perfbench/record_reference.py, so every run can check its values.
SEED_SLOTS = 8

REFERENCE_DIR = Path("perfbench/reference")
OUT_ROOT = Path(".perfbench_out")

# Each workload runs `gibbslab <command> --config <config> <args> --seed N
# --out DIR` in-process through gibbslab.cli.main (perfbench/child.py).
# "expect" lists the layer spans a traced run must record: a span that never
# fires fails the run instead of reading as a zero-cost layer.
WORKLOADS = {
    "study-1d": {
        "command": "study-1d",
        "config": "configs/study_1d.ini",
        "args": ["--threads", "1"],
        "default_seed": 7,
        "document": "study-1d.json",
        "expect": ["cli.self_s", "studies.self_s", "spectral.eig_s",
                   "gaussian.sample_s", "interaction.tensor_s",
                   "interaction.energy_s", "classical_gibbs.reweight_s",
                   "classical_gibbs.moment_s", "fock_quantum.assemble_s",
                   "fock_quantum.diag_s", "fock_quantum.gibbs_s",
                   "fock_quantum.rdm_s", "formats.write_s"],
    },
    "study-2d": {
        "command": "study-2d-classical",
        "config": "perfbench/configs/study_2d.ini",
        "args": ["--threads", "1"],
        "default_seed": 11,
        "document": "study-2d-classical.json",
        "expect": ["cli.self_s", "studies.self_s", "spectral.eig_s",
                   "gaussian.sample_s", "interaction.energy_s",
                   "interaction.direct_s", "interaction.exchange_s",
                   "interaction.convolve_s", "classical_gibbs.reweight_s",
                   "classical_gibbs.moment_s", "hartree.solve_s",
                   "hartree.stabilization_s", "formats.write_s"],
    },
}


def program_seed(workload: dict, seed: int) -> int:
    """The seed the program receives for a benchmark seed."""
    return workload["default_seed"] + seed % SEED_SLOTS


def reference_path(name: str, pseed: int) -> Path:
    return REFERENCE_DIR / f"{name}-seed{pseed}.json"


def child_spec(name: str, pseed: int) -> dict:
    """What perfbench/child.py runs for one sample, apart from its mode.

    The output directory is part of the config echo in the result document,
    so samples and reference recordings must share it.
    """
    wl = WORKLOADS[name]
    out = OUT_ROOT / name / "out"
    argv = [wl["command"], "--config", wl["config"], *wl["args"],
            "--seed", str(pseed), "--out", str(out)]
    return {"config": wl["config"], "out": str(out), "argv": argv}
