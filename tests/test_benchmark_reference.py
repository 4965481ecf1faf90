"""The benchmark's reference documents, checked on every test run.

perfbench/run.py rejects a sample whose results drift from the reference
document recorded for its seed by more than 1e-12 relative (absolute below
magnitude 1).  Running both workloads at their default seeds here catches
such drift, say from a changed eigensolver, before a benchmark run does.
Each runs as a benchmark sample does: `python -m gibbslab.cli` in a fresh
interpreter whose environment sets no BLAS thread count, so gibbslab pins
BLAS before numpy and scipy load it.  The 1D study's solves and the 2D
study's Hartree run on numpy's OpenBLAS, the 2D study's Lanczos on scipy's.
Inside pytest another test module may already have loaded either, and the
2D study's degenerate eigenspaces move its results when either BLAS runs on
more than one thread.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RTOL = 1e-12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def differences(got, ref, where="results"):
    """Paths where got and ref differ; numbers within RTOL * max(|a|, |b|, 1)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or list(got) != list(ref):
            return [f"{where}: keys differ"]
        return [d for k in ref for d in differences(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: lengths differ"]
        return [d for i, (g, r) in enumerate(zip(got, ref))
                for d in differences(g, r, f"{where}[{i}]")]
    if (isinstance(ref, (int, float)) and not isinstance(ref, bool)
            and isinstance(got, (int, float)) and not isinstance(got, bool)):
        if got == ref or (math.isnan(got) and math.isnan(ref)) \
                or abs(got - ref) <= RTOL * max(abs(got), abs(ref), 1.0):
            return []
    elif got == ref:
        return []
    return [f"{where}: {got!r} != reference {ref!r}"]


@pytest.mark.parametrize("command, config, seed, reference", [
    ("study-1d", "configs/study_1d.ini", 7, "study-1d-seed7.json"),
    ("study-2d-classical", "perfbench/configs/study_2d.ini", 11, "study-2d-seed11.json"),
], ids=["study-1d", "study-2d"])
def test_results_match_benchmark_reference(tmp_path, command, config, seed, reference):
    argv = [command, "--config", config, "--threads", "1",
            "--seed", str(seed), "--out", str(tmp_path)]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-m", "gibbslab.cli", *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    got = json.loads((tmp_path / f"{command}.json").read_text(encoding="utf-8"))
    ref = json.loads((ROOT / "perfbench/reference" / reference).read_text(encoding="utf-8"))
    assert differences(got["results"], ref["results"]) == []
