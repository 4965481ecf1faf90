"""The benchmark's reference documents, checked on every test run.

perfbench/run.py rejects a sample whose results drift from the reference
document recorded for its seed by more than 1e-12 relative (absolute below
magnitude 1).  Running both workloads at their default seeds here catches
such drift, say from a changed eigensolver, before a benchmark run does.
"""

import json
import math
from pathlib import Path

import pytest

from gibbslab.cli import main

ROOT = Path(__file__).resolve().parent.parent
RTOL = 1e-12


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
    argv = [command, "--config", str(ROOT / config), "--threads", "1",
            "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv) == 0
    got = json.loads((tmp_path / f"{command}.json").read_text(encoding="utf-8"))
    ref = json.loads((ROOT / "perfbench/reference" / reference).read_text(encoding="utf-8"))
    assert differences(got["results"], ref["results"]) == []
