#!/usr/bin/env python3
"""Record the reference result documents the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per program seed (every seed a benchmark seed maps
to, see workloads.SEED_SLOTS) and copies the result document into
perfbench/reference/.  Run from the root of a gibbslab checkout, only at a
commit whose results are the intended reference: a later commit must match
these values to 1e-12 relative.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from run import spawn
from workloads import (OUT_ROOT, REFERENCE_DIR, SEED_SLOTS, WORKLOADS, child_spec,
                       program_seed, reference_path)


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        seeds = dict.fromkeys(program_seed(wl, seed) for seed in range(SEED_SLOTS))
        work = OUT_ROOT / "reference" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for pseed in seeds:
            spec = dict(child_spec(name, pseed), mode="run")
            shutil.rmtree(spec["out"], ignore_errors=True)
            s = spawn(spec, work, f"seed{pseed}", 600.0)
            if s["exit"] != 0:
                print(f"{name} seed {pseed}: exit {s['exit']}, see {s['log']}",
                      file=sys.stderr)
                return 1
            shutil.copyfile(Path(spec["out"]) / wl["document"], reference_path(name, pseed))
            print(f"{name} seed {pseed}: {s['wall_s']:.2f} s -> "
                  f"{reference_path(name, pseed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
