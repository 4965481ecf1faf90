#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py on each workload, untraced and then traced, one run
at a time, and prints the environment once, then per workload its
parameters, end-to-end metrics, per-layer metrics and layer shares.  The
lines come in a fixed order, so two reports can be compared with diff.
Exits 1 if any run failed or printed no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=56.0)
    args = ap.parse_args()
    layer_names = {m["name"] for m in json.loads(Path("BENCHMARK.json").read_text())["per_layer"]}
    ok, env_done = True, False
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"result {name} trace={trace} no result (exit {proc.returncode})")
                sys.stderr.write(proc.stderr)
                ok = False
                continue
            for line in lines[:-1]:
                kind, _, rest = line.partition(" ")
                metric = rest.split(" ")[1] if kind == "metric" else ""
                if ((kind == "env" and not env_done)
                        or (kind == "param" and trace == 0)
                        or (kind == "metric" and (metric in layer_names) == bool(trace))
                        or kind == "share"):
                    print(line)
            env_done = True
            print(f"result {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
