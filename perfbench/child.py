"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC (written by perfbench/run.py) holds the mode, the config path, the
gibbslab CLI arguments, the output directory and the result path.  Modes:

- setup: import gibbslab, load and validate the config, report the
  environment, time the calibration job and exit;
- run:   the same set-up, then the workload;
- trace: as run, with layer spans recorded by perfbench/spans.py.

Set-up ends when gibbslab is imported and the config is loaded and
validated.  The child stamps that moment on the monotonic clock, which is
shared with the parent process that started it.  The exit code is the
workload's.
"""

import json
import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy
    env = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
        env["blas_config"] = blas.get("openblas configuration", "")
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        env["blas"] = "unknown"
    for var in THREAD_VARS:
        env[var] = os.environ.get(var, "")
    return env


def calibration_job() -> float:
    """Seconds taken by a fixed job that uses no gibbslab code.

    It mixes what the workloads spend their time on: an integer loop in the
    interpreter, memory-bound numpy arithmetic and a small dense eigh.  Its
    time tracks how fast the shared host runs this process at the moment,
    and no change to gibbslab can change it.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400))
    a = a + a.T
    v = rng.standard_normal(2_000_000)
    t0 = time.monotonic()
    x = 12345
    for _ in range(2_000_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    for _ in range(28):
        np.sqrt(v * v + 1.0).sum()
    for _ in range(6):
        np.linalg.eigh(a)
    return time.monotonic() - t0


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.abspath("src"))
    from gibbslab import cli
    from gibbslab.config import load_config
    load_config(spec["config"])
    result = {"setup_done": time.monotonic()}
    rc = 0
    if spec["mode"] == "setup":
        result["env"] = environment()
        result["calibration_s"] = calibration_job()
    else:
        tracer = None
        if spec["mode"] == "trace":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        rc = cli.main(spec["argv"])
        if tracer is not None:
            result["trace"] = tracer.report()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
