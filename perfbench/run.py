#!/usr/bin/env python3
"""gibbslab benchmark: one workload, several samples, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gibbslab source checkout; the program is imported
from ./src.  Workloads are defined in perfbench/workloads.py and metric
names and units in BENCHMARK.json.

Samples run in fresh children one at a time, at least MIN_SAMPLES times and
then while at least half of another fits in --seconds.  Before the first sample and after
each one, a set-up child imports gibbslab, loads and validates the config,
and times a fixed calibration job that uses no gibbslab code.  The host is
shared and its speed drifts by 10-30% within minutes, so the bounded times
are relative: a sample's wall (CPU) time over the mean calibration time of
the set-up children on either side of it.  BLAS thread variables are
removed from the children's environment, so gibbslab pins BLAS to one
thread itself.  Every sample is checked: exit code 0, a result document
byte-identical to the run's first sample, and values that agree with the
reference document recorded for that program seed to 1e-12 relative
(absolute below magnitude 1).

With --trace 0 the metrics are the end-to-end ones (medians over samples).
With --trace 1 samples alternate untraced and traced; the traced ones give
per-layer self times and counts (perfbench/spans.py), and trace.overhead_s
is the traced minus the untraced median relative wall time, in seconds at
the run's median host speed.  Each traced sample must
record every span its workload expects.

Stdout: env, param and metric lines in a fixed order, then one JSON line
{"correct", "attempted", "failed", "metrics"}.  Per-sample progress goes to
stderr; everything measured is also written to .perfbench_out/NAME/result.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import layer_values
from workloads import OUT_ROOT, WORKLOADS, child_spec, program_seed, reference_path

CHILD = Path(__file__).resolve().parent / "child.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
MIN_SAMPLES = 2
HARD_LIMIT_S = 170.0
RTOL = 1e-12
# Printed with the end-to-end metrics but not bounded in BENCHMARK.json:
# raw times drift with the shared host's speed, and fail_frac is 0 when all
# is well (the result line's attempted and failed carry it).
INFO_METRICS = [{"name": "wall_s", "unit": "s"}, {"name": "cpu_s", "unit": "s"},
                {"name": "calibration_s", "unit": "s"}, {"name": "fail_frac", "unit": "frac"}]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def spawn(spec: dict, work: Path, tag: str, timeout: float) -> dict:
    """Run child.py on spec; return wall, CPU, peak RSS and the child's result."""
    spec = dict(spec, result=str(work / f"{tag}.result.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    with open(work / f"{tag}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=env)
        # The child stays unreaped until wait4 returns, so its pid is safe
        # to signal from the timer.
        timer = threading.Timer(max(timeout, 1.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = Path(spec["result"])
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    return {
        "exit": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": result["setup_done"] - t0 if "setup_done" in result else None,
        "result": result,
        "log": str(work / f"{tag}.log"),
    }


def compare(got, ref, where: str = "$") -> list[str]:
    """Differences of two JSON values; numbers within RTOL * max(|a|, |b|, 1)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or list(got) != list(ref):
            return [f"{where}: keys differ"]
        return [d for k in ref for d in compare(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs"]
        return [d for i, (g, r) in enumerate(zip(got, ref))
                for d in compare(g, r, f"{where}[{i}]")]
    numeric = (int, float)
    if (isinstance(ref, numeric) and not isinstance(ref, bool)
            and isinstance(got, numeric) and not isinstance(got, bool)):
        if math.isnan(ref) and math.isnan(got):
            return []
        if got == ref or abs(got - ref) <= RTOL * max(abs(got), abs(ref), 1.0):
            return []
        return [f"{where}: {got!r} != reference {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} != reference {ref!r}"]


def check_sample(sample: dict, doc_path: Path, first_doc: bytes | None,
                 reference, expect: list[str]) -> tuple[list[str], bytes | None]:
    """Failure reasons of one sample (empty if it passed), and its document."""
    if sample["exit"] != 0:
        return [f"exit code {sample['exit']} (log {sample['log']})"], None
    if not doc_path.exists():
        return [f"no result document {doc_path}"], None
    doc = doc_path.read_bytes()
    problems = []
    if first_doc is not None and doc != first_doc:
        problems.append("result document differs from the run's first sample")
    try:
        problems += compare(json.loads(doc), reference)[:5]
    except ValueError as exc:
        problems.append(f"result document is not JSON: {exc}")
    trace = sample["result"].get("trace")
    if trace is not None:
        silent = [m for m in expect if not trace["calls"].get(m)]
        if silent:
            problems.append(f"expected spans never fired: {', '.join(silent)} "
                            f"(not wrapped: {', '.join(trace['missing']) or 'none'})")
    return problems, doc


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}={q[int(round(p * 10)) - 1]!r}"
    return "tail=none"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def flat(prefix: str, obj) -> list[tuple[str, object]]:
    if isinstance(obj, dict):
        return [kv for k, v in obj.items() for kv in flat(f"{prefix}.{k}", v)]
    return [(prefix, obj)]


def preflight(name: str, pseed) -> tuple[dict, object]:
    bench = Path("BENCHMARK.json")
    wl = WORKLOADS[name]
    ref = reference_path(name, pseed)
    for path in (bench, Path("src/gibbslab/__init__.py"), Path("src/gibbslab/cli.py"),
                 Path(wl["config"]), ref):
        if not path.is_file():
            raise BenchError(f"missing {path}: run from the root of a gibbslab checkout")
    return json.loads(bench.read_text()), json.loads(ref.read_text())


def collect(name: str, wl: dict, base_spec: dict, reference, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict], bytes | None]:
    """Checked workload samples, one at a time, each between two set-up children."""
    work = OUT_ROOT / name
    doc_path = Path(base_spec["out"]) / wl["document"]
    t_begin = time.monotonic()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - t_begin)

    setups = []

    def set_up_only() -> float:
        t0 = time.monotonic()
        s = spawn(dict(base_spec, mode="setup"), work, f"setup{len(setups)}", remaining())
        if s["exit"] != 0 or s["setup_s"] is None or "calibration_s" not in s["result"]:
            raise BenchError(f"set-up failed, see {s['log']}")
        setups.append(s)
        return time.monotonic() - t0

    # Set-up children bracket every sample: the calibration job they time
    # before and after it gives the host's speed during that sample.
    step = set_up_only()
    samples, first_doc = [], None
    while True:
        elapsed = time.monotonic() - t_begin
        if elapsed + step > HARD_LIMIT_S - 5.0:
            if len(samples) >= MIN_SAMPLES:
                break
            raise BenchError(f"only {len(samples)} samples fit in {HARD_LIMIT_S} s")
        # Another sample starts while at least half of it fits, so a run
        # measures --seconds on average instead of up to a sample less.
        if elapsed + step / 2 > seconds and len(samples) >= MIN_SAMPLES:
            break
        t0 = time.monotonic()
        mode = "trace" if trace and len(samples) % 2 == 1 else "run"
        s = spawn(dict(base_spec, mode=mode), work, f"sample{len(samples)}", remaining())
        s["mode"] = mode
        s["problems"], doc = check_sample(s, doc_path, first_doc, reference, wl["expect"])
        first_doc = first_doc or doc
        samples.append(s)
        verdict = "ok" if not s["problems"] else "FAILED: " + "; ".join(s["problems"])
        print(f"sample {name} {len(samples) - 1} {mode} wall_s={s['wall_s']:.3f} "
              f"{verdict}", file=sys.stderr)
        set_up_only()
        step = time.monotonic() - t0
    return setups, samples, first_doc


def summarize(bench: dict, setups: list[dict], samples: list[dict]):
    """End-to-end medians with their samples, and per-layer medians."""
    calibration = [c["result"]["calibration_s"] for c in setups]
    for i, s in enumerate(samples):
        # the host's speed during sample i, read from the set-up children
        # just before and just after it
        s["calibration_s"] = (calibration[i] + calibration[i + 1]) / 2
    untraced = [s for s in samples if s["mode"] == "run"]
    traced = [s for s in samples if s["mode"] == "trace"]
    timings = {
        "wall_rel": [s["wall_s"] / s["calibration_s"] for s in untraced],
        "cpu_rel": [s["cpu_s"] / s["calibration_s"] for s in untraced],
        "wall_s": [s["wall_s"] for s in untraced],
        "cpu_s": [s["cpu_s"] for s in untraced],
        "calibration_s": calibration,
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        "setup_s": [s["setup_s"] for s in setups + samples if s["setup_s"] is not None],
    }
    e2e = {m: statistics.median(v) for m, v in timings.items()}
    e2e["fail_frac"] = sum(1 for s in samples if s["problems"]) / len(samples)
    layer = {}
    per_sample = [layer_values(s["result"]["trace"])
                  for s in traced if "trace" in s["result"]]
    if per_sample:
        layer = {m["name"]: statistics.median(v[m["name"]] for v in per_sample)
                 for m in bench["per_layer"] if m["name"] != "trace.overhead_s"}
        # in seconds at the run's median host speed, so drift between the
        # traced and untraced samples does not read as overhead
        traced_rel = statistics.median(s["wall_s"] / s["calibration_s"] for s in traced)
        layer["trace.overhead_s"] = (traced_rel - e2e["wall_rel"]) * e2e["calibration_s"]
    return timings, e2e, layer


def describe(name: str, bench: dict, base_spec: dict, pseed, setups, samples,
             first_doc, timings, e2e, layer) -> list[str]:
    """env, param, metric and share lines, in a fixed order."""
    lines = [f"env nproc {os.cpu_count()}",
             f"env affinity {len(os.sched_getaffinity(0))}",
             f"env cpu_model {cpu_model()}",
             f"env python {platform.python_version()}",
             *(f"env {k} {v}" for k, v in setups[0]["result"]["env"].items()),
             *(f"env caller_{v} {os.environ.get(v, '')}" for v in THREAD_VARS),
             f"param {name} argv {' '.join(base_spec['argv'])}",
             f"param {name} program_seed {pseed}"]
    if first_doc is not None:
        lines += [f"param {name} {k} {json.dumps(v)}"
                  for k, v in flat("config", json.loads(first_doc).get("config", {}))]
    for m in bench["end_to_end"] + INFO_METRICS:
        values = timings.get(m["name"])
        stat = f"n={len(values)} {tail(values)}" if values else f"n={len(samples)}"
        lines.append(f"metric {name} {m['name']} {e2e[m['name']]!r} {m['unit']} {stat}")
    traced = [s for s in samples if s["mode"] == "trace"]
    for m in bench["per_layer"]:
        if m["name"] in layer:
            lines.append(f"metric {name} {m['name']} {layer[m['name']]!r} {m['unit']} "
                         f"n={len(traced)}")
    if layer:
        # each layer's self time as a share of the traced samples' wall time
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        lines += [f"share {name} {m['name']} {layer[m['name']] / traced_wall:.4f}"
                  for m in bench["per_layer"]
                  if m["unit"] == "s" and layer[m["name"]] > 0.0
                  and m["name"] != "trace.overhead_s"]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    name, wl = args.workload, WORKLOADS[args.workload]
    pseed = program_seed(wl, args.seed)
    work = OUT_ROOT / name
    base_spec = child_spec(name, pseed)
    try:
        bench, reference = preflight(name, pseed)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        setups, samples, first_doc = collect(name, wl, base_spec, reference,
                                             args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    timings, e2e, layer = summarize(bench, setups, samples)
    lines = describe(name, bench, base_spec, pseed, setups, samples, first_doc,
                     timings, e2e, layer)
    print("\n".join(lines))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layer if args.trace else e2e
    failed = sum(1 for s in samples if s["problems"])
    correct = failed == 0 and all(m["name"] in values for m in declared)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    (work / "result.json").write_text(json.dumps(
        {"workload": name, "seed": args.seed, "program_seed": pseed,
         "trace": args.trace, "lines": lines, "setups": setups, "samples": samples,
         "metrics": metrics}, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
