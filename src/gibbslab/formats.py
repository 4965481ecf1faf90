"""File formats: binary ensemble/matrix dumps and deterministic JSON/CSV.

Binary layouts (all little-endian):

  ensemble "GFL1":  magic 4s | u32 K | u64 n | u64 seed |
                    n*K complex coefficients as (f64 re, f64 im), row-major
                    by sample | n f64 weights.

  matrix  "GFLM":   magic 4s | u32 ndim | ndim u64 shape |
                    complex entries as (f64 re, f64 im), row-major.

JSON output renders every float with 17 significant digits so documents are
byte-reproducible and round-trip exactly.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .gaussian import Ensemble

ENSEMBLE_MAGIC = b"GFL1"
MATRIX_MAGIC = b"GFLM"
SCHEMA_VERSION = 1


def write_ensemble(path, ensemble: Ensemble) -> None:
    with open(path, "wb") as fh:
        fh.write(ENSEMBLE_MAGIC)
        fh.write(struct.pack("<IQQ", ensemble.cutoff, ensemble.size, ensemble.seed))
        fh.write(ensemble.coefficients.astype("<c16").tobytes())
        fh.write(ensemble.weights.astype("<f8").tobytes())


def read_ensemble(path, operator_hash: str = "") -> Ensemble:
    with open(path, "rb") as fh:
        if fh.read(4) != ENSEMBLE_MAGIC:
            raise ValueError(f"{path}: not an ensemble dump")
        K, n, seed = struct.unpack("<IQQ", fh.read(20))
        coeffs = np.frombuffer(fh.read(16 * n * K), dtype="<c16").reshape(n, K).copy()
        weights = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
    return Ensemble(operator_hash=operator_hash, cutoff=int(K),
                    coefficients=coeffs, weights=weights,
                    seed=int(seed))


def write_matrix(path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<I", m.ndim))
        fh.write(struct.pack(f"<{m.ndim}Q", *m.shape))
        fh.write(m.tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(4) != MATRIX_MAGIC:
            raise ValueError(f"{path}: not a matrix dump")
        (ndim,) = struct.unpack("<I", fh.read(4))
        shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        count = int(np.prod(shape))
        return np.frombuffer(fh.read(16 * count), dtype="<c16").reshape(shape).copy()


# ---------------------------------------------------------------------------
# Deterministic JSON with fixed float rendering


def format_float(x: float) -> str:
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _render(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, complex):
        _render({"re": obj.real, "im": obj.imag}, out)
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _render(str(k), out)
            out.append(":")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps(document: dict) -> str:
    out: list = []
    _render(document, out)
    return "".join(out)


def write_json(path, kind: str, results: dict, config_echo: dict | None = None) -> None:
    doc = {"gfl_schema": SCHEMA_VERSION, "kind": kind}
    if config_echo is not None:
        doc["config"] = config_echo
    doc["results"] = results
    Path(path).write_text(dumps(doc) + "\n", encoding="utf-8")


def write_csv(path, rows: list[dict]) -> None:
    """One row per schedule point, floats at 17 significant digits."""
    if not rows:
        Path(path).write_text("", encoding="utf-8")
        return
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([format_float(v) if isinstance(v, (float, np.floating))
                             else v for v in (row[f] for f in fields)])
