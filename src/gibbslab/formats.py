"""File formats: binary ensemble/matrix dumps and deterministic JSON/CSV.

Binary layouts (all little-endian):

  ensemble "GFL1":  magic 4s | u32 K | u64 n | u64 seed |
                    n*K complex coefficients as (f64 re, f64 im), row-major
                    by sample | n f64 weights.  An ensemble with a nonzero
                    energy_floor is refused: the layout does not hold it.

  matrix  "GFLM":   magic 4s | u32 ndim | ndim u64 shape |
                    complex entries as (f64 re, f64 im), row-major.

The readers raise ValueError, naming the path, on a file whose length is
not the one its header implies.  JSON and CSV print every float as its
shortest round-trip repr, so documents are byte-reproducible and read back
exactly.  JSON is strict (RFC 8259): dumps refuses NaN and +-Infinity with
ValueError, and write_json with ArithmeticError naming the path, writing
nothing.  A value with no finite meaning is set to None (null) by its
producer.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from .gaussian import Ensemble

ENSEMBLE_MAGIC = b"GFL1"
MATRIX_MAGIC = b"GFLM"
SCHEMA_VERSION = 1


def write_ensemble(path, ensemble: Ensemble) -> None:
    if ensemble.energy_floor != 0.0:
        raise ValueError(f"{path}: GFL1 holds no energy_floor ({ensemble.energy_floor})")
    with open(path, "wb") as fh:
        fh.write(ENSEMBLE_MAGIC)
        fh.write(struct.pack("<IQQ", ensemble.cutoff, ensemble.size, ensemble.seed))
        fh.write(ensemble.coefficients.astype("<c16").tobytes())
        fh.write(ensemble.weights.astype("<f8").tobytes())


def _header(path, raw: bytes, fmt: str, offset: int) -> tuple:
    if len(raw) < offset + struct.calcsize(fmt):
        raise ValueError(f"{path}: file ends inside its header")
    return struct.unpack_from(fmt, raw, offset)


def _check_length(path, raw: bytes, expected: int) -> None:
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, the header implies {expected}")


def read_ensemble(path) -> Ensemble:
    raw = Path(path).read_bytes()
    if raw[:4] != ENSEMBLE_MAGIC:
        raise ValueError(f"{path}: not an ensemble dump")
    K, n, seed = _header(path, raw, "<IQQ", 4)
    _check_length(path, raw, 24 + 16 * n * K + 8 * n)
    coeffs = np.frombuffer(raw, dtype="<c16", count=n * K, offset=24).reshape(n, K).copy()
    weights = np.frombuffer(raw, dtype="<f8", count=n, offset=24 + 16 * n * K).copy()
    return Ensemble(coefficients=coeffs, weights=weights, seed=int(seed))


def write_matrix(path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<I", m.ndim))
        fh.write(struct.pack(f"<{m.ndim}Q", *m.shape))
        fh.write(m.tobytes())


def read_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != MATRIX_MAGIC:
        raise ValueError(f"{path}: not a matrix dump")
    (ndim,) = _header(path, raw, "<I", 4)
    shape = _header(path, raw, f"<{ndim}Q", 8)
    count = math.prod(shape)
    _check_length(path, raw, 8 + 8 * ndim + 16 * count)
    return np.frombuffer(raw, dtype="<c16", count=count,
                         offset=8 + 8 * ndim).reshape(shape).copy()


# ---------------------------------------------------------------------------
# JSON and CSV


def _jsonable(obj):
    """What json cannot encode itself: arrays, numpy integers, complex numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps(document: dict) -> str:
    return json.dumps(document, separators=(",", ":"), default=_jsonable, allow_nan=False)


def write_json(path, kind: str, results: dict, config_echo: dict | None = None) -> None:
    doc = {"gfl_schema": SCHEMA_VERSION, "kind": kind}
    if config_echo is not None:
        doc["config"] = config_echo
    doc["results"] = results
    try:
        text = dumps(doc)
    except ValueError as exc:  # a NaN or infinity, which strict JSON cannot hold
        raise ArithmeticError(f"{path}: {exc}") from exc
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_csv(path, rows: list[dict]) -> None:
    """One row per schedule point under a header of the first row's keys."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if rows:
            writer = csv.writer(fh)
            writer.writerow(rows[0].keys())
            writer.writerows([row[f] for f in rows[0]] for row in rows)
