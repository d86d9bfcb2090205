"""Deterministic CSV/JSON artifact writers.

Numbers are written in full round-trip scientific notation with '.' as
the decimal separator and '\n' line endings, so identical inputs
produce byte-identical files on a given platform.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def write_csv(path, header, rows):
    """Write header and rows, one value per header column, each value
    formatted as a float by "%.17e" (nan and inf as nan, inf, -inf)."""
    row_format = ",".join(["%.17e"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_format % tuple(row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, obj):
    with open(path, "w", newline="") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

