"""Deterministic CSV/JSON artifact writers.

Numbers are written in full round-trip scientific notation with '.' as
the decimal separator and '\n' line endings, so identical inputs
produce byte-identical files on a given platform.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def fmt(x) -> str:
    # floats first, the common case; bool and int are not float subclasses
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17e")
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
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

