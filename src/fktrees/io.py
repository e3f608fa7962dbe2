"""Serialization helpers: canonical JSON with fixed float formatting.

Certificates and spectra must be byte-identical across reruns, so floats are
always printed with 17 significant digits (enough to round-trip a double)
and key order is the insertion order of the dicts built here.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import CapExceededError
from .spectral import DirichletSpectrum
from .trees import TreeWithBoundary, canonical_code, parse_edge_list_text

__all__ = ["dumps", "spectrum_json", "tree_json", "read_capped", "read_tree_file"]

# An input file becomes per-vertex Python objects, so its size is capped before
# parsing: 4 MiB holds a tree of over 250,000 vertices.  first_eigenpair solves
# a large interior in O(k) memory, so this cap is what bounds a single tree.
MAX_TREE_FILE_BYTES = 4 * 2**20


def _float_repr(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    s = format(x, ".17g")
    if "e" not in s and "E" not in s and "." not in s:
        s += ".0"
    return s


def dumps(obj: Any) -> str:
    """Canonical single-line JSON: floats at 17 significant digits."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_repr(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def spectrum_json(spectrum: DirichletSpectrum) -> dict:
    return {
        "lambda1": float(spectrum.lambda1),
        "eigenfunction": [float(x) for x in spectrum.eigenfunction],
        "residual": float(spectrum.residual),
        "gap": None if spectrum.gap is None else float(spectrum.gap),
    }


def tree_json(tree: TreeWithBoundary) -> dict:
    return {
        "n": tree.n,
        "edges": [[u, v] for u, v in tree.edges],
        "boundary": sorted(tree.boundary),
        "code": canonical_code(tree).text,
    }


def read_capped(path: str) -> str:
    """An ASCII input file's text; CapExceededError past MAX_TREE_FILE_BYTES."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_TREE_FILE_BYTES + 1)
    if len(data) > MAX_TREE_FILE_BYTES:
        raise CapExceededError(f"{path} exceeds {MAX_TREE_FILE_BYTES} bytes")
    return data.decode("ascii")


def read_tree_file(path: str) -> TreeWithBoundary:
    """Read an edge-list tree file of at most MAX_TREE_FILE_BYTES."""
    return parse_edge_list_text(read_capped(path))
