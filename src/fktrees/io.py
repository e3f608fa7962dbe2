"""Serialization helpers: canonical JSON with fixed float formatting.

Certificates and spectra must be byte-identical across reruns, so floats are
always printed with 17 significant digits (enough to round-trip a double)
and key order is the insertion order of the dicts built here.  One recursive
function, dumps, writes every value; an array of floats, of ints or of edge
pairs is written with one join.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

from .errors import CapExceededError
from .spectral import DirichletSpectrum
from .trees import TreeWithBoundary, canonical_code, parse_edge_list_text

__all__ = ["dumps", "spectrum_json", "tree_json", "read_capped", "read_tree_file"]

# An input file becomes per-vertex Python objects, so its size is capped before
# parsing: 4 MiB holds a tree of over 250,000 vertices.  Every single-tree
# command runs in O(n) memory, so the cap bounds their memory, and their time
# only loosely: on the worst case, a 315,466-vertex path just under the cap,
# eigen took 3.7-4.6 s, bounds 2.6-3.5 s and transform 10.4-12.0 s, at
# 205-229 MB peak RSS, each a fresh process on a 2-vCPU VM with Python
# 3.11.  transform's time grows with the square of the depth, in the
# canonical code of its result (each vertex's code is copied once per level
# above it).
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
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_repr(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join([f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return _flat_array(obj) or "[" + ",".join(map(dumps, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flat_array(items: list | tuple) -> str | None:
    """The JSON of an array of floats, of ints or of [int, int] pairs (an
    eigenfunction, a boundary, an edge list) in one join, as dumps writes
    it item by item; None for any other array."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return "[" + ",".join(map(_float_repr, items)) + "]"
    if kinds == {int}:
        return "[" + ",".join(map(str, items)) + "]"
    if kinds == {list} and set(map(len, items)) == {2} and set(map(type, chain.from_iterable(items))) == {int}:
        return "[" + ",".join([f"[{u},{v}]" for u, v in items]) + "]"
    return None


def spectrum_json(spectrum: DirichletSpectrum) -> dict:
    return {
        "lambda1": float(spectrum.lambda1),
        "eigenfunction": spectrum.eigenfunction.tolist(),
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
