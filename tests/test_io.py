"""Canonical JSON emission: float formatting, determinism, schemas."""

import json
import math

import numpy as np
import pytest

from fktrees import build_path, build_star, first_eigenpair
from fktrees.io import dumps, read_tree_file, spectrum_json, tree_json
from fktrees.trees import format_edge_list_text
from conftest import outcome, reference_dumps


def test_floats_round_trip_at_17_digits():
    values = [2 * (1 - math.cos(math.pi / 4)), 1 / 3, 1e-300, 12345.678901234567]
    for x in values:
        assert json.loads(dumps(x)) == x


def test_whole_floats_keep_a_decimal_point():
    assert dumps(1.0) == "1.0"
    assert dumps({"lambda1": 1.0}) == '{"lambda1":1.0}'


def test_ints_and_containers():
    assert dumps([1, 2, None, True, False]) == "[1,2,null,true,false]"
    assert dumps({"a": [0.5]}) == '{"a":[0.5]}'


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        dumps(float("inf"))


def test_unserializable_rejected():
    with pytest.raises(TypeError):
        dumps(object())


def test_spectrum_json_schema():
    doc = spectrum_json(first_eigenpair(build_path(5)))
    assert list(doc) == ["lambda1", "eigenfunction", "residual", "gap"]
    text = dumps(doc)
    assert text == dumps(spectrum_json(first_eigenpair(build_path(5))))
    # single-vertex interior: gap serializes as null
    doc = spectrum_json(first_eigenpair(build_star(5)))
    assert doc["gap"] is None
    assert '"gap":null' in dumps(doc)


def test_tree_json_and_file_reader(tmp_path):
    t = build_path(5)
    doc = tree_json(t)
    assert doc["n"] == 5 and len(doc["edges"]) == 4 and doc["boundary"] == [0, 4]
    path = tmp_path / "t.txt"
    path.write_text(format_edge_list_text(t))
    assert read_tree_file(str(path)) == t


def _random_json_value(rng, depth=0):
    """A random value for dumps: mostly serializable, sometimes with a
    non-finite float or an unsupported object somewhere inside."""
    roll = rng.random()
    if depth < 4 and roll < 0.35:
        items = [_random_json_value(rng, depth + 1) for _ in range(rng.randrange(5))]
        shape = rng.randrange(3)
        if shape == 0:
            return items
        if shape == 1:
            return tuple(items)
        keys = [rng.choice(["a", "lambda1", "é\"\n", 7, 1.5, True, None]) for _ in items]
        return dict(zip(keys, items))
    if roll < 0.5:  # the arrays dumps writes with one join, and near misses
        m = rng.randrange(6)
        shape = rng.randrange(6)
        if shape == 0:
            return [rng.uniform(-1e3, 1e3) for _ in range(m)]
        if shape == 1:
            return [rng.randrange(-10**6, 10**6) for _ in range(m)]
        if shape == 2:
            return [[rng.randrange(50), rng.randrange(50)] for _ in range(m)]
        if shape == 3:  # pairs of the wrong length, or with a bool or a float
            return [[rng.randrange(50), rng.choice([True, 2.0, 3])][: rng.randrange(1, 3)] for _ in range(m)]
        if shape == 4:  # floats with a non-finite one
            return [rng.random() for _ in range(m)] + [rng.choice([math.nan, math.inf, -math.inf])]
        return [rng.random(), 1, True, None, [1, 2]][: m]
    return rng.choice([
        None, True, False, 0, -3, 2**70, 1.0, -0.0, 1e-300, 1e22, 1 / 3, rng.uniform(-1, 1),
        "", "text", "quote\"and\\slash", "é\t\x01", np.float64(rng.random()), np.float64(2.0),
        np.float64(math.nan), math.nan, math.inf, object(), np.int64(4), np.float32(0.5),
        {1, 2}, b"bytes", complex(1, 2),
    ])


def test_dumps_matches_the_reference(rng):
    kinds = {}
    for _ in range(4000):
        obj = _random_json_value(rng)
        want = outcome(reference_dumps, obj)
        assert outcome(dumps, obj) == want, obj
        key = want[0] if want[0] == "ok" else want[1][0].__name__
        kinds[key] = kinds.get(key, 0) + 1
    for key in ("ok", "ValueError", "TypeError"):
        assert kinds.get(key, 0) >= 300, kinds
