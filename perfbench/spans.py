"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent).  Functions are wrapped by
replacing the module attribute each caller looks up, in every loaded
``fktrees`` module that binds the original object, so a call made through
``fktrees.verify.first_eigenpair`` and one made inside
``fktrees.spectral`` are both seen.  Generator functions get one span per
step, so the time spent producing each item is charged to the generator.

Spans live in flat arrays until the run ends; ``summary`` then derives, per
name, the number of calls, the busy time (outermost spans of that name) and
the self time (span duration minus the time covered by its child spans).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Iterable, Iterator

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._calls: list[int] = []
        self._open_depth: list[int] = []
        self._stack: list[int] = []
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._outermost = array("b")

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._open_depth.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._outermost.append(self._open_depth[nid] == 0)
        self._open_depth[nid] += 1
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_depth[self._name[idx]] -= 1

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """A wrapper of ``fn`` that records one span per call (per step for
        a generator function) and passes each result to ``on_result``."""
        nid = self._name_id(name)
        recorder = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                recorder._calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = recorder._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        recorder._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder._calls[nid] += 1
            idx = recorder._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @property
    def span_count(self) -> int:
        return len(self._start)

    def summary(self) -> dict[str, dict[str, float]]:
        """{name: {"calls", "busy_s", "self_s"}} for every wrapped name."""
        dur = np.array(self._end, dtype=np.float64) - np.array(self._start, dtype=np.float64)
        parent = np.array(self._parent, dtype=np.int64)
        name = np.array(self._name, dtype=np.int64)
        outer = np.array(self._outermost, dtype=bool)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        k = len(self.names)
        busy = np.bincount(name[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name, weights=dur - covered, minlength=k)
        return {
            n: {"calls": self._calls[i], "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }


@contextlib.contextmanager
def traced(
    recorder: SpanRecorder,
    targets: Iterable[tuple[str, str, str]],
    hooks: dict[str, Callable] | None = None,
) -> Iterator[SpanRecorder]:
    """Wrap every (module, attribute, span name) target while the block runs.

    Each loaded ``fktrees`` module attribute bound to the original function
    is replaced by the wrapper and restored on exit.
    """
    hooks = hooks or {}
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = recorder.wrap(span, original, hooks.get(span))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fktrees" or mod_name.startswith("fktrees.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield recorder
    finally:
        for mod, key, value in reversed(patches):
            setattr(mod, key, value)
