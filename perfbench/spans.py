"""Spans recorded from outside the program, by patching the names it calls.

A span has a name, a start, an end, the span open when it began (its parent)
and the id of the unit of work (a step, a record or a command cycle) it
belongs to. Spans stay in memory until `write` and self time is derived from
them afterwards, so the only cost inside the timed region is two clock reads
and a list append per call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, unit id]
        self.counts: dict[tuple[str, object], float] = defaultdict(float)
        self.unit: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(name, self.unit)] += value

    def wrap(self, fn, name: str, after=None):
        """`fn` inside a span; `after(args, kwargs, result)` runs once the span is closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def replace(self, owner, attr: str, new) -> None:
        """Set `owner.attr` (a module global, class or instance attribute) until `restore`."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span around each call."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def restore(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as f:
            for idx, (name, start, end, parent, unit) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": idx, "name": name, "parent": parent, "unit": unit,
                    "start": start - self.origin, "end": end - self.origin, "self": selfs[idx],
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, unit in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, unit) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def new_nodes(output, inputs) -> list:
    """Graph nodes a call created: reachable from its output but not through its inputs.

    The walk stops at the call's tensor arguments; leaves (parameters and
    constants) carry no backward closure and are skipped.
    """
    stop = {id(t) for t in inputs}
    seen: set[int] = set()
    stack = [output]
    nodes = []
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen or key in stop:
            continue
        seen.add(key)
        if node._backward is None:
            continue
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def reachable_count(root) -> int:
    """Nodes reachable from `root` along the edges backward() follows."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
