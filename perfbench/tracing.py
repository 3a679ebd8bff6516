"""Spans at the package's module boundaries, recorded from outside it.

`Tracer.install` replaces every public function of one `planar_turan`
module under the name another module (or the package namespace, which
the benchmark calls through) imports it as, e.g.
`planar_turan.search.is_planar`.  Calls inside a module are not
wrapped, so a span marks one crossing from one layer into another.  A
few methods that cross layers on instances (`Graph.with_vertex`,
`Pattern.from_graph`, ...) are wrapped on their class.

Spans stay in memory, each with its parent's id; a layer's self time
is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict

PACKAGE = "planar_turan"

# (module, class, method) crossing layers on instances
METHODS = (
    ("graph", "Graph", "relabel"),
    ("graph", "Graph", "with_vertex"),
    ("graph", "Graph", "delete_vertex"),
    ("canonical", "CanonicalForm", "as_graph"),
    ("counting", "Pattern", "from_graph"),
)

# calls whose outcome is recorded: True when the candidate survives
OUTCOMES = {
    ("planarity", "is_planar"): lambda verdict: verdict.is_planar,
    ("cycles", "is_family_free"): bool,
}

_NO_RESULT = object()


class Tracer:
    def __init__(self) -> None:
        # (parent id or -1, layer, name, start, end, outcome)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        outcome = OUTCOMES.get((layer, name))

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            result = _NO_RESULT
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                ok = (None if outcome is None or result is _NO_RESULT
                      else outcome(result))
                spans[sid] = (parent, layer, name, start, end, ok)

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every cross-module use of the package's public functions."""
        package = sys.modules[PACKAGE]
        modules = {name: mod for name, mod in vars(package).items()
                   if isinstance(mod, types.ModuleType)
                   and mod.__name__.startswith(PACKAGE + ".")}
        for consumer in [package, *modules.values()]:
            for attr, value in list(vars(consumer).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer in modules and modules[layer] is not consumer:
                    self._replace(consumer, attr, self._wrap(layer, attr, value))
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, attr, raw.__func__))
            else:
                new = self._wrap(layer, attr, raw)
            self._replace(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def summary(self) -> dict:
        """Calls, self seconds and rejections per layer and per function."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[0] >= 0:
                child[span[0]] += span[4] - span[3]
        layers: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        funcs: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                           "rejected": 0})
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            _, layer, name, start, end, ok = span
            own = end - start - child[sid]
            for slot in (layers[layer], funcs[f"{layer}.{name}"]):
                slot["calls"] += 1
                slot["self_s"] += own
            if ok is False:
                funcs[f"{layer}.{name}"]["rejected"] += 1
        return {"layers": dict(layers), "functions": dict(funcs)}

    def write(self, path: str) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        base = min((s[3] for s in self.spans if s is not None), default=0.0)
        with open(path, "w", encoding="ascii") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                parent, layer, name, start, end, ok = span
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer, "name": name,
                    "start": start - base, "end": end - base, "ok": ok}) + "\n")
