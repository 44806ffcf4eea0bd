"""In-memory spans around calls into the library.

A span has a name, a start and an end on one clock, and a parent: the span
that was open when it started. `Tracer.install` replaces library functions
with wrappers that open and close a span around each call and hand the
call's arguments and result to a counting hook, so work counts come from
outside the library. Spans stay in memory until `dump` writes them out.

The layer of a span is the first dotted part of its name. A span's self time
is its duration minus the time its children cover, so the self times of all
spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Collects spans and counts; installs and removes the wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._undo: list = []
        self.reset()

    def reset(self):
        """Forget every span and count recorded so far."""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int):
        self.ends[index] = self.clock()
        self._open.pop()

    def parent_name(self) -> str | None:
        """Name of the innermost open span, or None outside every span."""
        return self.names[self._open[-1]] if self._open else None

    def peak(self, key: str, value: float):
        if value > self.peaks.get(key, float("-inf")):
            self.peaks[key] = value

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name: str, func, hook=None):
        """Wrap func in spans named name; hook(tracer, args, kwargs, result)
        runs after each call, outside the span."""
        if inspect.isgeneratorfunction(func):
            # a span per resumption, so iteration is charged where it runs
            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = func(*args, **kwargs)
                while True:
                    index = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield item

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets):
        """Wrap every (module, qualname, hook) target.

        A module-level function is replaced in its defining module and in
        every loaded module that bound it by import, under any name. A
        method is replaced on its class, which every instance shares.
        """
        functions = {}
        for module, qualname, hook in targets:
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{qualname}"
            wrapper = self.wrap(name, original, hook)
            if owner is module:
                functions[id(original)] = (original, wrapper)
            else:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[key] = entry[1]
                    self._undo.append((namespace, key, value))

    def uninstall(self):
        """Put back every original the wrappers replaced."""
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; per
        layer: self seconds."""
        selfs = self_times(self.starts, self.ends, self.parents)
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            inclusive[name] += self.ends[i] - self.starts[i]
            own[name] += selfs[i]
            layer_self[name.split(".", 1)[0]] += selfs[i]
        return {
            "inclusive_s": dict(inclusive),
            "self_s": dict(own),
            "layer_self_s": dict(layer_self),
            "calls": dict(self.calls),
        }

    def dump(self, path, extra: dict):
        """Write the recorded spans and extra facts as one JSON document."""
        origin = min(self.starts, default=0.0)
        document = dict(extra)
        document["spans"] = [
            [name, round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            )
        ]
        document["span_fields"] = ["name", "start_s", "end_s", "parent"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each clipped to the parent."""
    children: list[list[int]] = [[] for _ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, start in enumerate(starts):
        end = ends[index]
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: starts[c]):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out
