"""Spans recorded from outside the program, by wrapping its public calls.

A :class:`Tracer` replaces chosen functions and methods of the library
with timed wrappers while it is installed, and puts the originals back
when it is removed.  Nothing under ``src/`` changes: the wrappers live
in the benchmark process only.

Each wrapped call becomes one span ``[name, start, end, parent, rid]``.
Spans nest by call stack (the benchmark is single-threaded while
tracing), so a span's *self time* is its duration minus the durations of
its direct children.  ``rid`` is the request the span served: the cell
index on sweeps, ``(session, request_id)`` on the service.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Tracer"]


class Tracer:
    """In-memory span recorder over wrapped library calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tallies: dict[str, list[int]] = {}
        self.missing: list[str] = []
        self.rid: Any = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------

    def tally(self, name: str, hit: bool) -> None:
        """Count one attempt of ``name`` and whether it was useful."""
        entry = self.tallies.setdefault(name, [0, 0])
        entry[0] += bool(hit)
        entry[1] += 1

    def hit_ratio(self, name: str) -> float:
        hits, attempts = self.tallies.get(name, (0, 0))
        return hits / attempts if attempts else 0.0

    def _timed(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[Any], None] | None = None,
        rid_of: Callable[[tuple, dict], Any] | None = None,
    ) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self.rid
            if rid_of is not None:
                self.rid = rid_of(args, kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.rid]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                self.rid = outer
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installing --------------------------------------------------------

    def _wrap_method(self, cls: type, attr: str, name: str, **options) -> None:
        try:
            raw = inspect.getattr_static(cls, attr)
        except AttributeError:
            self.missing.append(f"{cls.__qualname__}.{attr}")
            return
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._timed(name, raw.__func__, **options))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._timed(name, raw.__func__, **options))
        else:
            wrapped = self._timed(name, raw, **options)
        self._patches.append((cls, attr, raw, attr in cls.__dict__))
        setattr(cls, attr, wrapped)

    def _wrap_function(self, module_name: str, attr: str, name: str, **options) -> None:
        """Wrap a function in its module and wherever it was imported by name."""
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = self._timed(name, original, **options)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
                self._patches.append((module, attr, original, True))
                setattr(module, attr, wrapped)

    def install(self, targets: Iterable[tuple]) -> None:
        """Wrap each ``(owner, attribute, span name[, options])``.

        ``owner`` is a class or a module name.  Options: ``on_result``
        (called with the return value) and ``rid_of`` (called with
        ``(args, kwargs)``; its value becomes the rid of the span and of
        everything under it).
        """
        for owner, attr, name, *rest in targets:
            options = rest[0] if rest else {}
            if isinstance(owner, str):
                self._wrap_function(owner, attr, name, **options)
            else:
                self._wrap_method(owner, attr, name, **options)

    def remove(self) -> None:
        """Put every original back (in reverse order of wrapping)."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets: Iterable[tuple]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.remove()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent if parent >= 0 else None,
                    "rid": list(rid) if isinstance(rid, tuple) else rid,
                }) + "\n")
