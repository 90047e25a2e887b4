"""Spans recorded around calls into synthpanel's modules.

The program is not modified: :func:`install` replaces a public function
by a recording wrapper wherever a synthpanel module (or a dispatch table
such as the CLI's command map) holds a reference to it, and
:func:`uninstall` puts the originals back. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    """One call: name ("layer.function"), interval in ns, parent span index."""

    name: str
    start: int
    end: int = 0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans; nesting follows the call stack of the one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent, op=self.op))
        self._stack.append(index)
        return index

    def finish(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def wrap(self, fn: Callable, name: str, describe: Callable | None = None) -> Callable:
        """A wrapper around fn that records one span per call.

        ``describe(args, kwargs, result)`` returns attributes for the span;
        it runs after the span has closed, so it adds to the parent's time,
        not the span's.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.finish(index).attrs["raised"] = True
                raise
            span = self.finish(index)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        return traced


def install(
    tracer: Tracer,
    targets: Iterable[tuple[object, str, str, Callable | None]],
    namespaces: Iterable[object],
    registries: Iterable[dict] = (),
) -> list[tuple]:
    """Wrap each ``(home_module, attribute, span_name, describe)`` target.

    Every binding of the original function object in ``namespaces``
    (modules) and ``registries`` (dicts) is replaced, so calls reach the
    wrapper whichever module makes them. Returns an undo list for
    :func:`uninstall`.
    """
    namespaces = list(namespaces)
    registries = list(registries)
    undo: list[tuple] = []
    for home, attribute, name, describe in targets:
        original = getattr(home, attribute)
        wrapper = tracer.wrap(original, name, describe)
        for module in namespaces:
            if getattr(module, attribute, None) is original:
                undo.append((setattr, module, attribute, original))
                setattr(module, attribute, wrapper)
        for registry in registries:
            for key, value in list(registry.items()):
                if value is original:
                    undo.append((dict.__setitem__, registry, key, original))
                    registry[key] = wrapper
    return undo


def uninstall(undo: list[tuple]) -> None:
    for restore, owner, key, original in reversed(undo):
        restore(owner, key, original)
    undo.clear()


def covered_length(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cursor = 0, lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]
