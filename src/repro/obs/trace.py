"""Nestable trace spans: a bounded ring buffer and per-call collectors.

``with span("aggregate.alpha", grouping=...):`` brackets one unit of
engine work as a :class:`SpanRecord` (name, attributes, wall time,
nesting depth, parent).  A record goes to the process-local ring buffer
while tracing is enabled (:func:`spans` reads it back), and to the list
of the innermost :func:`collect` block open in the current context,
whether tracing is enabled or not.  The collector is the engine's one
timing mechanism: ``Query.explain()`` is ``Query.execute()`` under
``collect()``, and ``optimizer.explain_analyze`` is ``evaluate()``
under it.

Tracing is **off by default**.  With it off and no collector open,
``span()`` is two module-global reads returning a shared no-op context
manager — cheap enough to leave ``span(...)`` calls permanently in hot
layers (the benchmark gate in ``BENCH_aggregate.json`` runs with
tracing disabled and must stay within 5% of the uninstrumented
baseline).  The no-op span is falsy, so call sites write
``if span: span.set(...)`` and skip formatting details nobody records.

Span names follow ``<layer>.<operation>`` (dots, lowercase):
``rollup_index.build``, ``aggregate.alpha``, ``query.execute`` — the
catalogue lives in ``docs/OBSERVABILITY.md``.

Nesting is tracked per context, so per thread: a thread started inside
a ``collect()`` block records nothing into it, and a nested
``collect()`` gets its own list.  The ring buffer is shared (appends
are GIL-atomic ``deque.append`` calls), so multi-threaded callers get a
merged, bounded trace without locks on the hot path.  Buffer
*management* — enabling with a resize, :func:`set_buffer_size`,
:func:`spans`, :func:`clear` — and the open-collector count take a
module lock, so a reader never iterates a deque mid-swap; a span
finishing concurrently with a resize may land in the dropped buffer,
which is the documented resize behaviour (resizing drops recorded
spans) either way.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = [
    "SpanRecord",
    "span",
    "collect",
    "enable",
    "disable",
    "is_enabled",
    "spans",
    "clear",
    "set_buffer_size",
]

#: default ring-buffer capacity (finished spans kept)
DEFAULT_BUFFER_SIZE = 4096

_enabled = False
_buffer: Deque["SpanRecord"] = deque(maxlen=DEFAULT_BUFFER_SIZE)
_BUFFER_LOCK = threading.Lock()
#: open ``collect()`` blocks in any context: while 0, ``span()`` skips
#: the context-variable lookup
_open_collectors = 0
_collector: ContextVar[Optional[List["SpanRecord"]]] = ContextVar(
    "repro_trace_collector", default=None)
_current: ContextVar[Optional["_Span"]] = ContextVar(
    "repro_trace_current", default=None)


@dataclass
class SpanRecord:
    """One span, as stored in the ring buffer or a :func:`collect` list."""

    name: str
    #: wall-clock duration, seconds (includes child spans)
    elapsed_seconds: float
    #: nesting depth at entry (0 = top-level)
    depth: int
    #: name of the enclosing span, if any
    parent: Optional[str]
    #: keyword attributes passed to :func:`span` or set while open
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: index of the enclosing span in the same :func:`collect` list
    parent_index: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        attrs = f" {self.attributes}" if self.attributes else ""
        return (f"SpanRecord({self.name}, {self.elapsed_seconds * 1e3:.3f}ms,"
                f" depth={self.depth}{attrs})")


class _NullSpan:
    """The shared, falsy do-nothing span handed out when nothing
    records (no allocation, no timestamps, no buffer writes)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def set(self, **attributes) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: joins its collector on entry, measures wall time,
    and lands in the ring buffer on exit when tracing was enabled."""

    __slots__ = ("record", "_sink", "_buffered", "_index", "_parent",
                 "_start")

    def __init__(self, name: str, attributes: Dict[str, Any],
                 sink: Optional[List[SpanRecord]]) -> None:
        self.record = SpanRecord(name, 0.0, 0, None, attributes)
        self._sink = sink
        self._buffered = _enabled

    def set(self, **attributes) -> None:
        """Add or overwrite attributes before the span closes."""
        self.record.attributes.update(attributes)

    def __enter__(self) -> "_Span":
        record, sink = self.record, self._sink
        parent = self._parent = _current.get()
        if parent is not None:
            record.depth = parent.record.depth + 1
            record.parent = parent.record.name
        if sink is not None:
            if parent is not None and parent._sink is sink:
                record.parent_index = parent._index
            self._index = len(sink)
            sink.append(record)
        _current.set(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.record.elapsed_seconds = time.perf_counter() - self._start
        _current.set(self._parent)
        if self._buffered:
            _buffer.append(self.record)


def span(name: str, **attributes):
    """A context manager timing one named unit of work.

    With tracing disabled (the default) and no :func:`collect` block
    open in this context, this returns a shared, falsy no-op object;
    otherwise the span records to the collector, the ring buffer, or
    both, with its nesting depth and parent.
    """
    sink = _collector.get() if _open_collectors else None
    if sink is None and not _enabled:
        return _NULL_SPAN
    return _Span(name, attributes, sink)


@contextmanager
def collect() -> Iterator[List[SpanRecord]]:
    """Collect every span opened in the current context during the
    block, tracing enabled or not, into the yielded list: in start
    order, each linked to its enclosing span by ``parent_index``."""
    global _open_collectors
    records: List[SpanRecord] = []
    token = _collector.set(records)
    with _BUFFER_LOCK:
        _open_collectors += 1
    try:
        yield records
    finally:
        with _BUFFER_LOCK:
            _open_collectors -= 1
        _collector.reset(token)


def enable(buffer_size: Optional[int] = None) -> None:
    """Turn tracing on (optionally resizing the ring buffer, which
    drops previously recorded spans)."""
    global _enabled, _buffer
    with _BUFFER_LOCK:
        if buffer_size is not None and buffer_size != _buffer.maxlen:
            _buffer = deque(maxlen=buffer_size)
        _enabled = True


def disable() -> None:
    """Turn tracing off.  Already-recorded spans stay readable."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def spans(name: Optional[str] = None) -> List[SpanRecord]:
    """The recorded spans, oldest first (optionally only those whose
    name equals ``name``)."""
    with _BUFFER_LOCK:
        if name is None:
            return list(_buffer)
        return [record for record in _buffer if record.name == name]


def clear() -> None:
    """Drop every recorded span (the enabled/disabled state stays)."""
    with _BUFFER_LOCK:
        _buffer.clear()


def set_buffer_size(size: int) -> None:
    """Resize the ring buffer (drops previously recorded spans)."""
    global _buffer
    if size < 1:
        raise ValueError(f"buffer size must be >= 1, got {size}")
    with _BUFFER_LOCK:
        _buffer = deque(maxlen=size)
