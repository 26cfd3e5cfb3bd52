"""Structured-event tracer: spans, instants and counters, off by default.

The simulators, memory models and harness are instrumented with calls like
``trace.span("tpu.conv.batch", jobs=n, layers=m)`` and
``trace.counter("hbm.bytes", payload)``.  Tracing is **disabled by default**
and the disabled path is engineered to cost nothing measurable:

- ``span()`` returns one shared no-op context manager (:data:`NULL_SPAN`) —
  no object is allocated per call;
- ``counter()`` / ``instant()`` return before touching any state;
- hot loops additionally guard with :func:`enabled` so even the argument
  packing is skipped.

When enabled (``--trace`` on the runner, or :func:`enable` in code) every
event is appended to the active :class:`Tracer` with a wall-clock timestamp
in microseconds relative to the moment tracing was enabled.  Events map 1:1
onto the Chrome ``trace_event`` format (see :mod:`repro.trace.export`):
spans are complete (``"X"``) events, counters are ``"C"`` events carrying
the running total, instants are ``"i"`` events.

Model *cycles* ride along as span/counter ``args`` — the tracer never
conflates simulated cycles with host time; per-layer cycle accounting lives
in :mod:`repro.trace.metrics`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import context as _context

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "set_tracer",
    "enable",
    "disable",
    "enabled",
    "span",
    "instant",
    "counter",
    "drain_events",
]


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One Chrome-trace-compatible event.

    ``ts``/``dur`` are host microseconds relative to the tracer's epoch;
    simulated-cycle payloads travel in ``args`` (a sorted tuple of
    ``(key, value)`` pairs so events stay hashable and picklable — they
    cross process boundaries under ``--jobs N``).
    """

    name: str
    cat: str
    ph: str  # "X" complete span, "C" counter, "i" instant
    ts: float
    dur: float
    pid: int
    tid: int
    args: Tuple[Tuple[str, object], ...] = ()

    def to_chrome(self) -> dict:
        """The dict the Chrome ``trace_event`` JSON array stores."""
        event = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }
        if self.ph == "X":
            event["dur"] = self.dur
        if self.ph == "i":
            event["s"] = "t"  # thread-scoped instant
        return event


class _NullSpan:
    """The shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Singleton no-op span — ``span(...) is NULL_SPAN`` whenever tracing is off,
#: which is also what the disabled-overhead property test asserts.
NULL_SPAN = _NullSpan()


class _Span:
    """An open span; appends one complete event when the ``with`` exits.

    While a :class:`~repro.trace.context.TraceContext` is active the span
    joins its tree: it either *adopts* the current context (operation
    roots, see :func:`repro.trace.context.activate_root`) or allocates a
    child node, makes that node current for its dynamic extent, and stamps
    ``trace_id``/``span_id``/``parent_span_id`` into the event args — the
    Chrome export and the JSONL logs reassemble the tree by those ids.
    """

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start", "_ctx", "_token")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0
        self._ctx = None
        self._token = None

    def __enter__(self) -> "_Span":
        self._tracer._depth += 1
        ctx = _context.current()
        if ctx is not None:
            if _context.consume_adopt():
                self._ctx = ctx  # this span IS the received context's node
            else:
                self._ctx = ctx.child()
                self._token = _context.attach(self._ctx)
        self._start = self._tracer._now_us()
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        end = tracer._now_us()
        tracer._depth -= 1
        if self._ctx is not None:
            if self._token is not None:
                _context.detach(self._token)
            self._args.update(self._ctx.ids())
        tracer._append(
            TraceEvent(
                name=self._name,
                cat=self._cat,
                ph="X",
                ts=self._start,
                dur=max(0.0, end - self._start),
                pid=tracer.pid,
                tid=1,
                args=tuple(sorted(self._args.items())),
            )
        )
        return False

    def note(self, **args) -> None:
        """Attach extra args to the span after entry (e.g. computed cycles)."""
        self._args.update(args)


class Tracer:
    """Collects :class:`TraceEvent` instances while enabled.

    One process-global instance (:func:`get_tracer`) backs the module-level
    helpers; tests may build private instances.  Not thread-safe by design —
    the harness parallelises across *processes*, each of which owns its own
    tracer, and events are merged by pid afterwards.
    """

    __slots__ = ("enabled", "pid", "_events", "_counters", "_depth", "_epoch", "tap")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.pid = os.getpid()
        self._events: List[TraceEvent] = []
        self._counters: Dict[str, float] = {}
        self._depth = 0
        self._epoch = time.perf_counter()
        #: Optional event tee (the flight recorder's ring buffer taps here).
        self.tap: Optional[Callable[[TraceEvent], None]] = None

    # ------------------------------------------------------------- lifecycle
    def enable(self) -> None:
        self.enabled = True
        self.pid = os.getpid()  # re-stamp after fork into a worker
        self._epoch = time.perf_counter()

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._events.clear()
        self._counters.clear()
        self._depth = 0
        self._epoch = time.perf_counter()

    # --------------------------------------------------------------- emitters
    def span(self, name: str, cat: str = "sim", **args):
        """A context manager timing one named region (``"X"`` event)."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "sim", **args) -> None:
        """A zero-duration marker (``"i"`` event).

        Attributed to the enclosing span's trace context when one is
        active (the instant carries the *current* span's ids, so tree
        reassembly can hang it off the right node).
        """
        if not self.enabled:
            return
        ctx = _context.current()
        if ctx is not None:
            args.setdefault("trace_id", ctx.trace_id)
            args.setdefault("span_id", ctx.span_id)
        self._append(
            TraceEvent(
                name=name,
                cat=cat,
                ph="i",
                ts=self._now_us(),
                dur=0.0,
                pid=self.pid,
                tid=1,
                args=tuple(sorted(args.items())),
            )
        )

    def counter(self, name: str, value: float, cat: str = "counter") -> None:
        """Accumulate a non-negative increment onto a named counter.

        Negative increments are rejected: every instrumented quantity
        (bytes moved, transfers priced, schedules built) is a count, and the
        monotonicity is one of the audited trace invariants.
        """
        if not self.enabled:
            return
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0, got {value}")
        total = self._counters.get(name, 0.0) + value
        self._counters[name] = total
        self._append(
            TraceEvent(
                name=name,
                cat=cat,
                ph="C",
                ts=self._now_us(),
                dur=0.0,
                pid=self.pid,
                tid=1,
                args=((name, total),),
            )
        )

    # -------------------------------------------------------------- accessors
    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def counters(self) -> Dict[str, float]:
        """Final running totals per counter name."""
        return dict(self._counters)

    @property
    def open_spans(self) -> int:
        """Currently-open span depth (0 once every ``with`` has exited)."""
        return self._depth

    def drain(self) -> List[TraceEvent]:
        """Return all events and reset the buffer (workers ship these home)."""
        events = list(self._events)
        self._events.clear()
        return events

    # -------------------------------------------------------------- internals
    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _append(self, event: TraceEvent) -> None:
        self._events.append(event)
        if self.tap is not None:
            self.tap(event)


#: The process-global tracer behind the module-level helpers.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests); returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def enable() -> None:
    """Turn on event collection (and reset the timestamp epoch)."""
    _TRACER.enable()


def disable() -> None:
    _TRACER.disable()


def enabled() -> bool:
    """Fast guard for hot paths: skip even argument packing when off."""
    return _TRACER.enabled


def span(name: str, cat: str = "sim", **args):
    """Module-level ``with trace.span(...)``; no-op singleton when disabled."""
    tracer = _TRACER
    if not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, cat, **args)


def instant(name: str, cat: str = "sim", **args) -> None:
    tracer = _TRACER
    if tracer.enabled:
        tracer.instant(name, cat, **args)


def counter(name: str, value: float, cat: str = "counter") -> None:
    tracer = _TRACER
    if tracer.enabled:
        tracer.counter(name, value, cat)


def drain_events() -> List[TraceEvent]:
    return _TRACER.drain()
