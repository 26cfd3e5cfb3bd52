"""Structured logging for the harness: JSONL events + console rendering.

The harness used to talk to the operator exclusively through bare
``print()``; that made every run a black box the moment stdout scrolled
away.  This module gives it two deliberate channels instead:

- **Reports** (:func:`console`) — the verbatim, human-facing experiment
  output.  At default settings this is byte-identical to the old
  ``print()`` path (same stream, same bytes), so checked-in artifacts and
  test expectations are untouched; ``--quiet`` suppresses it while
  artifacts keep being written.
- **Events** (:func:`event` and the :func:`debug`/:func:`info`/
  :func:`warning`/:func:`error` helpers) — structured diagnostics.  Each
  event is a name plus flat key/value fields.  Events render to *stderr*
  when they clear ``--log-level`` (default ``warning``, so a default run
  prints nothing it did not print before), and **every** event down to
  ``debug`` is appended to the ``--log-file`` JSONL sink when one is
  configured, one JSON object per line::

      {"ts": 1722907200.123, "level": "info", "event": "runner.start",
       "pid": 4242, "run_id": "run-...", "experiments": ["fig7"]}

The sink is opened line-buffered in append mode, so pool workers forked
under ``--jobs N`` inherit it and their events land in the same file
(each event is a single ``write()`` of one complete line).

Like :mod:`repro.trace`, the disabled path is engineered to cost nothing:
with no sink and the default level, an event call is one integer compare.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.trace import context as _trace_context

__all__ = [
    "LEVELS",
    "LogState",
    "configure",
    "shutdown",
    "get_state",
    "level_value",
    "event",
    "debug",
    "info",
    "warning",
    "error",
    "console",
]

#: Recognised level names, lowest first.  Numeric values follow stdlib
#: ``logging`` so the two scales interoperate if a caller mixes them.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Console threshold of a default run — diagnostics stay silent unless the
#: operator asks, keeping default stdout/stderr exactly as before.
DEFAULT_LEVEL = "warning"


def level_value(level: str) -> int:
    """Numeric value of a level name (raises ``KeyError`` on unknown names)."""
    try:
        return LEVELS[level.lower()]
    except KeyError:
        raise KeyError(
            f"unknown log level {level!r}; known: {sorted(LEVELS)}"
        ) from None


@dataclasses.dataclass
class LogState:
    """Process-wide logging configuration (swap with :func:`configure`)."""

    console_level: int = LEVELS[DEFAULT_LEVEL]
    quiet: bool = False
    sink: Optional[io.TextIOBase] = None
    sink_path: Optional[str] = None
    run_id: Optional[str] = None
    #: Events captured when a test installs a capturing state (sink-free
    #: introspection without touching the filesystem).
    capture: Optional[List[dict]] = None
    #: Optional record tee — the flight recorder's ring buffer taps here.
    #: Receives every record the sink would (down to ``debug``), even when
    #: no sink is configured.
    tee: Optional[Callable[[dict], None]] = None


_STATE = LogState()


def get_state() -> LogState:
    return _STATE


def configure(
    level: Optional[str] = DEFAULT_LEVEL,
    log_file: Optional[str] = None,
    quiet: bool = False,
    run_id: Optional[str] = None,
) -> LogState:
    """(Re)configure the process-wide logging state.

    ``level`` gates stderr diagnostics only; the JSONL sink always records
    from ``debug`` up, so one flag redirects full-fidelity telemetry to a
    file without drowning the terminal.  ``level=None`` keeps the current
    threshold — a daemon re-wiring its sink after ``repro`` already applied
    ``--log-level``.
    """
    global _STATE
    console_level = _STATE.console_level if level is None else level_value(level)
    shutdown()
    sink = None
    if log_file is not None:
        sink = open(log_file, "a", buffering=1)
    _STATE = LogState(
        console_level=console_level,
        quiet=quiet,
        sink=sink,
        sink_path=log_file,
        run_id=run_id,
    )
    return _STATE


def shutdown() -> None:
    """Flush and close the sink; reset to the zero-cost default state."""
    global _STATE
    if _STATE.sink is not None:
        try:
            _STATE.sink.close()
        except OSError:
            pass
    _STATE = LogState()


def _jsonable(value: Any) -> Any:
    """Coerce a field value to something ``json`` can serialise."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def event(name: str, level: str = "info", **fields: Any) -> None:
    """Emit one structured event through every configured channel."""
    state = _STATE
    value = LEVELS.get(level, LEVELS["info"])
    if (
        state.sink is None
        and state.capture is None
        and state.tee is None
        and value < state.console_level
    ):
        return  # the zero-cost path of an unconfigured run
    record = {"ts": round(time.time(), 6), "level": level, "event": name, "pid": os.getpid()}
    if state.run_id is not None:
        record["run_id"] = state.run_id
    ctx = _trace_context.current()
    if ctx is not None:
        record.update(ctx.ids())
    for key, val in fields.items():
        record[key] = _jsonable(val)
    if state.capture is not None:
        state.capture.append(record)
    if state.tee is not None:
        state.tee(record)
    if state.sink is not None:
        state.sink.write(json.dumps(record, separators=(",", ":")) + "\n")
    if value >= state.console_level:
        parts = " ".join(f"{k}={record[k]}" for k in fields)
        stamp = time.strftime("%H:%M:%S", time.localtime(record["ts"]))
        print(f"[{stamp}] {level:<7} {name} {parts}".rstrip(), file=sys.stderr)


def debug(name: str, **fields: Any) -> None:
    event(name, level="debug", **fields)


def info(name: str, **fields: Any) -> None:
    event(name, level="info", **fields)


def warning(name: str, **fields: Any) -> None:
    event(name, level="warning", **fields)


def error(name: str, **fields: Any) -> None:
    event(name, level="error", **fields)


def console(text: str = "", *, kind: str = "report") -> None:
    """Verbatim user-facing output (reports, tables, summaries).

    Prints ``text`` to stdout exactly as :func:`print` would — the default
    path is byte-identical to the pre-logging harness — unless ``--quiet``
    is active, in which case the text is dropped from the terminal but a
    ``console`` event still reaches the JSONL sink, so a quiet run's file
    log remains complete.
    """
    state = _STATE
    if state.sink is not None or state.capture is not None or state.tee is not None:
        event("console", level="debug", kind=kind, chars=len(text))
    if not state.quiet:
        print(text)
