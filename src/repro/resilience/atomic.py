"""Crash-safe filesystem primitives: atomic replace + durable appends.

Every ``results/`` artifact this harness writes must survive a ``kill -9``
mid-write without leaving a torn file behind:

- :func:`atomic_write_text` / :func:`atomic_write_bytes` — write to a
  temporary file in the *same directory* (same filesystem, so the final
  rename is atomic), fsync it, then ``os.replace`` onto the target.  A
  reader therefore only ever sees the old complete file or the new
  complete file, never a prefix.
- :func:`crash_safe_append` — append one complete line with an
  ``O_APPEND`` write followed by flush (+ optional fsync).  Appends of a
  single small line are effectively atomic on POSIX, so a journal either
  gains the whole record or none of it; a torn tail can only be the very
  last line, which journal readers skip-and-warn on.
- :class:`JsonlReader` — the one reader of those journals: it skips,
  counts and warns on every line that is not a well-formed record, so a
  torn tail or a hand-damaged line costs that record and nothing more.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
from typing import Any, Callable, Dict, Iterator, Union

from ..obs import log as obs_log

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "crash_safe_append",
    "json_object",
    "JsonlReader",
]

PathLike = Union[str, "os.PathLike[str]"]


def atomic_write_bytes(path: PathLike, data: bytes) -> pathlib.Path:
    """Atomically replace ``path`` with ``data``; returns the path written."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        # Never leave the temp file behind, even on KeyboardInterrupt.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: PathLike, text: str) -> pathlib.Path:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def crash_safe_append(path: PathLike, line: str, fsync: bool = True) -> pathlib.Path:
    """Append one complete line (newline added if missing) durably.

    The line is issued as a single ``write()`` on an ``O_APPEND`` handle;
    with ``fsync=True`` the record is on disk before this returns, so a
    subsequent crash cannot lose it.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not line.endswith("\n"):
        line += "\n"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    return path


def json_object(text: str) -> Dict[str, Any]:
    """``json.loads(text)``, raising ``ValueError`` unless it is an object.

    Valid JSON that is not an object (``[1, 2]``, ``7``, ``null``) is as
    unreadable a record as a torn line, and must fail the same way.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


@dataclasses.dataclass
class JsonlReader:
    """The records of one schema-tagged JSONL journal, read lazily.

    Iterating yields ``parse(doc)`` for every line holding a JSON object
    ``doc`` whose ``schema`` is ``schema``.  Every other line — a torn
    tail, garbage, a non-object, a foreign schema, or a record ``parse``
    rejects with ``KeyError``, ``TypeError`` or ``ValueError`` — is
    skipped, counted in :attr:`skipped` and logged as one ``event``
    warning.  A missing file reads as empty.
    """

    path: PathLike
    schema: int
    event: str
    parse: Callable[[Dict[str, Any]], Any]
    skipped: int = dataclasses.field(default=0, init=False)

    def __iter__(self) -> Iterator[Any]:
        self.skipped = 0
        try:
            text = pathlib.Path(self.path).read_text()
        except FileNotFoundError:
            return
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json_object(line)
                if doc.get("schema") != self.schema:
                    raise ValueError(f"unknown schema {doc.get('schema')!r}")
                record = self.parse(doc)
            except (ValueError, KeyError, TypeError) as err:
                self.skipped += 1
                obs_log.warning(
                    self.event, path=str(self.path), line=lineno, error=str(err)
                )
                continue
            yield record
