"""Lease-based task ownership: fsync'd lease files with expiry and fencing.

A lease is one small JSON file owned by whichever process most recently
acquired it.  The protocol is the minimum a crash-safe distributed work
queue needs (see :mod:`repro.dse.queue` for the consumer):

- **acquire** — create ``<task>.lease`` atomically (temp file + fsync +
  ``os.link``, which fails if the path already exists, so two workers
  racing on a free lease resolve at the filesystem level);
- **renew** — atomically replace the record with a later expiry (same
  owner, same generation), keeping long tasks owned;
- **steal** — once a record's ``expires_at`` is in the past the owner is
  presumed kill -9'd or hung, and any survivor may atomically replace
  the record with its own, bumping the **generation** counter — the
  fencing token that tells every later reader how many ownership
  transfers the task has survived (a hung worker waking after its lease
  was stolen sees a foreign owner/newer generation and must not assume
  ownership);
- **release** — unlink, freeing the task for normal completion cleanup.

Leases guarantee *liveness* (a dead owner's work is reclaimed after the
TTL), not mutual exclusion against arbitrarily delayed writers — a stolen
worker may still finish its task.  Consumers must therefore keep task
effects idempotent (the DSE queue journals deterministic results keyed by
task id, so a double completion writes identical bytes and readers
last-write-win).  That is the standard lease contract, stated honestly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
import time
from typing import Optional

from .atomic import atomic_write_text, json_object

__all__ = [
    "LEASE_SCHEMA",
    "LeaseRecord",
    "read_lease",
    "try_acquire",
    "renew",
    "release",
]

LEASE_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class LeaseRecord:
    """The on-disk claim one worker holds on one task."""

    owner: str  # worker id (unique per process incarnation)
    generation: int  # ownership transfers so far (1 = first claim)
    acquired_at: float  # unix seconds
    expires_at: float  # unix seconds; past this the lease is stealable

    def expired(self, now: Optional[float] = None) -> bool:
        return (time.time() if now is None else now) >= self.expires_at

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": LEASE_SCHEMA,
                "owner": self.owner,
                "generation": self.generation,
                "acquired_at": self.acquired_at,
                "expires_at": self.expires_at,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "LeaseRecord":
        doc = json_object(text)
        if doc.get("schema") != LEASE_SCHEMA:
            raise ValueError(f"unknown lease schema {doc.get('schema')!r}")
        return cls(
            owner=str(doc["owner"]),
            generation=int(doc["generation"]),
            acquired_at=float(doc["acquired_at"]),
            expires_at=float(doc["expires_at"]),
        )


def read_lease(path) -> Optional[LeaseRecord]:
    """The current lease record, or None (missing / torn — torn means a
    writer died mid-replace; the temp+rename protocol makes that a missing
    file, but a hand-damaged record is treated as free too, with the same
    worst case: one duplicated idempotent evaluation)."""
    try:
        return LeaseRecord.from_json(pathlib.Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_new(path: pathlib.Path, record: LeaseRecord) -> bool:
    """Create ``path`` with ``record`` iff it does not exist (atomic).

    ``os.link`` from a private temp file either installs the complete
    record or fails with EEXIST — the filesystem arbitrates racing
    acquirers.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        try:
            os.write(fd, record.to_json().encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            os.link(tmp_name, path)
        except FileExistsError:
            return False
        return True
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass


def try_acquire(
    path,
    owner: str,
    ttl_s: float,
    now: Optional[float] = None,
) -> Optional[LeaseRecord]:
    """Claim the lease at ``path`` for ``owner``, stealing it if expired.

    Returns the :class:`LeaseRecord` now held (fresh claim at generation 1,
    or a steal at ``previous.generation + 1``), or None when another owner
    holds an unexpired lease.
    """
    now = time.time() if now is None else now
    path = pathlib.Path(path)
    fresh = LeaseRecord(
        owner=owner, generation=1, acquired_at=now, expires_at=now + ttl_s
    )
    if _write_new(path, fresh):
        return fresh
    current = read_lease(path)
    if current is None:
        # Vanished (released) or torn between our create and read: retry
        # the exclusive create once; losing again means someone else won.
        if _write_new(path, fresh):
            return fresh
        current = read_lease(path)
        if current is None:
            return None
    if current.owner == owner and not current.expired(now):
        return current  # already ours (re-entrant claim)
    if not current.expired(now):
        return None
    stolen = LeaseRecord(
        owner=owner,
        generation=current.generation + 1,
        acquired_at=now,
        expires_at=now + ttl_s,
    )
    # Two survivors can both observe expiry and both replace; one rename
    # lands last and wins. The loser's evaluation is idempotent by the
    # consumer contract, so the race costs duplicated work, not corruption.
    atomic_write_text(path, stolen.to_json())
    return stolen


def renew(path, owner: str, ttl_s: float, now: Optional[float] = None) -> Optional[LeaseRecord]:
    """Extend ``owner``'s lease; returns the new record, or None when the
    lease is no longer theirs (stolen after an expiry — the caller should
    abandon ownership assumptions and let its in-flight work stand as an
    idempotent duplicate)."""
    now = time.time() if now is None else now
    current = read_lease(path)
    if current is None or current.owner != owner:
        return None
    renewed = dataclasses.replace(current, expires_at=now + ttl_s)
    atomic_write_text(path, renewed.to_json())
    return renewed


def release(path, owner: str) -> bool:
    """Drop ``owner``'s lease; True if it was held by ``owner`` and removed."""
    current = read_lease(path)
    if current is None or current.owner != owner:
        return False
    try:
        os.unlink(path)
    except OSError:
        return False
    return True
