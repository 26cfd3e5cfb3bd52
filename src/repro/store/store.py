"""Content-addressed on-disk result store, sharded by fingerprint prefix.

One record file per cached result::

    <root>/shards/<digest[:2]>/<digest>.json

where ``digest`` is the SHA-256 of the structural cache key the in-process
memo already computes (:mod:`repro.perf.cache`) — the key fingerprints
every config field and every spec field, so content addressing is exactly
"same problem, same entry", across processes and across runs.  A value is
stored under its **exact** key and (when the caller supplies one) under
its **canonical** symmetry-folded key, so timing-equivalent specs share a
persistent entry the same way they share a memo entry.

Durability and integrity:

- every write goes through :func:`repro.resilience.atomic.atomic_write_bytes`
  (temp file + fsync + ``os.replace``), so a reader sees an old complete
  record or a new complete record, never a torn one — concurrent writers
  of the same digest race benignly because simulation is deterministic
  (identical bytes, last rename wins);
- every record carries a schema version and a SHA-256 checksum over its
  body; :meth:`ResultStore.load` re-verifies both plus the key digest and
  the typed payload decode, and a record failing *any* check is
  **skipped with a warning** (and counted) — the caller recomputes and
  the write-through replaces the bad record;
- :meth:`ResultStore.verify` runs the same checks over every record (the
  ``repro store verify`` command), and :meth:`ResultStore.compact`
  LRU-evicts by record mtime down to entry/byte caps (reads touch their
  record's mtime, so recency is meaningful).

Fault injection: an active :class:`~repro.resilience.faults.FaultPlan`
with ``corrupt-store`` set corrupts records as they are written
(truncated / bad checksum / wrong schema / torn shard file), which is how
the corruption test matrix and CI prove the skip-and-warn path end to end.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Any, Iterator, List, Optional, Tuple

from ..obs import log as obs_log
from ..resilience.atomic import atomic_write_bytes
from .codec import CodecError, decode_value, encode_value

__all__ = [
    "STORE_SCHEMA",
    "StoreStats",
    "RecordProblem",
    "VerifyReport",
    "CompactReport",
    "ResultStore",
    "key_digest",
]

STORE_SCHEMA = 1

#: Hex characters of the digest that name the shard directory.
SHARD_PREFIX_CHARS = 2


def key_digest(key: Any) -> str:
    """SHA-256 hex digest of a structural cache key.

    Keys are tuples of primitives (type names, ints, floats, strings) whose
    ``repr`` is deterministic across processes and Python runs — unlike
    ``hash()``, which is salted — so the digest is a stable cross-process
    content address.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class StoreStats:
    """Per-handle counters of one :class:`ResultStore`."""

    hits: int = 0
    canonical_hits: int = 0  # subset of hits served via the canonical digest
    misses: int = 0
    writes: int = 0
    corrupt_skipped: int = 0
    unsupported: int = 0  # values the codec could not persist

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclasses.dataclass(frozen=True)
class RecordProblem:
    """One record that failed an integrity check."""

    path: str
    reason: str


@dataclasses.dataclass
class VerifyReport:
    """Outcome of a full integrity scan."""

    scanned: int = 0
    ok: int = 0
    problems: List[RecordProblem] = dataclasses.field(default_factory=list)
    quarantined: List[str] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.problems

    @property
    def healed(self) -> bool:
        """True when every problem record was moved out of the serving
        tree (``verify(quarantine=True)``) — the store reads clean now."""
        return len(self.quarantined) == len(self.problems)


@dataclasses.dataclass
class CompactReport:
    """Outcome of one LRU/size-capped compaction pass."""

    scanned: int = 0
    removed: int = 0
    kept: int = 0
    bytes_before: int = 0
    bytes_after: int = 0


def _record_bytes(digest: str, payload: Any) -> bytes:
    body = {"schema": STORE_SCHEMA, "key": digest, "payload": payload}
    canonical = json.dumps(body, sort_keys=True)
    checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    record = dict(body)
    record["checksum"] = checksum
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _corrupt_bytes(data: bytes, mode: str) -> bytes:
    """Deterministically damage a record the way the fault plan asked."""
    if mode == "truncate":
        return data[: max(1, len(data) // 2)]
    if mode == "torn":  # a barely-started shard file
        return data[:16]
    if mode == "checksum":
        text = data.decode("utf-8")
        flipped = "0" if '"checksum": "0' not in text else "1"
        marker = '"checksum": "'
        at = text.index(marker) + len(marker)
        return (text[:at] + flipped + text[at + 1 :]).encode("utf-8")
    if mode == "schema":
        return data.replace(
            f'"schema": {STORE_SCHEMA}'.encode(), b'"schema": 999', 1
        )
    raise ValueError(f"unknown store corruption mode {mode!r}")


class ResultStore:
    """A sharded, content-addressed, corruption-detecting result store."""

    def __init__(self, root, touch_on_hit: bool = True) -> None:
        self.root = pathlib.Path(root)
        self.shard_root = self.root / "shards"
        self.touch_on_hit = touch_on_hit
        self.stats = StoreStats()
        self.shard_root.mkdir(parents=True, exist_ok=True)

    # --------------------------------------------------------------- paths
    def record_path(self, digest: str) -> pathlib.Path:
        return self.shard_root / digest[:SHARD_PREFIX_CHARS] / f"{digest}.json"

    def record_paths(self) -> Iterator[pathlib.Path]:
        """Every record file, in deterministic (sorted) order."""
        if not self.shard_root.exists():
            return
        for shard in sorted(self.shard_root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path

    def __len__(self) -> int:
        return sum(1 for _ in self.record_paths())

    def total_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.record_paths())

    # ---------------------------------------------------------------- read
    def _read_record(self, path: pathlib.Path) -> Tuple[Optional[Any], Optional[str]]:
        """``(value, problem)`` — exactly one side is non-None.

        Every failure mode a crashed or corrupted writer can produce maps
        to a *reason string*, never an exception: a bad record costs one
        recomputation, nothing more.
        """
        try:
            raw = path.read_bytes()
        except OSError as err:
            return None, f"unreadable: {err}"
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            return None, f"unparseable (torn/truncated?): {err}"
        if not isinstance(record, dict):
            return None, "record is not an object"
        checksum = record.pop("checksum", None)
        if not isinstance(checksum, str):
            return None, "missing checksum"
        canonical = json.dumps(record, sort_keys=True)
        actual = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        if actual != checksum:
            return None, f"checksum mismatch ({checksum[:12]}… != {actual[:12]}…)"
        if record.get("schema") != STORE_SCHEMA:
            return None, f"unknown schema {record.get('schema')!r}"
        if record.get("key") != path.stem:
            return None, f"key digest {record.get('key')!r} does not match filename"
        try:
            return decode_value(record.get("payload")), None
        except CodecError as err:
            return None, f"undecodable payload: {err}"

    def _load_digest(self, digest: str) -> Optional[Any]:
        path = self.record_path(digest)
        if not path.exists():
            return None
        value, problem = self._read_record(path)
        if problem is not None:
            self.stats.corrupt_skipped += 1
            obs_log.warning(
                "store.corrupt_record", path=str(path), reason=problem
            )
            return None
        if self.touch_on_hit:
            try:  # recency for LRU compaction; best-effort only
                os.utime(path)
            except OSError:
                pass
        return value

    def load(
        self, key: Any, canonical_key: Optional[Any] = None, tentative: bool = False
    ) -> Tuple[bool, Any, bool]:
        """One store lookup: ``(found, value, via_canonical)``.

        Tries the exact digest, then the canonical one; a canonical serve
        promotes the value to the exact digest (mirroring the memo cache's
        exact-key aliasing) so the next process hits in one probe.

        A ``tentative`` lookup (the serve daemon's admission, on its event
        loop) writes nothing — no promotion and its fsync — and leaves a
        miss to the counted lookup that follows it.
        """
        digest = key_digest(key)
        value = self._load_digest(digest)
        if value is not None:
            self.stats.hits += 1
            return True, value, False
        if canonical_key is not None and canonical_key != key:
            value = self._load_digest(key_digest(canonical_key))
            if value is not None:
                self.stats.hits += 1
                self.stats.canonical_hits += 1
                if not tentative:
                    self._write_digest(digest, value, overwrite=True)
                return True, value, True
        if not tentative:
            self.stats.misses += 1
        return False, None, False

    # --------------------------------------------------------------- write
    def _write_digest(self, digest: str, value: Any, overwrite: bool) -> bool:
        path = self.record_path(digest)
        if not overwrite and path.exists():
            return False
        try:
            payload = encode_value(value)
        except CodecError:
            self.stats.unsupported += 1
            return False
        data = _record_bytes(digest, payload)
        from ..resilience import faults

        plan = faults.get_active()
        if plan is not None:
            mode = plan.store_corruption(digest)
            if mode is not None:
                data = _corrupt_bytes(data, mode)
        atomic_write_bytes(path, data)
        self.stats.writes += 1
        return True

    def save(self, key: Any, value: Any, canonical_key: Optional[Any] = None) -> bool:
        """Write-through one computed value (exact + canonical records).

        Returns False when the codec cannot persist the value — the caller
        keeps its in-memory entry and nothing else changes.
        """
        if not self._write_digest(key_digest(key), value, overwrite=True):
            return False
        if canonical_key is not None and canonical_key != key:
            self._write_digest(key_digest(canonical_key), value, overwrite=False)
        return True

    # ----------------------------------------------------------- integrity
    def verify(self, quarantine: bool = False) -> VerifyReport:
        """Full integrity scan: every record, every check the read path runs.

        With ``quarantine=True`` each corrupt record is *healed out* of the
        serving tree — moved (same-filesystem rename) into
        ``<root>/quarantine/`` with its shard prefix flattened into the
        name, so the evidence survives for post-mortems while the store
        itself reads clean again (the read path already treats a missing
        record as a miss and recomputes).
        """
        report = VerifyReport()
        for path in self.record_paths():
            report.scanned += 1
            _, problem = self._read_record(path)
            if problem is None:
                report.ok += 1
                continue
            report.problems.append(RecordProblem(path=str(path), reason=problem))
            if not quarantine:
                continue
            quarantine_dir = self.root / "quarantine"
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = quarantine_dir / f"{path.parent.name}-{path.name}"
            try:
                os.replace(path, target)
            except OSError:
                continue  # leave it counted as an unhealed problem
            report.quarantined.append(str(target))
        return report

    def compact(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> CompactReport:
        """LRU eviction down to the given caps (mtime = recency).

        Newest records are kept; a corrupt record is always evicted first
        (it can never be served).  Empty shard directories are removed.
        """
        entries = []
        for path in self.record_paths():
            stat = path.stat()
            _, problem = self._read_record(path)
            entries.append((problem is not None, -stat.st_mtime, stat.st_size, path))
        report = CompactReport(scanned=len(entries))
        report.bytes_before = sum(size for _, _, size, _ in entries)
        # Corrupt first, then oldest first, at the *end* of the keep order.
        entries.sort(key=lambda item: (item[0], item[1]))
        kept_bytes = 0
        for index, (corrupt, _, size, path) in enumerate(entries):
            over_entries = max_entries is not None and index >= max_entries
            over_bytes = max_bytes is not None and kept_bytes + size > max_bytes
            if corrupt or over_entries or over_bytes:
                try:
                    path.unlink()
                except OSError:
                    continue
                report.removed += 1
            else:
                kept_bytes += size
                report.kept += 1
        report.bytes_after = kept_bytes
        for shard in list(self.shard_root.iterdir()):
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass
        if report.removed:
            obs_log.info(
                "store.compacted",
                root=str(self.root), removed=report.removed, kept=report.kept,
            )
        return report

    # --------------------------------------------------------- descriptive
    def describe(self) -> dict:
        """A stats snapshot for CLIs and manifests."""
        entries = 0
        size = 0
        shards = set()
        for path in self.record_paths():
            entries += 1
            size += path.stat().st_size
            shards.add(path.parent.name)
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA,
            "entries": entries,
            "bytes": size,
            "shards": len(shards),
        }
