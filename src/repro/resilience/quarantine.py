"""Poison-task quarantine: park hostile work instead of burning the budget.

A *poison* task is one that keeps failing deterministically — it crashes
its worker every attempt, AuditFaults every time, or raises the same
PermanentFault on retry after retry.  Retrying it forever starves the
healthy work; failing the whole sweep over it throws away thousands of
good results.  The quarantine file is the third option: after ``N``
distinct failures the task is **parked** — appended crash-safely (fsync
per record) to ``quarantine.jsonl`` with its complete definition and its
failure history — and the sweep moves on.

Because each record carries the full task payload, quarantine is
*replayable*: ``repro dse replay <dir>`` re-runs every parked config in a
clean serial process and reports which still fail (true poison: a model
bug or a genuinely hostile config worth a corpus entry) and which now pass
(the earlier failures were environmental).  Loading deduplicates by task
id, last record wins, so re-parking after a replay is well-defined.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, List

from ..obs import log as obs_log
from .atomic import JsonlReader, crash_safe_append

__all__ = ["QUARANTINE_SCHEMA", "QuarantineRecord", "QuarantineFile"]

QUARANTINE_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class QuarantineRecord:
    """One parked task: identity, payload, and why it was parked."""

    task_id: str
    payload: Dict[str, Any]  # full task definition — enough to replay
    reason: str  # e.g. "failed 3 attempt(s)" / "crash-looped 4 lease(s)"
    failures: List[Dict[str, Any]]  # [{attempt, fault, error}, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": QUARANTINE_SCHEMA,
                "task_id": self.task_id,
                "payload": self.payload,
                "reason": self.reason,
                "failures": self.failures,
            },
            sort_keys=True,
        )

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "QuarantineRecord":
        return cls(
            task_id=str(doc["task_id"]),
            payload=dict(doc["payload"]),
            reason=str(doc.get("reason", "")),
            failures=list(doc.get("failures", [])),
        )


class QuarantineFile:
    """Append-only, crash-safe journal of parked tasks."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)

    def park(self, record: QuarantineRecord) -> None:
        crash_safe_append(self.path, record.to_json(), fsync=True)
        obs_log.warning(
            "quarantine.parked",
            path=str(self.path), task=record.task_id, reason=record.reason,
        )

    def load(self) -> Dict[str, QuarantineRecord]:
        """``{task_id: record}`` — dedup by task id, last record wins.

        Torn or corrupt lines are skipped with a warning (the journal is
        advisory: losing a record re-exposes one poison task to its
        failure cap, nothing worse).
        """
        return {
            record.task_id: record
            for record in JsonlReader(
                self.path, QUARANTINE_SCHEMA, "quarantine.corrupt_record",
                QuarantineRecord.from_doc,
            )
        }

    def task_ids(self) -> List[str]:
        return sorted(self.load())
