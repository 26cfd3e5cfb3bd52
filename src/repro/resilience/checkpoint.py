"""Checkpoint/resume: a crash-safe journal of completed experiment results.

Each completed experiment is journaled as one JSONL record in
``results/<run_id>/checkpoint.jsonl`` keyed by ``(experiment_id,
fingerprint)``, where the fingerprint reuses the structural
:func:`repro.perf.cache.fingerprint` machinery over the quick flag and the
default accelerator configs — the same keys that invalidate memoized
simulations invalidate checkpoints, so a resumed run can never serve a
result priced on a different machine model.

``repro run --resume <run_id>`` loads the journal, skips every journaled
``(experiment, fingerprint)`` pair, and reconstructs their
:class:`~repro.harness.report.ExperimentResult` objects bit-identically
(cell values round-trip through JSON exactly: Python floats are IEEE
doubles both ways, and numpy scalars are converted to their exact Python
equivalents before serialisation).  Records are appended with fsync —
a ``kill -9`` can lose at most the in-flight experiment, and a torn tail
line (or a deliberately corrupted record, see ``corrupt-checkpoint@I``
fault injection) is skipped with a warning rather than poisoning the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from ..harness.report import ExperimentResult, Table
from ..obs import log as obs_log
from .atomic import JsonlReader, crash_safe_append

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointJournal",
    "task_fingerprint",
    "result_to_record",
    "result_from_record",
    "load_journal",
    "journal_path",
]

CHECKPOINT_SCHEMA = 1

#: A journal key: (experiment_id, fingerprint hex digest).
Key = Tuple[str, str]


def journal_path(results_dir, run_id: str) -> pathlib.Path:
    return pathlib.Path(results_dir) / run_id / "checkpoint.jsonl"


def task_fingerprint(experiment_id: str, quick: bool) -> str:
    """Stable hex fingerprint of everything that determines a result.

    Recurses through the default accelerator configs with the simulation
    memo's :func:`~repro.perf.cache.fingerprint`, so any config field
    change — nested HBM/SRAM sub-configs included — invalidates the
    checkpoint exactly when it would invalidate cached timings.
    """
    # Imported lazily: configs pull in the memory substrates, and this
    # module must stay importable before they are.
    from ..gpu.config import V100
    from ..perf.cache import fingerprint
    from ..systolic.config import TPU_V2

    key = (
        CHECKPOINT_SCHEMA,
        experiment_id,
        bool(quick),
        fingerprint(TPU_V2),
        fingerprint(V100),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _jsonify_cell(value: Any) -> Any:
    """A cell value as an exactly-round-tripping JSON scalar.

    numpy scalars are unwrapped via ``.item()`` (``np.float64`` is lossless
    to ``float``); anything else non-JSON-native falls back to ``str``,
    matching the export layer's behaviour.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)  # includes np.float64 (a float subclass)
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonify_cell(item())
        except (TypeError, ValueError):
            pass
    return str(value)


def result_to_record(
    experiment_id: str, fingerprint_hex: str, result: ExperimentResult
) -> Dict[str, Any]:
    """One journal record for a completed experiment."""
    return {
        "schema": CHECKPOINT_SCHEMA,
        "experiment": experiment_id,
        "fingerprint": fingerprint_hex,
        "result": {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "tables": [
                {
                    "title": table.title,
                    "headers": [str(h) for h in table.headers],
                    "rows": [[_jsonify_cell(c) for c in row] for row in table.rows],
                }
                for table in result.tables
            ],
            "notes": [str(n) for n in result.notes],
        },
    }


def result_from_record(record: Dict[str, Any]) -> ExperimentResult:
    """Reconstruct the :class:`ExperimentResult` a record journaled."""
    payload = record["result"]
    result = ExperimentResult(payload["experiment_id"], payload["title"])
    for table in payload["tables"]:
        restored = Table(table["title"], list(table["headers"]))
        for row in table["rows"]:
            restored.rows.append(tuple(row))
        result.tables.append(restored)
    result.notes = list(payload["notes"])
    return result


def _keyed_record(record: Dict[str, Any]) -> Tuple[Key, Dict[str, Any]]:
    key = (record["experiment"], record["fingerprint"])
    record["result"]["experiment_id"]  # shape check
    return key, record


def load_journal(path) -> Tuple[Dict[Key, Dict[str, Any]], int]:
    """Parse a checkpoint journal into ``{(experiment, fingerprint): record}``.

    Corrupt records — torn tails from a crash, or deliberately injected
    corruption — are *skipped with a warning* and counted, never fatal:
    the worst outcome of a bad record is recomputing one experiment.
    Returns ``(records, corrupt_count)``.
    """
    reader = JsonlReader(
        path, CHECKPOINT_SCHEMA, "checkpoint.corrupt_record", _keyed_record
    )
    return dict(reader), reader.skipped


class CheckpointJournal:
    """Appends completed-experiment records durably (fsync per record)."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.appended = 0

    def append(self, record: Dict[str, Any], corrupt: bool = False) -> None:
        """Journal one record; ``corrupt=True`` tears it (fault injection)."""
        line = json.dumps(record, sort_keys=True)
        if corrupt:
            line = line[: max(1, len(line) // 2)]
        crash_safe_append(self.path, line, fsync=True)
        self.appended += 1
        obs_log.debug(
            "checkpoint.appended",
            path=str(self.path), experiment=record.get("experiment"),
            corrupt=corrupt,
        )


@dataclasses.dataclass
class ResumeState:
    """What a ``--resume`` load found: hits to skip, and bookkeeping."""

    records: Dict[Key, Dict[str, Any]]
    corrupt: int = 0

    def hit(self, experiment_id: str, fingerprint_hex: str) -> Optional[ExperimentResult]:
        record = self.records.get((experiment_id, fingerprint_hex))
        if record is None:
            return None
        return result_from_record(record)


def load_resume_state(path) -> ResumeState:
    records, corrupt = load_journal(path)
    return ResumeState(records=records, corrupt=corrupt)


__all__ += ["ResumeState", "load_resume_state"]
