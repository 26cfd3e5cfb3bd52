"""Checkpoint journal: round-trip fidelity, corruption handling, keys."""

import json

from repro.harness.runner import run_experiment
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointJournal,
    journal_path,
    load_journal,
    load_resume_state,
    result_from_record,
    result_to_record,
    task_fingerprint,
)


def test_journal_path_shape(tmp_path):
    path = journal_path(tmp_path, "run-1")
    assert path == tmp_path / "run-1" / "checkpoint.jsonl"


def test_fingerprint_is_stable_and_keyed():
    a = task_fingerprint("table2", quick=True)
    assert a == task_fingerprint("table2", quick=True)
    assert a != task_fingerprint("table2", quick=False)
    assert a != task_fingerprint("fig4", quick=True)


def test_result_roundtrips_bit_identically(tmp_path):
    result = run_experiment("table2", quick=True)
    record = result_to_record("table2", task_fingerprint("table2", True), result)
    # Through JSON, as the journal stores it.
    restored = result_from_record(json.loads(json.dumps(record)))
    assert restored.render() == result.render()
    assert restored.experiment_id == result.experiment_id
    assert [t.rows for t in restored.tables] == [
        [tuple(row) for row in t.rows] for t in result.tables
    ]


def test_journal_append_and_resume_hit(tmp_path):
    result = run_experiment("table2", quick=True)
    fp = task_fingerprint("table2", True)
    path = journal_path(tmp_path, "run-1")
    journal = CheckpointJournal(path)
    journal.append(result_to_record("table2", fp, result))
    assert journal.appended == 1

    state = load_resume_state(path)
    assert state.corrupt == 0
    hit = state.hit("table2", fp)
    assert hit is not None and hit.render() == result.render()
    # A different fingerprint (config drift) must miss.
    assert state.hit("table2", "0" * 16) is None


def test_corrupt_records_are_skipped_with_warning(tmp_path):
    result = run_experiment("table2", quick=True)
    fp = task_fingerprint("table2", True)
    path = journal_path(tmp_path, "run-1")
    journal = CheckpointJournal(path)
    journal.append(result_to_record("table2", fp, result))
    with path.open("a") as handle:
        handle.write('{"schema": 1, "experiment": "fig4", "trunc\n')
        handle.write("not json at all\n")
        for text in ("[1, 2]", "7", '"x"', "null"):  # valid JSON, not a record
            handle.write(text + "\n")
    records, corrupt = load_journal(path)
    assert corrupt == 6
    assert set(records) == {("table2", fp)}


def test_injected_corruption_tears_the_record(tmp_path):
    result = run_experiment("table2", quick=True)
    fp = task_fingerprint("table2", True)
    path = journal_path(tmp_path, "run-1")
    journal = CheckpointJournal(path)
    journal.append(result_to_record("table2", fp, result), corrupt=True)
    records, corrupt = load_journal(path)
    assert records == {} and corrupt == 1


def test_unknown_schema_counts_as_corrupt(tmp_path):
    path = tmp_path / "checkpoint.jsonl"
    path.write_text(
        json.dumps({"schema": CHECKPOINT_SCHEMA + 1, "experiment": "x"}) + "\n"
    )
    records, corrupt = load_journal(path)
    assert records == {} and corrupt == 1


def test_missing_journal_is_empty_not_fatal(tmp_path):
    records, corrupt = load_journal(tmp_path / "absent.jsonl")
    assert records == {} and corrupt == 0
