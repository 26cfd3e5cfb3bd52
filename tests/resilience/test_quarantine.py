"""Quarantine journal: parked records load back; damaged lines do not."""

import pytest

from repro.resilience.quarantine import QuarantineFile, QuarantineRecord


def _record(task_id):
    return QuarantineRecord(
        task_id=task_id,
        payload={"workload": "AlexNet@4", "quick": True},
        reason="failed 3 attempt(s), 0 lease transfer(s)",
        failures=[{"attempt": 1, "kind": "PermanentFault", "error": "x"}],
    )


@pytest.mark.parametrize("bad", ["[1, 2]", "7", '"x"', "null"])
def test_load_skips_valid_json_that_is_not_a_record(tmp_path, bad):
    quarantine = QuarantineFile(tmp_path / "quarantine.jsonl")
    quarantine.park(_record("a/AlexNet@4"))
    with quarantine.path.open("a") as handle:
        handle.write(bad + "\n")
    quarantine.park(_record("b/AlexNet@4"))
    assert quarantine.load() == {
        "a/AlexNet@4": _record("a/AlexNet@4"),
        "b/AlexNet@4": _record("b/AlexNet@4"),
    }
