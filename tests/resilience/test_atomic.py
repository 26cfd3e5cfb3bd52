"""Crash-safe filesystem primitives."""

import json
import os

import pytest

from repro.obs import log as obs_log
from repro.resilience.atomic import (
    JsonlReader,
    atomic_write_bytes,
    atomic_write_text,
    crash_safe_append,
)


def test_atomic_write_creates_file_and_parents(tmp_path):
    target = tmp_path / "deep" / "nested" / "artifact.json"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"


def test_atomic_write_replaces_existing_content(tmp_path):
    target = tmp_path / "artifact.txt"
    target.write_text("old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "artifact.txt"
    atomic_write_text(target, "payload")
    atomic_write_text(target, "payload2")
    assert os.listdir(tmp_path) == ["artifact.txt"]


def test_atomic_write_bytes_roundtrip(tmp_path):
    target = tmp_path / "blob.bin"
    atomic_write_bytes(target, b"\x00\x01\xff")
    assert target.read_bytes() == b"\x00\x01\xff"


def test_atomic_write_cleans_up_on_failure(tmp_path):
    target = tmp_path / "artifact.txt"
    with pytest.raises(TypeError):
        atomic_write_bytes(target, "not bytes")  # os.write rejects str
    assert os.listdir(tmp_path) == []


def test_crash_safe_append_builds_a_journal(tmp_path):
    journal = tmp_path / "sub" / "journal.jsonl"
    crash_safe_append(journal, "one")
    crash_safe_append(journal, "two\n")
    assert journal.read_text() == "one\ntwo\n"


def test_crash_safe_append_without_fsync(tmp_path):
    journal = tmp_path / "journal.jsonl"
    crash_safe_append(journal, "line", fsync=False)
    assert journal.read_text() == "line\n"


def test_jsonl_reader_skips_counts_and_warns_on_every_bad_line(
    tmp_path, monkeypatch
):
    captured = []
    monkeypatch.setattr(obs_log.get_state(), "capture", captured)
    path = tmp_path / "ledger.jsonl"
    lines = [
        json.dumps({"schema": 1, "n": 1}),
        '{"schema": 1, "n": ',  # torn tail
        "[1, 2]", "7", '"x"', "null",  # valid JSON, not an object
        json.dumps({"schema": 2, "n": 2}),  # foreign schema
        json.dumps({"schema": 1}),  # rejected by the parse
        "",
        json.dumps({"schema": 1, "n": 3}),
    ]
    path.write_text("\n".join(lines) + "\n")
    reader = JsonlReader(path, 1, "test.corrupt_record", lambda doc: doc["n"])
    assert list(reader) == [1, 3]
    assert reader.skipped == 7
    warned = [r for r in captured if r["event"] == "test.corrupt_record"]
    assert [r["line"] for r in warned] == [2, 3, 4, 5, 6, 7, 8]
    assert list(reader) == [1, 3] and reader.skipped == 7  # re-iterable
    assert list(JsonlReader(tmp_path / "absent.jsonl", 1, "x", dict)) == []
