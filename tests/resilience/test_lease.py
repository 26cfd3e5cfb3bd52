"""Lease protocol unit tests: acquire, renew, steal, fence, release."""

from repro.resilience.lease import (
    LeaseRecord,
    read_lease,
    release,
    renew,
    try_acquire,
)


def _path(tmp_path):
    return tmp_path / "task.lease"


def test_fresh_acquire_is_generation_one(tmp_path):
    lease = try_acquire(_path(tmp_path), "w0", ttl_s=30.0, now=100.0)
    assert lease is not None
    assert lease.owner == "w0" and lease.generation == 1
    assert lease.expires_at == 130.0
    assert read_lease(_path(tmp_path)) == lease


def test_contested_acquire_fails_while_unexpired(tmp_path):
    try_acquire(_path(tmp_path), "w0", ttl_s=30.0, now=100.0)
    assert try_acquire(_path(tmp_path), "w1", ttl_s=30.0, now=110.0) is None


def test_reacquire_by_owner_is_reentrant(tmp_path):
    first = try_acquire(_path(tmp_path), "w0", ttl_s=30.0, now=100.0)
    again = try_acquire(_path(tmp_path), "w0", ttl_s=30.0, now=110.0)
    assert again == first  # same record, no generation bump


def test_expired_lease_is_stolen_with_generation_bump(tmp_path):
    try_acquire(_path(tmp_path), "dead", ttl_s=10.0, now=100.0)
    stolen = try_acquire(_path(tmp_path), "survivor", ttl_s=30.0, now=111.0)
    assert stolen is not None
    assert stolen.owner == "survivor" and stolen.generation == 2
    # A second steal keeps counting transfers — the fencing evidence the
    # coordinator's poison verdict reads.
    third = try_acquire(_path(tmp_path), "w3", ttl_s=30.0, now=200.0)
    assert third.generation == 3


def test_renew_extends_only_the_owner(tmp_path):
    try_acquire(_path(tmp_path), "w0", ttl_s=10.0, now=100.0)
    renewed = renew(_path(tmp_path), "w0", ttl_s=50.0, now=105.0)
    assert renewed is not None and renewed.expires_at == 155.0
    assert renewed.generation == 1
    assert renew(_path(tmp_path), "intruder", ttl_s=50.0, now=105.0) is None


def test_fenced_owner_cannot_renew_after_steal(tmp_path):
    try_acquire(_path(tmp_path), "sleeper", ttl_s=1.0, now=100.0)
    try_acquire(_path(tmp_path), "survivor", ttl_s=30.0, now=200.0)
    # The hung sleeper wakes up: its lease is gone, renew refuses.
    assert renew(_path(tmp_path), "sleeper", ttl_s=30.0, now=201.0) is None


def test_release_only_by_owner(tmp_path):
    try_acquire(_path(tmp_path), "w0", ttl_s=30.0, now=100.0)
    assert not release(_path(tmp_path), "intruder")
    assert release(_path(tmp_path), "w0")
    assert read_lease(_path(tmp_path)) is None
    assert not release(_path(tmp_path), "w0")  # already gone


def test_read_lease_tolerates_missing_and_garbage(tmp_path):
    assert read_lease(_path(tmp_path)) is None
    _path(tmp_path).write_text("{not json")
    assert read_lease(_path(tmp_path)) is None
    _path(tmp_path).write_text('{"schema": 99}')
    assert read_lease(_path(tmp_path)) is None
    for text in ("[1, 2]", "7", '"x"', "null"):  # valid JSON, not a record
        _path(tmp_path).write_text(text)
        assert read_lease(_path(tmp_path)) is None


def test_record_json_roundtrip():
    record = LeaseRecord(
        owner="w1.3", generation=2, acquired_at=10.0, expires_at=40.0
    )
    assert LeaseRecord.from_json(record.to_json()) == record
    assert record.expired(now=40.0) and not record.expired(now=39.9)
