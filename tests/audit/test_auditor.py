"""Auditor state machine: levels, counters, payloads, the break hook."""

import pickle

import pytest

from repro.audit import auditor
from repro.audit.auditor import AuditLevel, Auditor
from repro.errors import AuditFault, classify_error
from repro.resilience import faults


def test_levels_parse_and_rank():
    assert AuditLevel.parse("off") is AuditLevel.OFF
    assert AuditLevel.parse("FULL") is AuditLevel.FULL
    assert AuditLevel.parse(AuditLevel.CHEAP) is AuditLevel.CHEAP
    assert AuditLevel.OFF.rank < AuditLevel.CHEAP.rank < AuditLevel.FULL.rank
    with pytest.raises(ValueError):
        AuditLevel.parse("paranoid")


def test_default_is_off_and_gates_are_false():
    a = Auditor()
    assert a.level is AuditLevel.OFF
    assert not a.enabled
    assert not a.full


def test_configure_mirrors_enabled_flag():
    a = Auditor()
    a.configure("cheap")
    assert a.enabled and not a.full
    a.configure("full")
    assert a.enabled and a.full
    a.configure("off")
    assert not a.enabled


def test_passing_check_counts_without_raising():
    a = Auditor(AuditLevel.CHEAP)
    a.check("x.y", True, expected=1, actual=1)
    a.check("x.y", True, expected=1, actual=1)
    a.check("x.z", True, expected=1, actual=1)
    snap = a.snapshot()
    assert snap["checks"] == 3
    assert snap["checks_by_invariant"] == {"x.y": 2, "x.z": 1}
    assert snap["violations"] == 0


def test_two_threads_checking_lose_no_count():
    """The serve daemon audits on its event loop and its executor at once:
    every check is counted, per invariant too."""
    import sys
    import threading

    a = Auditor(AuditLevel.CHEAP)
    threads, checks = 4, 25_000

    def worker():
        for _ in range(checks):
            a.check("x.y", True, expected=1, actual=1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    assert a.checks == threads * checks
    assert a.checks_by_invariant == {"x.y": threads * checks}


def test_failing_check_raises_structured_fault():
    a = Auditor(AuditLevel.CHEAP)
    with pytest.raises(AuditFault) as excinfo:
        a.check(
            "tpu.macs.conservation", False,
            expected=10, actual=9, message="lost a MAC",
            context={"layer": "conv1"},
        )
    fault = excinfo.value
    assert fault.invariant == "tpu.macs.conservation"
    assert fault.expected == 10 and fault.actual == 9
    assert fault.context == {"layer": "conv1"}
    assert "tpu.macs.conservation" in str(fault)
    assert a.violations == 1
    assert a.violation_records[0]["invariant"] == "tpu.macs.conservation"


def test_audit_fault_payload_survives_pickling():
    # Supervised pool workers ship AuditFaults across process boundaries.
    try:
        auditor.configure("cheap")
        auditor.check("a.b", False, expected="e", actual="a")
    except AuditFault as fault:
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.invariant == "a.b"
        assert clone.payload() == fault.payload()
    else:
        pytest.fail("check did not raise")


def test_classify_error_maps_audit_fault():
    fault = AuditFault("boom", invariant="x")
    assert classify_error(fault) is AuditFault


def test_reset_zeroes_counters_but_keeps_level():
    a = Auditor(AuditLevel.FULL)
    a.check("x", True, expected=1, actual=1)
    a.verified_keys.add(("k",))
    a.reset()
    assert a.checks == 0 and a.violations == 0
    assert not a.verified_keys
    assert a.level is AuditLevel.FULL


def test_module_level_helpers_share_global_state():
    auditor.configure("cheap")
    auditor.reset()
    assert auditor.enabled() and not auditor.full()
    auditor.check("m.n", True, expected=0, actual=0)
    assert auditor.snapshot()["checks"] == 1
    assert auditor.get_auditor().checks == 1


def test_audit_break_injection_flips_matching_check():
    auditor.configure("cheap")
    auditor.reset()
    plan = faults.FaultPlan.parse("audit-break=tpu.macs.conservation")
    faults.activate(plan)
    try:
        # Non-matching invariant passes untouched.
        auditor.check("tpu.utilization.range", True, expected=1, actual=1)
        with pytest.raises(AuditFault) as excinfo:
            auditor.check(
                "tpu.macs.conservation", True, expected=1, actual=1
            )
    finally:
        faults.deactivate()
    assert "deliberately broken" in str(excinfo.value)
    assert plan.counters.get("audit_break") == 1


def test_audit_break_any_matches_everything():
    auditor.configure("cheap")
    auditor.reset()
    faults.activate(faults.FaultPlan.parse("audit-break=any"))
    try:
        with pytest.raises(AuditFault):
            auditor.check("whatever.id", True, expected=1, actual=1)
    finally:
        faults.deactivate()


def test_empty_audit_break_spec_rejected():
    with pytest.raises(ValueError):
        faults.FaultPlan.parse("audit-break=")
