"""Fault-plan parsing, determinism, and the memory-model hooks."""

import pytest

from repro.errors import ConfigError, PermanentFault, TransientFault
from repro.memory.dram import HBMConfig, HBMModel
from repro.resilience import faults
from repro.resilience.faults import FaultPlan


@pytest.fixture(autouse=True)
def _no_active_plan():
    faults.deactivate()
    yield
    faults.deactivate()


# ----------------------------------------------------------------- parsing


def test_parse_full_spec():
    plan = FaultPlan.parse(
        "seed=7,crash@1,hang@2:3,flaky@0:2,fatal@4,corrupt-checkpoint@5,"
        "dram-drop=0.25,dram-delay=100"
    )
    assert plan.seed == 7
    assert plan.crash == {1: 1}
    assert plan.hang == {2: 3}
    assert plan.flaky == {0: 2}
    assert plan.fatal == {4}
    assert plan.corrupt_checkpoint == {5}
    assert plan.dram_drop == 0.25
    assert plan.dram_delay_cycles == 100


@pytest.mark.parametrize(
    "spec",
    [
        "explode@1",          # unknown fault kind
        "crash@x",            # non-integer index
        "dram-drop=oops",     # non-numeric parameter
        "dram-drop=1.5",      # probability out of range
        "warp=9",             # unknown parameter
        "sram-latency=2",     # no model reads SRAM latency
        "sram-capacity=0.5",  # nor an SRAM capacity assumption
        "justaword",          # no @ or =
    ],
)
def test_parse_rejects_bad_tokens(spec):
    with pytest.raises(ConfigError):
        FaultPlan.parse(spec)


def test_parse_empty_tokens_are_ignored():
    plan = FaultPlan.parse("crash@0, ,")
    assert plan.crash == {0: 1}


# ---------------------------------------------------------- exception faults


def test_flaky_fires_only_up_to_attempt_budget():
    plan = FaultPlan.parse("flaky@3:2")
    with pytest.raises(TransientFault):
        plan.maybe_raise_fault(3, attempt=1)
    with pytest.raises(TransientFault):
        plan.maybe_raise_fault(3, attempt=2)
    plan.maybe_raise_fault(3, attempt=3)  # exhausted: succeeds
    plan.maybe_raise_fault(0, attempt=1)  # other tasks untouched
    assert plan.counters["flaky"] == 2


def test_fatal_fires_on_every_attempt():
    plan = FaultPlan.parse("fatal@1")
    for attempt in (1, 2, 5):
        with pytest.raises(PermanentFault):
            plan.maybe_raise_fault(1, attempt=attempt)


# ------------------------------------------------------------ memory faults


def test_dram_drop_is_deterministic_under_seed():
    def run(plan):
        return [plan.perturb_dram_cycles(1000.0) for _ in range(64)]

    a = run(FaultPlan.parse("seed=3,dram-drop=0.2,dram-delay=50"))
    b = run(FaultPlan.parse("seed=3,dram-drop=0.2,dram-delay=50"))
    c = run(FaultPlan.parse("seed=4,dram-drop=0.2,dram-delay=50"))
    assert a == b
    assert a != c
    assert any(v == 1050.0 for v in a) and any(v == 1000.0 for v in a)


def test_dram_hook_only_fires_when_active():
    hbm = HBMModel(HBMConfig())
    baseline = hbm.contiguous_cycles(1 << 20)
    assert hbm.contiguous_cycles(1 << 20) == baseline
    plan = faults.activate(FaultPlan.parse("seed=1,dram-drop=1.0,dram-delay=500"))
    assert hbm.contiguous_cycles(1 << 20) == baseline + 500
    assert plan.counters["dram_dropped"] >= 1
    faults.deactivate()
    assert hbm.contiguous_cycles(1 << 20) == baseline


# --------------------------------------------------------- checkpoint faults


def test_corrupt_checkpoint_fires_exactly_once():
    plan = FaultPlan.parse("corrupt-checkpoint@2")
    assert not plan.should_corrupt_checkpoint(0)
    assert plan.should_corrupt_checkpoint(2)
    assert not plan.should_corrupt_checkpoint(2)  # one-shot
    assert plan.counters["checkpoint_corrupted"] == 1


# ----------------------------------------------------------- activation API


def test_activate_deactivate_roundtrip():
    assert faults.get_active() is None
    plan = faults.activate(FaultPlan.parse("seed=9"))
    assert faults.get_active() is plan
    faults.deactivate()
    assert faults.get_active() is None
