"""Full-level differential checks on every engine-priced layer kind.

One verifier (:func:`repro.audit.differential.verify_layer`) checks the
channel-first conv, the GEMM and the multi-MXU conv: the engine against the
per-item oracle run with the same array count, and the served memo entry
against a fresh recomputation.
"""

import dataclasses

import pytest

from repro.audit import auditor
from repro.core.conv_spec import ConvSpec, GemmShape
from repro.errors import AuditFault
from repro.perf.cache import SIM_CACHE, clear_cache, config_key, spec_key
from repro.systolic.config import TPU_V2
from repro.systolic.dual_mxu import simulate_conv_dual_mxu
from repro.systolic.simulator import TPUSim

SPEC = ConvSpec(n=2, c_in=64, h_in=14, w_in=14, c_out=128,
                h_filter=3, w_filter=3, padding=1, name="diff")

DIFFERENTIAL = ("diff.executor-equivalence", "diff.reference-vs-vectorized",
                "diff.cache-coherence")


@pytest.fixture
def fresh_memo():
    clear_cache()
    yield
    clear_cache()


def audited(call):
    auditor.configure("full")
    auditor.reset()
    call()
    return auditor.snapshot()


@pytest.mark.parametrize("arrays", [1, 2, 4])
def test_dual_mxu_is_differentially_audited(fresh_memo, arrays):
    snap = audited(lambda: simulate_conv_dual_mxu(SPEC, arrays=arrays))
    assert snap["violations"] == 0
    assert [snap["checks_by_invariant"].get(name) for name in DIFFERENTIAL] == [1, 1, 1]


def test_conv_and_gemm_share_the_verifier(fresh_memo):
    def run():
        TPUSim().simulate_conv(SPEC)
        TPUSim().simulate_gemm(GemmShape(m=300, n=70, k=150))

    snap = audited(run)
    assert snap["violations"] == 0
    assert [snap["checks_by_invariant"].get(name) for name in DIFFERENTIAL] == [2, 2, 2]


def test_each_key_is_verified_once(fresh_memo):
    def run():
        for _ in range(3):
            simulate_conv_dual_mxu(SPEC, arrays=2)

    snap = audited(run)
    assert snap["checks_by_invariant"]["diff.cache-coherence"] == 1


def test_corrupted_dual_mxu_memo_entry_fails_cache_coherence(fresh_memo):
    """A stale multi-MXU memo entry that the cheap invariants accept (its
    DMA total is off by one cycle) is caught by the differential check."""
    good = simulate_conv_dual_mxu(SPEC, arrays=2)
    key = ("tpu-multi-mxu", config_key(TPU_V2), spec_key(SPEC), 2)
    SIM_CACHE.store(key, dataclasses.replace(good, dma_cycles=good.dma_cycles + 1.0))
    auditor.configure("full")
    auditor.reset()
    with pytest.raises(AuditFault) as excinfo:
        simulate_conv_dual_mxu(SPEC, arrays=2)
    assert excinfo.value.invariant == "diff.cache-coherence"
    assert excinfo.value.context["arrays"] == 2


def test_oversized_schedules_skip_the_reference_but_stay_coherent(fresh_memo, monkeypatch):
    from repro.audit import differential

    monkeypatch.setattr(differential, "DIFFERENTIAL_ITEM_CAP", 1)
    snap = audited(lambda: simulate_conv_dual_mxu(SPEC, arrays=2))
    assert snap["violations"] == 0
    assert "diff.reference-vs-vectorized" not in snap["checks_by_invariant"]
    assert snap["checks_by_invariant"]["diff.cache-coherence"] == 1
    assert auditor.get_auditor().differential_skipped == 1
