"""Float-drift guards at the simulator boundaries (always on, zero tolerance).

Cycle counts are legitimately fractional (bandwidth division), but MAC
totals are integral by construction: any fractional MAC count means an
upstream computation drifted into float arithmetic and would silently
round.  These guards fail loudly instead, and exact ``int`` arithmetic is
regression-tested at magnitudes where ``float64`` can no longer represent
every integer (>= 2**53).
"""

import pytest

from repro.errors import AuditFault
from repro.gpu.config import V100
from repro.gpu.tensor_core import padded_macs, tc_gemm_compute_seconds
from repro.systolic.scheduler import ScheduleResult
from repro.systolic.config import TPU_V2
from repro.systolic.simulator import _boundary_macs, layer_result


def test_boundary_macs_passes_ints_through_exactly():
    # 2**53 + 1 is the first integer float64 cannot represent; the boundary
    # must keep it exact (no roundtrip through float).
    huge = 2**53 + 1
    assert _boundary_macs(huge, "big-layer") == huge
    assert isinstance(_boundary_macs(huge, "big-layer"), int)
    assert _boundary_macs(7.0, "whole-float") == 7


def test_boundary_macs_rejects_fractional_totals():
    with pytest.raises(AuditFault) as excinfo:
        _boundary_macs(1000.5, "drifty-layer")
    assert excinfo.value.invariant == "tpu.macs.integral"
    assert excinfo.value.actual == 1000.5


def test_layer_result_keeps_huge_mac_totals_exact():
    # A synthetic outcome whose MAC total sits past 2**53: the published
    # LayerResult must carry the exact integer, not a float-rounded one.
    huge = 2**53 + 1
    outcome = ScheduleResult(
        total_cycles=1e9, compute_cycles=9e8, dma_cycles=3e8,
        exposed_dma_cycles=1e8, items=10, macs=huge,
    )
    result = layer_result("near-2^53", huge, outcome, TPU_V2)
    assert result.macs == huge
    assert isinstance(result.macs, int)
    assert result.tflops > 0 and result.utilization > 0


def test_layer_result_rejects_non_finite_cycles():
    outcome = ScheduleResult(
        total_cycles=float("inf"), compute_cycles=1.0, dma_cycles=1.0,
        exposed_dma_cycles=0.0, items=1, macs=100,
    )
    with pytest.raises(AuditFault) as excinfo:
        layer_result("inf-layer", 100, outcome, TPU_V2)
    assert excinfo.value.invariant == "tpu.cycles.finite"


def test_tensor_core_executed_macs_is_exact_int():
    compute = tc_gemm_compute_seconds(1000, 576, 128, V100)
    assert isinstance(compute.executed_macs, int)
    # Executed volume is tile-padded, never less than the best-tiling padded
    # volume can shrink below the logical problem.
    assert compute.executed_macs >= 1000 * 576 * 128
    assert compute.seconds > 0


def test_padded_macs_covers_logical_volume():
    assert padded_macs(100, 100, 100, V100) >= 100**3
