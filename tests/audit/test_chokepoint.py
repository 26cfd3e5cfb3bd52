"""One pricing chokepoint per substrate: every answer is audited and traced.

Each entry point that produces a :class:`~repro.systolic.simulator.
LayerResult` publishes it through the simulator's shared tail
(:func:`repro.systolic.simulator.finish`), so every call must show up both
in the auditor's check counts and as a layer record in the metrics
registry, under its own invariant prefix and trace source.  The memoized
paths are also differentially audited: a corrupt memo entry that the cheap
invariants accept is caught under ``--audit full``.  Every GPU timing
model answers through one tail too
(:func:`repro.gpu.blocked_gemm.price_kernel`): a miss and a hit are each
audited and recorded as one kernel, a corrupt entry fails
``diff.cache-coherence``, and same-shape layers share one entry.
"""

import dataclasses

import pytest

from repro.audit import auditor
from repro.core.conv_spec import ConvSpec, GemmShape
from repro.core.sparsity import PositionMask
from repro.errors import AuditFault
from repro.gpu import (
    V100,
    ChannelFirstGPUResult,
    KernelTime,
    channel_first_conv_time,
    channel_last_conv_time,
    cudnn_conv_time,
    deformable_conv_time_channel_first,
    deformable_conv_time_fallback,
    explicit_conv_time,
    gemm_kernel_time,
    im2col_transform_time,
)
from repro.gpu.channel_first import ADDRESSING_OVERHEAD as CF_OVERHEAD
from repro.gpu.channel_last import ADDRESSING_OVERHEAD as CL_OVERHEAD
from repro.perf.cache import SIM_CACHE, clear_cache, config_key, spec_key
from repro.systolic.channel_last_schedule import simulate_conv_channel_last
from repro.systolic.config import TPU_V2
from repro.systolic.dual_mxu import simulate_conv_dual_mxu
from repro.systolic.explicit_schedule import simulate_conv_explicit_tpu
from repro.systolic.network_scheduler import simulate_network_resident
from repro.systolic.simulator import TPUSim
from repro.systolic.sparse_schedule import simulate_conv_sparse
from repro.trace import tracer as trace
from repro.trace.metrics import MetricsRegistry, set_registry

SPEC = ConvSpec(n=2, c_in=64, h_in=14, w_in=14, c_out=64,
                h_filter=3, w_filter=3, padding=1, name="probe")
#: Two chained layers: the first keeps its output resident, the second
#: reads its input from the vector memories.
CHAIN = [SPEC, dataclasses.replace(SPEC, name="next")]
MASK = PositionMask(SPEC, (0, 2, 4, 6, 8))
SHAPE = GemmShape(m=256, n=64, k=96)

#: entry point -> (trace source, its MAC-conservation invariant id, call)
ENTRY_POINTS = {
    "TPUSim.simulate_conv": (
        "tpu.conv", "tpu.macs.conservation", lambda: TPUSim().simulate_conv(SPEC)
    ),
    # After simulate_conv, so the layer is warm and the lookup hits.
    "TPUSim.lookup_conv": (
        "tpu.conv", "tpu.macs.conservation", lambda: TPUSim().lookup_conv(SPEC)
    ),
    "TPUSim.simulate_gemm": (
        "tpu.gemm", "tpu.gemm.macs.conservation", lambda: TPUSim().simulate_gemm(SHAPE)
    ),
    "TPUSim.simulate_conv_batch": (
        "tpu.conv", "tpu.macs.conservation",
        lambda: TPUSim().simulate_conv_batch(CHAIN),
    ),
    "TPUSim.simulate_gemm_batch": (
        "tpu.gemm", "tpu.gemm.macs.conservation",
        lambda: TPUSim().simulate_gemm_batch([SHAPE, SHAPE]),
    ),
    "TPUSim.simulate_network": (
        "tpu.conv", "tpu.macs.conservation",
        lambda: TPUSim().simulate_network("chain", CHAIN),
    ),
    "simulate_conv_dual_mxu": (
        "tpu.dual_mxu", "tpu.dual.macs.conservation",
        lambda: simulate_conv_dual_mxu(SPEC, arrays=2),
    ),
    "simulate_conv_sparse": (
        "tpu.sparse", "tpu.sparse.macs.conservation",
        lambda: simulate_conv_sparse(SPEC, MASK),
    ),
    "simulate_conv_explicit_tpu": (
        "tpu.explicit", "tpu.gemm.macs.conservation",
        lambda: simulate_conv_explicit_tpu(SPEC),
    ),
    "simulate_network_resident": (
        "tpu.resident", "tpu.resident.macs.conservation",
        lambda: simulate_network_resident("chain", CHAIN),
    ),
    "simulate_conv_channel_last": (
        "tpu.channel_last", "tpu.channel_last.macs.conservation",
        lambda: simulate_conv_channel_last(SPEC, TPU_V2),
    ),
}


#: GPU entry point -> (trace source, the model's own key arguments, call).
#: Each call prices SPEC (or its GEMM shape) with the default arguments.
GPU_ENTRY_POINTS = {
    "channel_first_conv_time": (
        "gpu.channel_first", (True, CF_OVERHEAD),
        lambda spec: channel_first_conv_time(spec, V100),
    ),
    "channel_last_conv_time": (
        "gpu.channel_last", (CL_OVERHEAD,),
        lambda spec: channel_last_conv_time(spec, V100),
    ),
    "cudnn_conv_time": (
        "gpu.cudnn", (), lambda spec: cudnn_conv_time(spec, V100),
    ),
    "explicit_conv_time": (
        "gpu.explicit", (), lambda spec: explicit_conv_time(spec, V100),
    ),
    "im2col_transform_time": (
        "gpu.im2col_transform", (),
        lambda spec: im2col_transform_time(spec, V100),
    ),
    "gemm_kernel_time": (
        "gpu.gemm", ("gemm",),
        lambda spec: gemm_kernel_time(spec.gemm_shape(), V100),
    ),
    "deformable_conv_time_channel_first": (
        "gpu.deformable_channel_first", (),
        lambda spec: deformable_conv_time_channel_first(spec, V100),
    ),
    "deformable_conv_time_fallback": (
        "gpu.deformable_fallback", (),
        lambda spec: deformable_conv_time_fallback(spec, V100),
    ),
}


def _gpu_key(name):
    """The memo key the GPU tail files ``name``'s answer for SPEC under."""
    source, args, _ = GPU_ENTRY_POINTS[name]
    problem = SPEC.gemm_shape() if name == "gemm_kernel_time" else SPEC
    return (source, config_key(V100), spec_key(problem)) + args


@pytest.fixture
def fresh_memo():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def traced_registry(fresh_memo):
    """Tracing on against a private tracer and registry; restored after."""
    previous_tracer = trace.set_tracer(trace.Tracer(enabled=True))
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous_registry)
        trace.set_tracer(previous_tracer)


def test_every_layer_result_entry_point_is_audited_and_traced(traced_registry):
    auditor.configure("cheap")
    auditor.reset()
    seen = {}
    for name, (_, invariant, call) in ENTRY_POINTS.items():
        checks = auditor.get_auditor().checks
        conservation = auditor.get_auditor().checks_by_invariant.get(invariant, 0)
        recorded = len(traced_registry.layers)
        call()
        seen[name] = (
            auditor.get_auditor().checks > checks,
            auditor.get_auditor().checks_by_invariant.get(invariant, 0) > conservation,
            {record.source for record in traced_registry.layers[recorded:]},
        )
    assert auditor.get_auditor().violations == 0
    assert seen == {
        name: (True, True, {source})
        for name, (source, _, _) in ENTRY_POINTS.items()
    }


def _corrupt_then_audit(call, key, corrupt):
    """Price once unaudited, corrupt the memo entry, price again under
    ``--audit full``; returns the fault the second call must raise."""
    call()
    found, good = SIM_CACHE.lookup(key)
    assert found
    SIM_CACHE.store(key, corrupt(good))
    auditor.configure("full")
    auditor.reset()
    with pytest.raises(AuditFault) as excinfo:
        call()
    return excinfo.value


def _off_by_one_dma(result):
    # Cheap invariants accept it: the serial-sum bound only grows.
    return dataclasses.replace(result, dma_cycles=result.dma_cycles + 1.0)


def test_corrupt_sparse_memo_entry_is_caught(fresh_memo):
    key = ("tpu-sparse", config_key(TPU_V2), spec_key(SPEC), MASK.kept)
    fault = _corrupt_then_audit(
        lambda: simulate_conv_sparse(SPEC, MASK), key, _off_by_one_dma
    )
    assert fault.invariant == "diff.cache-coherence"


def test_corrupt_explicit_memo_entry_is_caught(fresh_memo):
    key = ("tpu-explicit", config_key(TPU_V2), spec_key(SPEC))
    fault = _corrupt_then_audit(
        lambda: simulate_conv_explicit_tpu(SPEC),
        key,
        lambda result: dataclasses.replace(result, gemm=_off_by_one_dma(result.gemm)),
    )
    assert fault.invariant == "diff.cache-coherence"


def test_corrupt_residency_memo_entry_is_caught(fresh_memo):
    # The chain's first layer: input from DRAM, output kept resident.
    key = ("tpu-resident", config_key(TPU_V2), spec_key(SPEC), False, True)
    fault = _corrupt_then_audit(
        lambda: simulate_network_resident("chain", CHAIN), key, _off_by_one_dma
    )
    assert fault.invariant == "diff.cache-coherence"


def test_new_paths_pass_the_full_differential(fresh_memo):
    auditor.configure("full")
    auditor.reset()
    simulate_conv_sparse(SPEC, MASK)
    simulate_conv_explicit_tpu(SPEC)
    simulate_network_resident("chain", CHAIN)
    snap = auditor.snapshot()
    assert snap["violations"] == 0
    # One verified key each: sparse, explicit, and both resident arms.
    for invariant in ("diff.executor-equivalence", "diff.reference-vs-vectorized",
                      "diff.cache-coherence"):
        assert snap["checks_by_invariant"][invariant] == 4


def test_every_gpu_entry_point_audits_and_records_a_miss_and_a_hit(traced_registry):
    auditor.configure("cheap")
    auditor.reset()
    seen = {}
    for name, (_, _, call) in GPU_ENTRY_POINTS.items():
        for attempt in ("miss", "hit"):
            checks = auditor.get_auditor().checks
            hits = SIM_CACHE.hits
            recorded = len(traced_registry.kernels)
            call(SPEC)
            seen[name, attempt] = (
                SIM_CACHE.hits - hits,
                auditor.get_auditor().checks > checks,
                [record.source for record in traced_registry.kernels[recorded:]],
            )
    assert auditor.get_auditor().violations == 0
    assert seen == {
        (name, attempt): (int(attempt == "hit"), True, [source])
        for name, (source, _, _) in GPU_ENTRY_POINTS.items()
        for attempt in ("miss", "hit")
    }


def _slower(value):
    """``seconds`` +1%: a slower kernel passes every cheap invariant."""
    if isinstance(value, KernelTime):
        return dataclasses.replace(value, seconds=value.seconds * 1.01)
    part = "kernel" if isinstance(value, ChannelFirstGPUResult) else "gemm"
    return dataclasses.replace(value, **{part: _slower(getattr(value, part))})


@pytest.mark.parametrize("name", sorted(GPU_ENTRY_POINTS))
def test_corrupt_gpu_memo_entry_is_caught(fresh_memo, name):
    call = GPU_ENTRY_POINTS[name][2]
    fault = _corrupt_then_audit(lambda: call(SPEC), _gpu_key(name), _slower)
    assert fault.invariant == "diff.cache-coherence"


def test_gpu_models_share_one_entry_across_layer_names(fresh_memo):
    renamed = dataclasses.replace(SPEC, name="renamed")
    entries = {}
    for name, (_, _, call) in GPU_ENTRY_POINTS.items():
        clear_cache()
        call(SPEC)
        call(renamed)
        entries[name] = len(SIM_CACHE)
        assert SIM_CACHE.lookup(_gpu_key(name))[0], name
    assert entries == dict.fromkeys(GPU_ENTRY_POINTS, 1)
    # The measurement noise is still each layer's own.
    assert cudnn_conv_time(SPEC, V100).seconds != cudnn_conv_time(renamed, V100).seconds
