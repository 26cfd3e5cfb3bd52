"""Bit-exactness gate: the schedule engine == the per-item scalar oracle.

The contract (DESIGN.md, "Performance architecture") is equality to the
last float bit — the exported results are compared textually at full
precision, so `pytest.approx` would not be good enough.  Every comparison
here is `==` / `np.array_equal`, and every one pits the engine
(:mod:`repro.perf.batch`, a single layer being a batch of one) directly
against the per-item builders and the scalar fold
:func:`repro.systolic.scheduler.execute_schedule`.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core.conv_spec import ConvSpec, GemmShape
from repro.core.layouts import Layout
from repro.core.sparsity import PositionMask
from repro.core.tiling import tpu_multi_tile_policy
from repro.perf import schedule_arrays
from repro.perf.batch import conv_schedule_batch, gemm_schedule_batch
from repro.perf.schedule_arrays import (
    ScheduleArrays,
    execute_schedule_arrays,
    pipeline_free_times_segmented,
)
from repro.systolic.config import TPU_V2
from repro.systolic.dma import FillEngine
from repro.systolic.network_scheduler import _ResidentInputEngine
from repro.systolic.scheduler import (
    WorkItem,
    channel_first_schedule,
    execute_schedule,
    gemm_schedule,
)
from repro.systolic.sparse_schedule import (
    _masked_groups,
    sparse_channel_first_schedule,
)

CONFIGS = [
    TPU_V2,
    dataclasses.replace(TPU_V2, weight_double_buffer=False),
    dataclasses.replace(TPU_V2, array_rows=64, array_cols=64, num_vector_memories=64),
]


def random_conv_specs(count: int, seed: int = 1234):
    """Valid random ConvSpecs spanning the shapes the paper sweeps."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        h_in = rng.choice([7, 14, 27, 28, 56])
        h_filter = rng.choice([1, 3, 5, 7])
        stride = rng.choice([1, 1, 2])
        dilation = rng.choice([1, 1, 2])
        padding = rng.choice([0, 1, h_filter // 2])
        effective = dilation * (h_filter - 1) + 1
        if h_in + 2 * padding < effective:
            continue
        specs.append(
            ConvSpec(
                n=rng.choice([1, 2, 4]),
                c_in=rng.choice([3, 16, 64, 128, 256]),
                h_in=h_in,
                w_in=h_in,
                c_out=rng.choice([16, 64, 128, 256]),
                h_filter=h_filter,
                w_filter=h_filter,
                stride=stride,
                padding=padding,
                dilation=dilation,
            )
        )
    return specs


def random_gemm_shapes(count: int, seed: int = 99):
    rng = random.Random(seed)
    return [
        GemmShape(
            m=rng.randrange(1, 4000),
            n=rng.randrange(1, 600),
            k=rng.randrange(1, 600),
        )
        for _ in range(count)
    ]


def engine_conv_schedule(spec, config, layout=Layout.NHWC, engine=None):
    """One conv layer through the engine's builder, as a batch of one."""
    group = tpu_multi_tile_policy(spec, config.array_rows)
    return conv_schedule_batch([(spec, group)], config, engine, layout=layout)[0]


def assert_arrays_equal(vectorized: ScheduleArrays, reference: ScheduleArrays):
    assert np.array_equal(vectorized.gemm_cycles, reference.gemm_cycles)
    assert np.array_equal(vectorized.fill_cycles, reference.fill_cycles)
    assert np.array_equal(vectorized.drain_cycles, reference.drain_cycles)
    assert np.array_equal(vectorized.macs, reference.macs)


def assert_results_equal(vectorized, reference):
    assert vectorized.total_cycles == reference.total_cycles
    assert vectorized.compute_cycles == reference.compute_cycles
    assert vectorized.dma_cycles == reference.dma_cycles
    assert vectorized.exposed_dma_cycles == reference.exposed_dma_cycles
    assert vectorized.items == reference.items
    assert vectorized.macs == reference.macs


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_conv_schedules_bit_identical(config):
    for spec in random_conv_specs(25):
        for layout in (Layout.NHWC, Layout.NCHW):
            items = channel_first_schedule(spec, config, layout=layout)
            schedule = engine_conv_schedule(spec, config, layout=layout)
            assert_arrays_equal(schedule, ScheduleArrays.from_work_items(items))
            assert_results_equal(
                execute_schedule_arrays(schedule), execute_schedule(items)
            )


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_gemm_schedules_bit_identical(config):
    for shape in random_gemm_shapes(25):
        items = gemm_schedule(shape, config)
        [schedule] = gemm_schedule_batch([shape], config)
        assert_arrays_equal(schedule, ScheduleArrays.from_work_items(items))
        assert_results_equal(execute_schedule_arrays(schedule), execute_schedule(items))


@pytest.mark.parametrize("arrays", [1, 2, 4])
def test_multi_array_executor_bit_identical(arrays):
    for spec in random_conv_specs(8, seed=7):
        items = channel_first_schedule(spec, TPU_V2)
        schedule = engine_conv_schedule(spec, TPU_V2)
        assert_results_equal(
            execute_schedule_arrays(schedule, arrays), execute_schedule(items, arrays)
        )


def test_scalar_fold_round_robins_over_arrays():
    """The oracle's multi-array semantics, worked by hand: items alternate
    arrays, share the read channel, and the exposure identity divides the
    compute by the array count."""
    items = [
        WorkItem("a", gemm_cycles=10.0, fill_cycles=2.0, drain_cycles=0.0, macs=1),
        WorkItem("b", gemm_cycles=10.0, fill_cycles=2.0, drain_cycles=0.0, macs=1),
        WorkItem("c", gemm_cycles=10.0, fill_cycles=2.0, drain_cycles=3.0, macs=1),
    ]
    # Array 0 runs a (2..12) then c (12..22); array 1 runs b (4..14).
    one, two = execute_schedule(items, 1), execute_schedule(items, 2)
    assert one.total_cycles == 2.0 + 30.0 + 3.0
    assert two.total_cycles == 22.0 + 3.0
    assert two.compute_cycles == 30.0
    assert two.exposed_dma_cycles == 25.0 - 30.0 / 2


def test_pipeline_free_times_matches_fold(monkeypatch):
    """One chain through the segmented solver equals the sequential fold,
    both on the NumPy path (forced for every length) and with short chains
    left to the fold."""
    rng = np.random.default_rng(5)
    for trial in range(60):
        monkeypatch.setattr(schedule_arrays, "_FOLD_MAX_ITEMS", 0 if trial % 2 else 64)
        n = int(rng.integers(1, 400))
        # Mix of idle gaps (restarts) and back-to-back items.
        s = np.cumsum(rng.exponential(10.0, size=n)) * rng.choice([0.5, 1.0, 2.0])
        a = rng.exponential(15.0, size=n)
        out = pipeline_free_times_segmented(s, a, np.array([0]))
        prev = 0.0
        for i in range(n):
            prev = max(prev, float(s[i])) + float(a[i])
            assert out[i] == prev


def test_without_drains_matches_zeroed_reference():
    spec = random_conv_specs(1, seed=3)[0]
    items = channel_first_schedule(spec, TPU_V2)
    zeroed = [dataclasses.replace(i, drain_cycles=0.0) for i in items]
    schedule = engine_conv_schedule(spec, TPU_V2).without_drains()
    assert_results_equal(execute_schedule_arrays(schedule), execute_schedule(zeroed))


def test_resident_input_engine_bit_identical():
    """The residency scheduler's engine (free IFMap fills) reaches the
    builder through the pricer's fill calls, with and without drains."""
    for spec in random_conv_specs(6, seed=21):
        engine = _ResidentInputEngine(TPU_V2, FillEngine(TPU_V2).hbm)
        items = channel_first_schedule(spec, TPU_V2, engine)
        schedule = engine_conv_schedule(spec, TPU_V2, engine=engine)
        assert_arrays_equal(schedule, ScheduleArrays.from_work_items(items))
        assert_results_equal(execute_schedule_arrays(schedule), execute_schedule(items))
        zeroed = [dataclasses.replace(i, drain_cycles=0.0) for i in items]
        assert_results_equal(
            execute_schedule_arrays(schedule.without_drains()), execute_schedule(zeroed)
        )


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_sparse_groups_bit_identical(config):
    """Masked tile groups (the sparse path) build what the per-item sparse
    builder emits, alone and batched beside default-grouped jobs."""
    rng = random.Random(17)
    specs = [s for s in random_conv_specs(30, seed=9) if s.positions > 1][:8]
    for spec in specs:
        keep = sorted(rng.sample(range(spec.positions), rng.randrange(1, spec.positions)))
        mask = PositionMask(spec, tuple(keep))
        group = tpu_multi_tile_policy(spec, config.array_rows)
        items = sparse_channel_first_schedule(spec, mask, config)
        masked = _masked_groups(spec, mask, group)
        schedules = conv_schedule_batch(
            [(spec, group), (spec, group)], config, groups=[masked, None]
        )
        assert_arrays_equal(schedules[0], ScheduleArrays.from_work_items(items))
        assert_results_equal(execute_schedule_arrays(schedules[0]), execute_schedule(items))
        dense = channel_first_schedule(spec, config, group_size=group)
        assert_arrays_equal(schedules[1], ScheduleArrays.from_work_items(dense))


# ---------------------------------------------------------------------------
# Differential tests: every path into TPUSim — cold cache, cache hit (via a
# renamed twin spec), memoization disabled, tracing enabled, and the per-item
# reference executor — must produce identical LayerResult numbers.
# ---------------------------------------------------------------------------


def assert_layer_matches_reference(layer, reference):
    assert layer.cycles == reference.total_cycles
    assert layer.compute_cycles == reference.compute_cycles
    assert layer.dma_cycles == reference.dma_cycles
    assert layer.exposed_dma_cycles == reference.exposed_dma_cycles


@pytest.fixture
def pristine_cache():
    from repro.perf.cache import clear_cache, set_cache_enabled

    clear_cache()
    yield
    set_cache_enabled(True)
    clear_cache()


def test_conv_simulator_paths_identical_over_fuzz_corpus(pristine_cache):
    from repro.perf.cache import clear_cache, set_cache_enabled
    from repro.systolic.simulator import TPUSim
    from repro.trace import tracer as trace

    sim = TPUSim()
    for spec in random_conv_specs(12, seed=2025):
        clear_cache()
        cold = sim.simulate_conv(spec)
        # A renamed twin shares the memo entry (spec_key drops the name) and
        # exercises the hit/relabel path with a distinct result object.
        twin_spec = dataclasses.replace(spec, name="twin")
        twin = sim.simulate_conv(twin_spec)
        assert twin.name == twin_spec.describe()  # re-labelled on the hit
        assert dataclasses.replace(twin, name=cold.name) == cold

        set_cache_enabled(False)
        uncached = sim.simulate_conv(spec)
        set_cache_enabled(True)
        assert uncached == cold

        trace.enable()
        try:
            set_cache_enabled(False)
            traced = sim.simulate_conv(spec)
            set_cache_enabled(True)
        finally:
            trace.disable()
            trace.get_tracer().clear()
        assert traced == cold

        reference = execute_schedule(channel_first_schedule(spec, sim.config))
        assert_layer_matches_reference(cold, reference)


def test_gemm_simulator_paths_identical_over_fuzz_corpus(pristine_cache):
    from repro.perf.cache import clear_cache, set_cache_enabled
    from repro.systolic.simulator import TPUSim

    sim = TPUSim()
    for shape in random_gemm_shapes(12, seed=41):
        clear_cache()
        cold = sim.simulate_gemm(shape)
        hit = sim.simulate_gemm(shape)
        assert hit == cold
        set_cache_enabled(False)
        uncached = sim.simulate_gemm(shape)
        set_cache_enabled(True)
        assert uncached == cold
        reference = execute_schedule(gemm_schedule(shape, sim.config))
        assert_layer_matches_reference(cold, reference)
