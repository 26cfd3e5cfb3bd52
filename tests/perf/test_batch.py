"""Bit-exactness gate for the schedule engine, batched.

The batched builders/executor (:mod:`repro.perf.batch`) must reproduce the
per-item reference builders and the scalar fold
(:func:`repro.systolic.scheduler.execute_schedule`) to the last float bit
for batches of many layers — shared pricing, mixed lengths, empty jobs,
several MXUs and the raggedness fallback — over the same fuzz surfaces the
executor-equivalence suite uses plus the audit corpus.  The cache
accounting (hits / canonical hits / misses / entries) must also be
indistinguishable from running the layers one at a time, and every
memoized pricing entry point must run the engine, never the scalar fold.
"""

import dataclasses
import pathlib
import sys

import numpy as np
import pytest

from repro.core.conv_spec import ConvSpec, GemmShape
from repro.core.tiling import tpu_multi_tile_policy
from repro.perf import batch as perf_batch
from repro.perf import schedule_arrays as perf_schedules
from repro.perf.cache import SIM_CACHE, clear_cache, set_cache_enabled
from repro.systolic import scheduler
from repro.systolic.config import TPU_V2
from repro.systolic.scheduler import channel_first_schedule, execute_schedule, gemm_schedule
from repro.systolic.simulator import TPUSim

from .test_executor_equivalence import (
    CONFIGS,
    assert_arrays_equal,
    assert_results_equal,
    random_conv_specs,
    random_gemm_shapes,
)

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "audit" / "corpus"


def corpus_specs():
    from repro.audit.fuzz import load_corpus, spec_from_dict

    return [spec_from_dict(entry["spec"]) for entry in load_corpus(CORPUS_DIR)]


@pytest.fixture
def pristine_cache():
    clear_cache()
    yield
    set_cache_enabled(True)
    clear_cache()


def conv_jobs(specs, config=TPU_V2):
    return [(spec, tpu_multi_tile_policy(spec, config.array_rows)) for spec in specs]


def reference_items(specs, config=TPU_V2):
    return [
        channel_first_schedule(spec, config, group_size=group)
        for spec, group in conv_jobs(specs, config)
    ]


# --------------------------------------------------------------- schedules
@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_conv_batch_builder_bit_identical(config):
    specs = random_conv_specs(20)
    batched = perf_batch.conv_schedule_batch(conv_jobs(specs, config), config)
    for items, schedule in zip(reference_items(specs, config), batched):
        assert_arrays_equal(schedule, perf_schedules.ScheduleArrays.from_work_items(items))


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_gemm_batch_builder_bit_identical(config):
    shapes = random_gemm_shapes(20)
    batched = perf_batch.gemm_schedule_batch(shapes, config)
    for shape, schedule in zip(shapes, batched):
        items = gemm_schedule(shape, config)
        assert_arrays_equal(schedule, perf_schedules.ScheduleArrays.from_work_items(items))


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_batched_executor_bit_identical(config):
    specs = random_conv_specs(15, seed=77)
    schedules = perf_batch.conv_schedule_batch(conv_jobs(specs, config), config)
    references = reference_items(specs, config)
    for arrays in (1, 2, 4):
        batched = perf_batch.execute_schedule_batch(schedules, arrays)
        for items, result in zip(references, batched):
            assert_results_equal(result, execute_schedule(items, arrays))


def test_batched_executor_mixes_conv_and_gemm_schedules():
    """Jobs of very different lengths share one batch (several buckets)."""
    specs = random_conv_specs(5, seed=4)
    shapes = [GemmShape(m=3000, n=500, k=520), GemmShape(m=7, n=3, k=2)]
    schedules = perf_batch.conv_schedule_batch(conv_jobs(specs), TPU_V2)
    schedules += perf_batch.gemm_schedule_batch(shapes, TPU_V2)
    references = reference_items(specs) + [gemm_schedule(s, TPU_V2) for s in shapes]
    for arrays in (1, 2):
        batched = perf_batch.execute_schedule_batch(schedules, arrays)
        for items, result in zip(references, batched):
            assert_results_equal(result, execute_schedule(items, arrays))


def test_batched_executor_handles_empty_and_single_schedules():
    spec = random_conv_specs(1, seed=5)[0]
    [one] = perf_batch.conv_schedule_batch(conv_jobs([spec]), TPU_V2)
    [items] = reference_items([spec])
    empty = dataclasses.replace(
        one,
        gemm_cycles=one.gemm_cycles[:0],
        fill_cycles=one.fill_cycles[:0],
        drain_cycles=one.drain_cycles[:0],
        macs=one.macs[:0],
    )
    for arrays in (1, 2):
        results = perf_batch.execute_schedule_batch([empty, one, empty], arrays)
        assert results[0].total_cycles == 0.0
        assert results[0].items == 0
        assert results[2] == results[0]
        assert_results_equal(results[1], execute_schedule(items, arrays))
        assert_results_equal(
            perf_batch.execute_schedule_batch([one], arrays)[0],
            execute_schedule(items, arrays),
        )
    assert perf_batch.execute_schedule_batch([empty]) == [results[0]]
    assert perf_batch.execute_schedule_batch([]) == []


def test_batched_executor_raggedness_fallback_is_bit_identical(monkeypatch):
    """Past the padded-size guard the executor degrades to batches of one
    — results must not change, and a batch of one must not recurse."""
    specs = random_conv_specs(6, seed=13)
    schedules = perf_batch.conv_schedule_batch(conv_jobs(specs), TPU_V2)
    dense = {arrays: perf_batch.execute_schedule_batch(schedules, arrays) for arrays in (1, 2)}
    calls = []
    kernel = perf_batch.execute_schedule_batch

    def counted(batch, arrays=1):
        calls.append(len(batch))
        return kernel(batch, arrays)

    monkeypatch.setattr(perf_batch, "_MAX_PADDED_ELEMENTS", 1)
    monkeypatch.setattr(perf_batch, "execute_schedule_batch", counted)
    for arrays in (1, 2):
        calls.clear()
        assert perf_batch.execute_schedule_batch(schedules, arrays) == dense[arrays]
        assert calls == [6] + [1] * 6
        calls.clear()
        assert perf_schedules.execute_schedule_arrays(schedules[0], arrays) == dense[arrays][0]
        assert calls == [1]


def test_segmented_recurrence_matches_per_job_recurrence(monkeypatch):
    """Both solver paths: NumPy forced for every length, and the default
    that folds short inputs."""
    rng = np.random.default_rng(11)
    for trial in range(80):
        monkeypatch.setattr(perf_schedules, "_FOLD_MAX_ITEMS", 0 if trial % 2 else 64)
        jobs = int(rng.integers(1, 8))
        lengths = [int(rng.integers(1, 120)) for _ in range(jobs)]
        starts = np.cumsum([0] + lengths[:-1])
        s_parts, a_parts = [], []
        for n in lengths:
            s_parts.append(np.cumsum(rng.exponential(10.0, size=n)) * rng.choice([0.5, 1.0, 2.0]))
            a_parts.append(rng.exponential(15.0, size=n))
        out = perf_schedules.pipeline_free_times_segmented(
            np.concatenate(s_parts), np.concatenate(a_parts), starts
        )
        expected = []
        for sp, ap in zip(s_parts, a_parts):
            prev = 0.0
            for s, a in zip(sp.tolist(), ap.tolist()):
                prev = max(prev, s) + a
                expected.append(prev)
        assert out.tolist() == expected


# ----------------------------------------------------------- simulator path
def _per_layer(specs, config=TPU_V2):
    sim = TPUSim(config)
    return [sim.simulate_conv(spec) for spec in specs]


def _batched(specs, config=TPU_V2):
    return TPUSim(config).simulate_conv_batch(specs)


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_simulate_conv_batch_bit_identical_over_fuzz_specs(pristine_cache, config):
    specs = random_conv_specs(15, seed=2026)
    per_layer = _per_layer(specs, config)
    clear_cache()
    assert _batched(specs, config) == per_layer


def test_simulate_conv_batch_bit_identical_over_audit_corpus(pristine_cache):
    specs = corpus_specs()
    assert specs, "audit corpus is empty — replay gate lost its inputs"
    per_layer = _per_layer(specs)
    clear_cache()
    assert _batched(specs) == per_layer


def test_simulate_conv_batch_under_full_audit(pristine_cache):
    """--audit full must hold (no violations) and not perturb results."""
    from repro.audit import auditor as audit_mod

    specs = random_conv_specs(8, seed=31)
    per_layer = _per_layer(specs)
    clear_cache()
    audit_mod.configure("full")
    audit_mod.reset()
    try:
        batched = _batched(specs)
        snapshot = audit_mod.snapshot()
    finally:
        audit_mod.configure("off")
    assert batched == per_layer
    assert snapshot["violations"] == 0
    assert snapshot["checks"] > 0


def test_simulate_gemm_batch_bit_identical(pristine_cache):
    shapes = random_gemm_shapes(15, seed=8)
    sim = TPUSim()
    per_call = [sim.simulate_gemm(shape) for shape in shapes]
    clear_cache()
    assert TPUSim().simulate_gemm_batch(shapes) == per_call


def test_simulate_network_fast_path_matches_per_layer(pristine_cache):
    from repro.workloads.networks import resnet50

    layers = resnet50(batch=8)
    per_layer = _per_layer(layers)
    clear_cache()
    network = TPUSim().simulate_network("resnet50", layers)
    assert list(network.layers) == per_layer


# ------------------------------------------------------------- accounting
def test_batch_cache_accounting_matches_per_layer(pristine_cache):
    """Duplicates, canonical twins and warm re-probes must land in the same
    hit/miss/entry buckets as the one-at-a-time path."""
    base = ConvSpec(n=8, c_in=64, h_in=14, w_in=28, c_out=64,
                    h_filter=3, w_filter=3, stride=2, padding=1, name="x")
    transposed = dataclasses.replace(base, h_in=28, w_in=14, name="xt")
    dup = dataclasses.replace(base, name="xdup")
    batch = [base, transposed, dup, base]

    per_layer = _per_layer(batch)
    per_stats = SIM_CACHE.stats
    clear_cache()
    batched = _batched(batch)
    batch_stats = SIM_CACHE.stats

    assert batched == per_layer
    assert batch_stats == per_stats
    assert batch_stats.canonical_hits > 0

    # Warm re-probes behave identically after either fill pattern.
    assert TPUSim().simulate_conv(transposed) == per_layer[1]
    after = SIM_CACHE.stats
    assert after.hits == batch_stats.hits + 1
    assert after.canonical_hits == batch_stats.canonical_hits


def test_batch_with_cache_disabled_matches(pristine_cache):
    specs = random_conv_specs(6, seed=55)
    per_layer = _per_layer(specs)
    clear_cache()
    set_cache_enabled(False)
    try:
        assert _batched(specs) == per_layer
    finally:
        set_cache_enabled(True)


def test_cross_namespace_canonical_sharing(pristine_cache):
    """simulate_conv and the residency scheduler's no-residency arm publish
    the same canonical key, so the second namespace probes into a hit."""
    from repro.systolic.network_scheduler import simulate_network_resident

    spec = ConvSpec(n=8, c_in=256, h_in=7, w_in=7, c_out=256,
                    h_filter=3, w_filter=3, stride=1, padding=1, name="tail")
    sim = TPUSim()
    conv = sim.simulate_conv(spec)
    before = SIM_CACHE.stats
    # A one-layer chain has no resident edges: both flags false.
    network = simulate_network_resident("one", [spec])
    after = SIM_CACHE.stats
    assert after.canonical_hits == before.canonical_hits + 1
    assert after.misses == before.misses
    resident = network.layers[0]
    assert resident.cycles == conv.cycles
    assert resident.compute_cycles == conv.compute_cycles
    assert resident.dma_cycles == conv.dma_cycles
    assert resident.exposed_dma_cycles == conv.exposed_dma_cycles


# ------------------------------------------------------------ entry points
def count_calls(monkeypatch, module, name):
    """Count calls to ``module.name``, patched in every loaded ``repro``
    module that holds it (callers may have imported it by name)."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(
            mod, name, None
        ) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_every_memoized_pricing_entry_point_runs_the_engine(pristine_cache, monkeypatch):
    """Each memoized TPU pricing path executes through the batched engine,
    and none falls back to the scalar fold (the audit oracle)."""
    from repro.audit import auditor as audit_mod
    from repro.core.sparsity import PositionMask
    from repro.systolic.dual_mxu import simulate_conv_dual_mxu
    from repro.systolic.explicit_schedule import simulate_conv_explicit_tpu
    from repro.systolic.network_scheduler import simulate_network_resident
    from repro.systolic.sparse_schedule import simulate_conv_sparse

    assert not audit_mod.enabled()
    engine_calls = count_calls(monkeypatch, perf_batch, "execute_schedule_batch")
    oracle_calls = count_calls(monkeypatch, scheduler, "execute_schedule")
    spec = ConvSpec(n=2, c_in=64, h_in=14, w_in=14, c_out=64,
                    h_filter=3, w_filter=3, padding=1, name="probe")
    chain = [spec, dataclasses.replace(spec, name="next")]
    shape = GemmShape(m=256, n=64, k=96)
    sim = TPUSim()
    entry_points = {
        "simulate_conv": lambda: sim.simulate_conv(spec),
        "simulate_gemm": lambda: sim.simulate_gemm(shape),
        "simulate_conv_batch": lambda: sim.simulate_conv_batch([spec]),
        "simulate_gemm_batch": lambda: sim.simulate_gemm_batch([shape]),
        "simulate_conv_dual_mxu": lambda: simulate_conv_dual_mxu(spec, arrays=2),
        "simulate_conv_sparse": lambda: simulate_conv_sparse(
            spec, PositionMask(spec, (0, 4, 8))
        ),
        "simulate_conv_explicit_tpu": lambda: simulate_conv_explicit_tpu(spec),
        # Both layers of the chain take the residency scheduler's resident
        # arms (output resident, then input resident).
        "residency _layer_cycles": lambda: simulate_network_resident("chain", chain),
    }
    ran = {}
    for name, call in entry_points.items():
        clear_cache()
        engine_calls.clear()
        oracle_calls.clear()
        call()
        ran[name] = (len(engine_calls) > 0, len(oracle_calls))
    assert ran == {name: (True, 0) for name in entry_points}
