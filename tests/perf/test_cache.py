"""Invalidation + accounting rules of the simulation memo.

The cache is only sound if *every* field of a config or spec — nested
sub-configs included — reaches the key, and the one deliberate exception
(``ConvSpec.name``) is handled by re-labelling on hit.
"""

import dataclasses

import pytest

from repro.core.conv_spec import ConvSpec
from repro.perf.cache import (
    SIM_CACHE,
    CacheStats,
    SimulationCache,
    config_key,
    fingerprint,
    reset_cache_stats,
    set_cache_enabled,
    spec_key,
)
from repro.systolic.config import TPU_V2
from repro.systolic.simulator import TPUSim

SPEC = ConvSpec(n=1, c_in=64, h_in=14, w_in=14, c_out=64, h_filter=3, w_filter=3, padding=1)


def perturbed(value):
    """A different value of the same broad type (recursing into dataclasses)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        field = dataclasses.fields(value)[0]
        return dataclasses.replace(
            value, **{field.name: perturbed(getattr(value, field.name))}
        )
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 1
    if isinstance(value, str):
        return value + "-x"
    raise TypeError(f"no perturbation for {value!r}")


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(TPU_V2)]
)
def test_every_config_field_reaches_the_key(field):
    changes = {field: perturbed(getattr(TPU_V2, field))}
    # The config ties one vector memory to one PE row — keep it satisfiable.
    if field == "array_rows":
        changes["num_vector_memories"] = changes["array_rows"]
    if field == "num_vector_memories":
        changes["array_rows"] = changes["num_vector_memories"]
    assert config_key(dataclasses.replace(TPU_V2, **changes)) != config_key(TPU_V2)


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(SPEC) if f.name != "name"]
)
def test_every_spec_field_reaches_the_key(field):
    value = getattr(SPEC, field)
    if field in ("stride", "dilation"):
        changed = dataclasses.replace(SPEC, **{field: value + 1})
    else:
        changed = dataclasses.replace(SPEC, **{field: perturbed(value)})
    assert spec_key(changed) != spec_key(SPEC)


def test_spec_name_is_excluded_but_fingerprint_keeps_it():
    renamed = dataclasses.replace(SPEC, name="conv4_x")
    assert spec_key(renamed) == spec_key(SPEC)
    # The generic fingerprint identifies a value, every field included (audit
    # payloads and run manifests digest specs with it); only memo keys drop
    # the label.  Every TPU and GPU model keys by spec_key, and the GPU
    # models' sharing is pinned in tests/audit/test_chokepoint.py.
    assert fingerprint(renamed) != fingerprint(SPEC)


def test_nested_hbm_field_reaches_the_key():
    hbm = dataclasses.replace(TPU_V2.hbm, row_miss_penalty_cycles=21.0)
    assert config_key(dataclasses.replace(TPU_V2, hbm=hbm)) != config_key(TPU_V2)


def test_hit_miss_accounting():
    cache = SimulationCache()
    calls = []
    compute = lambda: calls.append(1) or "value"
    assert cache.get_or_compute(("k",), compute) == "value"
    assert cache.get_or_compute(("k",), compute) == "value"
    assert len(calls) == 1
    assert (cache.stats.hits, cache.stats.misses, cache.stats.entries) == (1, 1, 1)
    assert cache.stats.hit_rate == 0.5
    cache.clear()
    assert (cache.stats.hits, cache.stats.misses, cache.stats.entries) == (0, 0, 0)


def test_lookup_counts_hits_only():
    """``probe`` is ``lookup`` plus the miss: a lookup that finds nothing
    counts nothing, so the later counted probe keeps the stream exact."""
    cache = SimulationCache()
    assert cache.lookup(("k",), ("c",)) == (False, None)
    assert (cache.stats.hits, cache.stats.misses) == (0, 0)
    cache.store(("k",), "value", ("c",))
    assert cache.lookup(("k",)) == (True, "value")
    assert cache.lookup(("twin",), ("c",)) == (True, "value")
    stats = cache.stats
    assert (stats.hits, stats.canonical_hits, stats.misses) == (2, 1, 0)
    assert cache.probe(("other",)) == (False, None)
    assert (cache.stats.hits, cache.stats.misses) == (2, 1)


def test_two_threads_looking_up_lose_no_count():
    """The serve daemon looks up on its event loop while its executor
    thread probes: the cache's lock keeps every hit counter and beacon
    tier update whole."""
    import sys
    import threading

    from repro.obs.flight import beacon as beacon_mod

    cache = SimulationCache()
    cache.store(("k",), "value", ("c",))
    beacon = beacon_mod.reset_beacon()
    threads, lookups = 4, 25_000

    def worker():
        for _ in range(lookups):
            cache.lookup(("k",), ("c",))

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
        beacon_mod.reset_beacon()
    assert cache.hits == threads * lookups
    assert beacon.cache["exact"] == threads * lookups


def test_disabled_cache_recomputes():
    cache = SimulationCache(enabled=False)
    calls = []
    cache.get_or_compute(("k",), lambda: calls.append(1))
    cache.get_or_compute(("k",), lambda: calls.append(1))
    assert len(calls) == 2
    assert len(cache) == 0


def test_global_toggle_restores():
    set_cache_enabled(False)
    try:
        assert SIM_CACHE.enabled is False
    finally:
        set_cache_enabled(True)
    assert SIM_CACHE.enabled is True


def test_renamed_layer_shares_entry_and_keeps_its_name():
    sim = TPUSim()
    first = sim.simulate_conv(dataclasses.replace(SPEC, name="alpha"))
    before = SIM_CACHE.stats.hits
    second = sim.simulate_conv(dataclasses.replace(SPEC, name="beta"))
    assert SIM_CACHE.stats.hits == before + 1
    assert first.name.startswith("alpha[")
    assert second.name.startswith("beta[")
    assert second.cycles == first.cycles
    assert dataclasses.replace(second, name=first.name) == first


def test_reset_stats_keeps_entries():
    """Per-run accounting: counters zero, the warm store stays warm."""
    cache = SimulationCache()
    cache.get_or_compute(("k",), lambda: "v")
    cache.get_or_compute(("k",), lambda: "v")
    cache.reset_stats()
    assert (cache.stats.hits, cache.stats.misses) == (0, 0)
    assert len(cache) == 1
    calls = []
    cache.get_or_compute(("k",), lambda: calls.append(1))
    assert calls == []  # still served from the kept entry
    assert cache.stats.hits == 1


def test_reset_cache_stats_global():
    SIM_CACHE.get_or_compute(("stats-probe",), lambda: 1)
    reset_cache_stats()
    assert (SIM_CACHE.stats.hits, SIM_CACHE.stats.misses) == (0, 0)


def test_cache_stats_addition_aggregates_workers():
    total = CacheStats(hits=3, misses=1, entries=4) + CacheStats(
        hits=1, misses=3, entries=2
    )
    assert (total.hits, total.misses, total.entries) == (4, 4, 6)
    assert total.hit_rate == 0.5
    assert sum(
        [CacheStats(1, 0, 1), CacheStats(0, 1, 1)],
        CacheStats(0, 0, 0),
    ) == CacheStats(1, 1, 2)


def test_per_run_cache_stats_under_jobs():
    """--cache-stats must report the run's own lookups, serial or pooled.

    table1 is pure geometry (no simulation) — fig13 is the series that
    actually exercises the memo.  Under --jobs the parent's cache is never
    touched, so non-zero numbers prove the workers' stats made it home.
    """
    from repro.harness.runner import run_many_telemetry

    _, serial = run_many_telemetry(["fig13"], quick=True, jobs=1)
    assert serial.cache.hits + serial.cache.misses > 0
    _, pooled = run_many_telemetry(["table1", "fig13"], quick=True, jobs=2)
    assert pooled.cache.hits + pooled.cache.misses > 0


def test_beacon_cache_tiers_agree_with_the_memo_after_a_batch():
    """A miss joined to a job already scheduled in the batch is a hit on
    the status beacon too, not only in the memo."""
    from repro.obs.flight import beacon as beacon_mod
    from repro.perf.cache import clear_cache
    from repro.store import detach
    from repro.workloads.networks import network

    detach()
    clear_cache()
    beacon = beacon_mod.reset_beacon()
    try:
        TPUSim().simulate_conv_batch(network("ResNet", 8))
        stats = SIM_CACHE.stats
        assert stats.hits > 0  # from an empty memo, every hit is such a join
        assert beacon.cache == {
            "exact": stats.exact_hits,
            "canonical": stats.canonical_hits,
            "persistent": stats.persistent_hits,
            "miss": stats.misses,
        }
    finally:
        clear_cache()
        beacon_mod.reset_beacon()
