"""Simulation memoization: fingerprinted keys + a process-wide cache.

Every timing entry point is a pure function of plain frozen dataclasses
(:class:`~repro.systolic.config.TPUConfig`, :class:`~repro.gpu.config.GPUConfig`,
:class:`~repro.core.conv_spec.ConvSpec`, ...) and a few scalars, so results
can be memoized under a structural fingerprint of the arguments.  The
experiments re-price the same baselines figure after figure and networks
repeat layers; the cache collapses all of that to one computation each.

Invalidation rules (tested in ``tests/perf/test_cache.py``):

- the fingerprint recurses into nested dataclasses field by field, so
  changing **any** field of a config or spec — including nested HBM/SRAM
  sub-configs — produces a different key;
- :func:`spec_key` deliberately **excludes** ``ConvSpec.name``: timing is
  name-independent, so renamed copies of a layer share one entry (callers
  re-label the cached result).  Every TPU and GPU entry keys specs this way;
  the cuDNN stand-in's noise, seeded by ``spec.describe()``, is applied after
  the memo (:func:`repro.gpu.blocked_gemm.price_kernel`), never stored.
- :func:`canonical_spec` goes one step further than dropping the name: it
  folds *timing-equivalent* ConvSpecs onto one representative (H/W
  transposes, pointwise dilation, see the function docstring), and callers
  pass the canonical fingerprint as a **secondary** key.  A lookup that
  misses on the exact key but hits the canonical one is a ``canonical_hit``
  and aliases the exact key to the shared value.  Every fold is gated on the
  exact conditions under which the fill/occupancy model is provably
  invariant — never "close enough" (DESIGN.md section 4h).

Cached values are frozen dataclasses shared by reference; they must never be
mutated by callers (use ``dataclasses.replace``).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import threading
from typing import Any, Callable, Optional, Tuple

from repro.trace import tracer as _trace
from repro.obs.flight import beacon as _beacon

__all__ = [
    "SimulationCache",
    "CacheStats",
    "SIM_CACHE",
    "fingerprint",
    "spec_key",
    "config_key",
    "canonical_spec",
    "canonical_layout",
    "conv_keys",
    "cache_stats",
    "clear_cache",
    "reset_cache_stats",
    "set_cache_enabled",
]


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache (or the global one).

    ``canonical_hits`` counts the subset of ``hits`` served through a
    canonical (symmetry-folded) key rather than the exact key, and
    ``persistent_hits`` the subset served by the attached on-disk store
    (:mod:`repro.store`) after both in-memory keys missed; exact in-memory
    hits are therefore ``hits - canonical_hits - persistent_hits``.
    """

    hits: int
    misses: int
    entries: int
    canonical_hits: int = 0
    persistent_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def exact_hits(self) -> int:
        return self.hits - self.canonical_hits - self.persistent_hits

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Aggregate stats across runs/processes.

        ``entries`` adds too: under ``--jobs N`` each worker owns a separate
        store, so the sum is the fleet-wide entry count.
        """
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            entries=self.entries + other.entries,
            canonical_hits=self.canonical_hits + other.canonical_hits,
            persistent_hits=self.persistent_hits + other.persistent_hits,
        )


#: Sentinel distinguishing "no cached value" from a cached ``None``.
_MISSING = object()


class SimulationCache:
    """A keyed result store with hit/miss accounting.

    Unbounded by design: one entry per distinct (model, config, problem)
    combination, each a small frozen dataclass — the whole harness fits in a
    few thousand entries.

    A lookup may carry a secondary ``canonical_key`` (a symmetry-folded
    fingerprint, :func:`canonical_spec`).  When the exact key misses but the
    canonical key holds a value, the hit is counted as a ``canonical_hit``
    and the exact key is aliased to the shared value; computed values are
    stored under both keys.  ``entries`` counts distinct stored results, not
    aliases.

    An on-disk :class:`~repro.store.ResultStore` may be attached as
    ``backing`` (``repro.store.attach``): a probe that misses both in-memory
    keys then consults the store (exact + canonical digest), counts the
    serve as a ``persistent_hit``, and installs the value in memory; every
    computed value is written through.  With no backing attached (the
    default) behaviour is bit-for-bit unchanged.
    """

    __slots__ = (
        "_store", "_aliases", "hits", "misses", "canonical_hits",
        "persistent_hits", "enabled", "backing", "_lock",
    )

    def __init__(self, enabled: bool = True):
        self._lock = threading.Lock()
        self._store: dict = {}
        self._aliases = 0
        self.hits = 0
        self.misses = 0
        self.canonical_hits = 0
        self.persistent_hits = 0
        self.enabled = enabled
        self.backing = None  # Optional[repro.store.ResultStore]

    def get_or_compute(
        self,
        key: Tuple,
        compute: Callable[[], Any],
        canonical_key: Optional[Tuple] = None,
    ) -> Any:
        if not self.enabled:
            return compute()
        found, value = self.probe(key, canonical_key)
        if found:
            return value
        value = compute()
        self.store(key, value, canonical_key)
        return value

    # ---------------------------------------------------------- batch protocol
    # The batched engine needs the lookup split from the compute so it can
    # price all misses in one shot while keeping the hit/miss stream
    # identical to a per-layer loop.
    def probe(self, key: Tuple, canonical_key: Optional[Tuple] = None):
        """One counted lookup: ``(found, value)``.

        Counts exactly what a :meth:`get_or_compute` call would have counted
        for the same keys: a :meth:`lookup`'s hits, else the miss, in the
        memo and in the attached store (which also promotes a canonical
        hit to its exact digest).
        """
        return self._find(key, canonical_key, counted=True)

    def lookup(self, key: Tuple, canonical_key: Optional[Tuple] = None):
        """The hit half of :meth:`probe`: ``(found, value)``.

        A miss counts nothing — in the memo or in the attached store — and
        writes nothing, so a caller that probes the same keys later (the
        serve daemon's admission) keeps the hit/miss stream exact.
        """
        return self._find(key, canonical_key, counted=False)

    def _find(self, key: Tuple, canonical_key: Optional[Tuple], counted: bool):
        """Memory under ``key``, memory under ``canonical_key`` (a serve
        aliases the exact key), then the attached store (a serve installs
        in memory under both keys).  A hit is counted under its tier and
        noted on the status beacon — and, only while tracing, as a
        ``cache.probe`` instant, so request span trees show which tier
        answered; a miss only when ``counted``.

        The serve daemon looks up from its event loop while its executor
        probes, so the whole lookup, store read and beacon tiers included,
        holds ``_lock`` (DESIGN.md §4l).
        """
        with self._lock:
            value = self._store.get(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                self._note_probe("exact")
                return True, value
            if canonical_key is not None and canonical_key != key:
                value = self._store.get(canonical_key, _MISSING)
                if value is not _MISSING:
                    self.hits += 1
                    self.canonical_hits += 1
                    self._store[key] = value
                    self._aliases += 1
                    self._note_probe("canonical")
                    return True, value
            if self.backing is not None:
                found, value, _ = self.backing.load(
                    key, canonical_key, tentative=not counted
                )
                if found:
                    self.hits += 1
                    self.persistent_hits += 1
                    self._store[key] = value
                    if canonical_key is not None and canonical_key != key:
                        if self._store.setdefault(canonical_key, value) is value:
                            self._aliases += 1
                    self._note_probe("persistent")
                    return True, value
            if counted:
                self.misses += 1
                self._note_probe("miss")
            return False, None

    @staticmethod
    def _note_probe(tier: str) -> None:
        _beacon.get_beacon().note_cache(tier)
        if _trace.enabled():
            _trace.instant("cache.probe", cat="cache", tier=tier)

    def note_pending_hit(self, canonical: bool = False) -> None:
        """Reclassify the last counted miss as a hit.

        The batched engine calls this when a probe missed the store but an
        identical job is already scheduled in the same batch: a per-layer
        loop would have stored the first job's value before looking the
        second one up, so the faithful count is a hit.  The status beacon's
        tiers move the same way; the probe's ``cache.probe`` instant stays.
        """
        with self._lock:
            self.misses -= 1
            self.hits += 1
            tier = "exact"
            if canonical:
                self.canonical_hits += 1
                tier = "canonical"
            tiers = _beacon.get_beacon().cache
            tiers["miss"] -= 1
            tiers[tier] += 1

    def store(self, key: Tuple, value: Any, canonical_key: Optional[Tuple] = None) -> None:
        """Insert a computed value (no counter changes; no-op when disabled).

        The write-through to the store runs outside ``_lock``: its fsync
        must not hold up a lookup on another thread.
        """
        if not self.enabled:
            return
        with self._lock:
            self._store[key] = value
            if canonical_key is not None and canonical_key != key:
                if self._store.setdefault(canonical_key, value) is value:
                    self._aliases += 1
        if self.backing is not None:
            self.backing.save(key, value, canonical_key)

    def clear(self) -> None:
        self._store.clear()
        self._aliases = 0
        self.hits = 0
        self.misses = 0
        self.canonical_hits = 0
        self.persistent_hits = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without dropping cached entries.

        This is what "per-run" accounting needs: pooled worker processes
        keep their warm stores between experiments, but each run's report
        should count only its own lookups.
        """
        self.hits = 0
        self.misses = 0
        self.canonical_hits = 0
        self.persistent_hits = 0

    def __len__(self) -> int:
        return len(self._store) - self._aliases

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            entries=len(self),
            canonical_hits=self.canonical_hits,
            persistent_hits=self.persistent_hits,
        )


#: The process-wide cache every simulator entry point shares.
SIM_CACHE = SimulationCache()


def cache_stats() -> CacheStats:
    """Hit/miss statistics of the global simulation cache."""
    return SIM_CACHE.stats


def clear_cache() -> None:
    """Drop every cached result and reset the counters."""
    SIM_CACHE.clear()


def reset_cache_stats() -> None:
    """Zero the global cache's hit/miss counters, keeping its entries."""
    SIM_CACHE.reset_stats()


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable memoization (results are recomputed when off)."""
    SIM_CACHE.enabled = bool(enabled)


def fingerprint(value: Any) -> Any:
    """A hashable structural fingerprint of an argument.

    Dataclasses become ``(TypeName, field fingerprints...)`` — recursing, so
    nested configs contribute every field; enums use their value; sequences
    become tuples.  Anything else must already be hashable (ints, floats,
    strings, bools, None).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        try:
            return _dataclass_fingerprint(value)
        except TypeError:  # unhashable instance (mutable fields) — recompute
            return _dataclass_fingerprint.__wrapped__(value)
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    return value


@functools.lru_cache(maxsize=None)
def _dataclass_fingerprint(value: Any) -> Tuple:
    """Memoized dataclass fingerprint — the ``dataclasses.fields`` reflection
    dominates warm ``simulate_conv`` dispatch otherwise (BENCH_perf latency
    histograms put warm calls at ~40µs, most of it key construction)."""
    return (type(value).__name__,) + tuple(
        fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value)
    )


def spec_key(spec: Any) -> Tuple:
    """Fingerprint of a ConvSpec with the ``name`` label excluded.

    Cycle counts cannot depend on what a layer is called; excluding the name
    lets every same-shape layer across networks and figures share one entry.
    """
    try:
        return _spec_key_cached(spec)
    except TypeError:  # unhashable spec subclass — fall back to direct build
        return _spec_key_uncached(spec)


def _spec_key_uncached(spec: Any) -> Tuple:
    return (type(spec).__name__,) + tuple(
        fingerprint(getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name != "name"
    )


_spec_key_cached = functools.lru_cache(maxsize=None)(_spec_key_uncached)


def config_key(config: Any) -> Tuple:
    """Fingerprint of an accelerator config (all fields, nested included)."""
    return fingerprint(config)


# --------------------------------------------------------------------------
# Canonicalization: fold timing-equivalent problems onto one representative
# --------------------------------------------------------------------------


def canonical_spec(spec):
    """Fold a ConvSpec onto its timing-canonical representative.

    Callers re-label a served ``LayerResult`` themselves (the simulator's
    shared pricing tail does it for every path).  Each rewrite below is
    applied only under the exact conditions for which the channel-first
    schedule (fills, occupancy, drains, tiling policy) is provably invariant
    — the cached value is shared, so "approximately equal" is not an option:

    - **name strip**: timing never depends on the label (same rule as
      :func:`spec_key`).
    - **pointwise dilation fold** (``dilation -> 1``): a 1x1 kernel has no
      spatial extent, so dilation only reaches the fill model through the
      contiguity flag ``stride == 1 and dilation == 1``.  With ``stride > 1``
      that flag is False either way, and the geometry (``h_out``/``w_out``,
      lowered dims, MACs) of a 1x1 kernel is dilation-free — decomposed-1x1
      position symmetry.  At ``stride == 1`` the fold would flip the DRAM
      run coalescing, so it is **not** applied there.
    - **H/W transpose** (order ``h_in <= w_in``): legal only for square
      filters (the multi-tile policy and row-aligned grouping read
      ``w_filter``) on the non-contiguous path (``stride > 1`` or
      ``dilation > 1``), where the fill model sees only products
      (``h_in*w_in``, ``h_out*w_out``) — the contiguous path coalesces runs
      per output row (``ceil/w_out``), which a transpose would change.

    Batch folding (moving N into H*W) is deliberately **absent** here: the
    HWCN vector-memory word packs the batch dimension, so ``n`` enters the
    fill model's run structure and address span directly (Sec. IV-C) —
    N x HW commutation only holds where the schedule sees GEMM rows alone,
    which is the explicit-im2col path (see ``explicit_schedule``).
    """
    canon = spec
    if canon.name:
        canon = dataclasses.replace(canon, name="")
    if (
        canon.h_filter == 1
        and canon.w_filter == 1
        and canon.dilation != 1
        and canon.stride > 1
    ):
        canon = dataclasses.replace(canon, dilation=1)
    if (
        canon.h_filter == canon.w_filter
        and canon.h_in > canon.w_in
        and (canon.stride > 1 or canon.dilation > 1)
    ):
        canon = dataclasses.replace(canon, h_in=canon.w_in, w_in=canon.h_in)
    return canon


def canonical_layout(layout):
    """Fold DRAM layouts the fill engine prices identically.

    The run/span model only distinguishes channel-last (``NHWC``/``HWCN``)
    from channel-major (``NCHW``/``CHWN``) — within a pair the batch position
    never reaches a priced quantity.
    """
    value = getattr(layout, "value", layout)
    if value in ("NHWC", "HWCN"):
        return "NHWC"
    if value in ("NCHW", "CHWN"):
        return "NCHW"
    return value


def conv_keys(config, spec, group_size: int, layout) -> Tuple[Tuple, Tuple]:
    """The channel-first conv memo's ``(exact, canonical)`` key pair.

    The exact key fingerprints the config, the spec minus its name
    (:func:`spec_key`), the resolved group size and the layout.  The
    canonical key folds the spec's timing symmetries (:func:`canonical_spec`)
    and the layout pairs that price identically (:func:`canonical_layout`).
    ``TPUSim`` memoizes under both, the residency scheduler publishes the
    canonical key for its no-residency layers, and the serve daemon matches
    the memo with them (exact: in-flight dedup; canonical: breaker
    fingerprints), so every one of them builds the pair here.
    """
    cfg = config_key(config)
    return (
        ("tpu-conv", cfg, spec_key(spec), group_size, layout.value),
        ("tpu-conv@c", cfg, spec_key(canonical_spec(spec)), group_size,
         canonical_layout(layout)),
    )
