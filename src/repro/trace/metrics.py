"""Per-layer cycle accounting with invariant audits.

The paper's evaluation (Figs 13-15) rests on *where cycles go* — compute vs.
DMA vs. exposed DMA vs. pipeline fill/drain.  This module is the ledger that
keeps those attributions honest across every execution path (per-item
reference, vectorized ScheduleArrays, memoized, ``--jobs N``):

- :class:`LayerCycleRecord` — one simulated layer/GEMM's breakdown, as
  recorded by the instrumented simulators;
- :func:`audit_record` — the invariants every record must satisfy, raising
  :class:`CycleAccountingError` with a precise message when one does not:

  1. every component is finite and non-negative;
  2. **exposure identity**: ``exposed_dma_cycles`` equals
     ``max(0, cycles - compute_cycles / arrays)`` *bit-exactly* — the same
     expression every executor uses, so any re-derivation drift fails loudly;
  3. the array cannot be busier than the makespan allows:
     ``compute_cycles <= arrays * cycles`` (tiny relative tolerance for the
     differently-associated float sums);
  4. work implies time: ``macs > 0`` forces ``cycles > 0``;
  5. utilization stays within ``[0, 1]``.

- :class:`MetricsRegistry` — accumulates records, audits on entry, and
  cross-checks **cache coherence**: two records under the same memo key
  (one miss, one hit) must carry identical numbers, so a stale or corrupted
  cache entry is caught the moment it is served.

Everything is inert unless tracing is enabled — the module-level
:func:`record_layer` / :func:`record_kernel` helpers return immediately
otherwise, keeping the simulators' hot paths free of bookkeeping.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from .tracer import enabled as _tracing
from .tracer import get_tracer

__all__ = [
    "CycleAccountingError",
    "LayerCycleRecord",
    "KernelTimeRecord",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_S",
    "audit_record",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "record_layer",
    "record_kernel",
]

#: Default histogram buckets for harness-level latencies, in seconds
#: (Prometheus-style upper bounds; +Inf is implicit).
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Relative slack for inequality audits only (sums associated differently by
#: the reference and vectorized executors).  Identities are checked exactly.
_REL_TOL = 1e-9


class CycleAccountingError(AssertionError):
    """A cycle-accounting invariant was violated."""


@dataclasses.dataclass(frozen=True)
class LayerCycleRecord:
    """One layer's (or GEMM primitive's) cycle breakdown.

    ``arrays`` is the number of MXUs the compute-busy cycles are spread over
    (1 everywhere except the dual-MXU design study); ``key`` identifies the
    memo entry the result came from, enabling the hit-vs-miss coherence
    audit.
    """

    source: str
    name: str
    cycles: float
    compute_cycles: float
    dma_cycles: float
    exposed_dma_cycles: float
    macs: int
    utilization: float = 0.0
    group_size: int = 1
    arrays: int = 1
    key: Optional[Tuple] = None

    def identity(self) -> Tuple:
        """The fields two records sharing a memo key must agree on.

        The label is excluded on purpose: the cache re-labels shared entries
        (``spec_key`` drops ``ConvSpec.name``), and that is legal — only the
        numbers must match.
        """
        return (
            self.cycles,
            self.compute_cycles,
            self.dma_cycles,
            self.exposed_dma_cycles,
            self.macs,
            self.group_size,
            self.arrays,
        )


@dataclasses.dataclass(frozen=True)
class KernelTimeRecord:
    """One GPU kernel timing (the tensor-core models account in seconds)."""

    source: str
    name: str
    seconds: float
    tflops: float


def audit_record(record: LayerCycleRecord) -> None:
    """Raise :class:`CycleAccountingError` unless every invariant holds."""
    numeric = {
        "cycles": record.cycles,
        "compute_cycles": record.compute_cycles,
        "dma_cycles": record.dma_cycles,
        "exposed_dma_cycles": record.exposed_dma_cycles,
    }
    for field, value in numeric.items():
        if not math.isfinite(value):
            raise CycleAccountingError(
                f"{record.source}:{record.name}: {field} is not finite ({value})"
            )
        if value < 0:
            raise CycleAccountingError(
                f"{record.source}:{record.name}: {field} is negative ({value})"
            )
    if record.macs < 0:
        raise CycleAccountingError(
            f"{record.source}:{record.name}: negative MAC count {record.macs}"
        )
    if record.arrays < 1:
        raise CycleAccountingError(
            f"{record.source}:{record.name}: arrays must be >= 1, got {record.arrays}"
        )
    if record.macs > 0 and record.cycles <= 0:
        raise CycleAccountingError(
            f"{record.source}:{record.name}: {record.macs} MACs took "
            f"{record.cycles} cycles — work must cost time"
        )
    # The exposure identity, evaluated with the exact expression every
    # executor uses so the comparison is bit-for-bit.
    expected_exposed = max(0.0, record.cycles - record.compute_cycles / record.arrays)
    if record.exposed_dma_cycles != expected_exposed:
        raise CycleAccountingError(
            f"{record.source}:{record.name}: exposure identity broken — "
            f"exposed_dma_cycles={record.exposed_dma_cycles!r} but "
            f"max(0, cycles - compute/arrays)={expected_exposed!r}"
        )
    if record.compute_cycles > record.arrays * record.cycles * (1 + _REL_TOL):
        raise CycleAccountingError(
            f"{record.source}:{record.name}: compute_cycles "
            f"{record.compute_cycles} exceeds {record.arrays} array(s) x "
            f"cycles {record.cycles}"
        )
    if not (0.0 <= record.utilization <= 1 + _REL_TOL):
        raise CycleAccountingError(
            f"{record.source}:{record.name}: utilization {record.utilization} "
            f"outside [0, 1]"
        )


class Histogram:
    """A Prometheus-style histogram: bucket counts, sum and total count.

    Buckets are upper bounds (``le``); the implicit ``+Inf`` bucket is the
    total count.  Observations are plain appends — no per-observation
    allocation beyond the counter bumps — and two histograms over the same
    buckets merge by addition (worker processes ship theirs home).
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S):
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.counts: List[int] = [0] * len(self.buckets)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"histogram observation must be finite, got {value}")
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.sum += other.sum
        self.count += other.count


class MetricsRegistry:
    """Accumulates audited records and cross-checks cache coherence.

    Beyond the per-layer cycle ledger, the registry also carries
    harness-level **scalar metrics** — named counters, gauges and
    :class:`Histogram` s — which :mod:`repro.obs.prom` renders in
    Prometheus text format.  Counters are monotonic by contract (negative
    increments are rejected, same rule as the tracer's counter events).
    """

    __slots__ = ("_layers", "_kernels", "_by_key", "_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._layers: List[LayerCycleRecord] = []
        self._kernels: List[KernelTimeRecord] = []
        self._by_key: Dict[Tuple, LayerCycleRecord] = {}
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ---------------------------------------------------------------- record
    def record_layer(self, record: LayerCycleRecord) -> None:
        audit_record(record)
        if record.key is not None:
            first = self._by_key.get(record.key)
            if first is None:
                self._by_key[record.key] = record
            elif first.identity() != record.identity():
                raise CycleAccountingError(
                    f"cache coherence broken for {record.source}:{record.name}: "
                    f"hit returned {record.identity()} but the original "
                    f"computation recorded {first.identity()}"
                )
        self._layers.append(record)

    def record_kernel(self, record: KernelTimeRecord) -> None:
        if not math.isfinite(record.seconds) or record.seconds < 0:
            raise CycleAccountingError(
                f"{record.source}:{record.name}: kernel seconds must be finite "
                f"and non-negative, got {record.seconds}"
            )
        if record.tflops < 0:
            raise CycleAccountingError(
                f"{record.source}:{record.name}: negative TFLOPS {record.tflops}"
            )
        self._kernels.append(record)

    def merge(self, layers, kernels=()) -> None:
        """Fold records shipped back from a worker process into this registry."""
        for record in layers:
            self.record_layer(record)
        for record in kernels:
            self.record_kernel(record)

    # ----------------------------------------------------------- scalar metrics
    def inc_counter(self, name: str, value: float = 1.0) -> float:
        """Bump a monotonic counter; returns the new total."""
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0, got {value}")
        total = self._counters.get(name, 0.0) + value
        self._counters[name] = total
        return total

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (last write wins)."""
        self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float, buckets: Optional[Tuple[float, ...]] = None
    ) -> None:
        """Record one observation into the named histogram (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(buckets or DEFAULT_LATENCY_BUCKETS_S)
            self._histograms[name] = histogram
        histogram.observe(value)

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    # -------------------------------------------------------------- accessors
    @property
    def layers(self) -> List[LayerCycleRecord]:
        return list(self._layers)

    @property
    def kernels(self) -> List[KernelTimeRecord]:
        return list(self._kernels)

    def __len__(self) -> int:
        return len(self._layers) + len(self._kernels)

    def clear(self) -> None:
        self._layers.clear()
        self._kernels.clear()
        self._by_key.clear()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def audit(self) -> int:
        """Re-audit every stored layer record; returns how many were checked."""
        for record in self._layers:
            audit_record(record)
        return len(self._layers)

    def by_source(self) -> Dict[str, Dict[str, float]]:
        """Aggregate cycle accounting per instrumentation source."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self._layers:
            agg = out.setdefault(
                record.source,
                {
                    "layers": 0,
                    "cycles": 0.0,
                    "array_cycles": 0.0,
                    "compute_cycles": 0.0,
                    "dma_cycles": 0.0,
                    "exposed_dma_cycles": 0.0,
                    "macs": 0,
                },
            )
            agg["layers"] += 1
            agg["cycles"] += record.cycles
            # Compute capacity: the makespan times how many arrays could have
            # been busy, so compute% stays <= 100 for the dual-MXU source.
            agg["array_cycles"] += record.arrays * record.cycles
            agg["compute_cycles"] += record.compute_cycles
            agg["dma_cycles"] += record.dma_cycles
            agg["exposed_dma_cycles"] += record.exposed_dma_cycles
            agg["macs"] += record.macs
        return out


#: Process-global registry behind the module-level helpers.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def record_layer(
    source: str,
    result,
    key: Optional[Tuple] = None,
    arrays: int = 1,
) -> None:
    """Record a ``LayerResult``-shaped object; no-op unless tracing is on."""
    if not _tracing():
        return
    record = LayerCycleRecord(
        source=source,
        name=result.name,
        cycles=result.cycles,
        compute_cycles=result.compute_cycles,
        dma_cycles=result.dma_cycles,
        exposed_dma_cycles=result.exposed_dma_cycles,
        macs=result.macs,
        utilization=result.utilization,
        group_size=getattr(result, "group_size", 1),
        arrays=arrays,
        key=key,
    )
    _REGISTRY.record_layer(record)
    get_tracer().instant(
        f"{source}.layer",
        cat="metrics",
        layer=record.name,
        cycles=record.cycles,
        compute_cycles=record.compute_cycles,
        exposed_dma_cycles=record.exposed_dma_cycles,
    )


def record_kernel(source: str, name: str, seconds: float, tflops: float) -> None:
    """Record a GPU kernel timing; no-op unless tracing is on."""
    if not _tracing():
        return
    _REGISTRY.record_kernel(
        KernelTimeRecord(source=source, name=name, seconds=seconds, tflops=tflops)
    )
