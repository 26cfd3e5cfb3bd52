"""HBM/DRAM timing model — the DRAMSim3 substitute.

The paper uses DRAMSim3 only to price the off-chip side of SRAM fills.  What
the algorithm study actually needs from a DRAM model is:

1. peak streaming bandwidth for long contiguous bursts (700 GB/s on TPU-v2,
   900 GB/s on V100), and
2. realistic degradation for *fragmented* access patterns — short runs,
   strided hops, row-buffer misses — which is what separates the CHW and HWC
   layouts in Fig 7.

:class:`HBMModel` therefore models channels x banks with an open-page
row-buffer policy and fixed-size bursts, and prices an address trace by
walking it: each burst takes ``t_burst`` on its channel; a row-buffer miss
adds ``t_row_miss``.  Channels operate in parallel (addresses interleave
across channels at burst granularity), so the returned cycle count is the
max over channels — a standard bandwidth-structure abstraction that sits
between "flat bandwidth" and a full DRAM protocol model.

For layer-scale simulation the trace-walking path would be slow, so
:meth:`HBMModel.transfer_cycles` prices a transfer from summary statistics
(bytes, contiguous-run length) with the identical cost formula; the tests
assert the two paths agree on real traces.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

import numpy as np

from ..audit import auditor as _audit
from ..errors import ConfigError
from ..resilience import faults as _faults
from ..trace import tracer as trace

__all__ = ["HBMConfig", "HBMModel", "TransferStats", "run_length_stats"]


@dataclasses.dataclass(frozen=True)
class HBMConfig:
    """Timing/geometry of one HBM stack, defaulting to TPU-v2-like numbers.

    ``clock_ghz`` is the *accelerator core* clock the returned cycle counts
    are denominated in (0.7 GHz for the TPU config, per Tbl. II).
    """

    peak_bandwidth_gbps: float = 700.0
    clock_ghz: float = 0.7
    channels: int = 16
    banks_per_channel: int = 16
    row_bytes: int = 1024
    burst_bytes: int = 64
    # Extra latency of a row-buffer miss (activate+precharge), in core cycles.
    row_miss_penalty_cycles: float = 20.0
    # Fixed request overhead per independent transfer (command/queue), cycles.
    request_latency_cycles: float = 60.0

    def __post_init__(self) -> None:
        if self.peak_bandwidth_gbps <= 0:
            raise ConfigError(
                "bandwidth must be positive",
                field="peak_bandwidth_gbps", value=self.peak_bandwidth_gbps,
            )
        if self.clock_ghz <= 0:
            raise ConfigError(
                "clock must be positive", field="clock_ghz", value=self.clock_ghz
            )
        if self.channels <= 0:
            raise ConfigError(
                "channel count must be positive", field="channels", value=self.channels
            )
        if self.banks_per_channel <= 0:
            raise ConfigError(
                "bank count must be positive",
                field="banks_per_channel", value=self.banks_per_channel,
            )
        if self.burst_bytes <= 0:
            raise ConfigError(
                "burst size must be positive",
                field="burst_bytes", value=self.burst_bytes,
            )
        if self.row_bytes <= 0:
            raise ConfigError(
                "row size must be positive", field="row_bytes", value=self.row_bytes
            )
        if self.row_bytes % self.burst_bytes != 0:
            raise ConfigError(
                "row_bytes must be a multiple of burst_bytes",
                field="row_bytes", value=self.row_bytes,
            )

    @property
    def bytes_per_cycle(self) -> float:
        """Peak bytes the whole stack moves per core cycle."""
        return self.peak_bandwidth_gbps / self.clock_ghz

    @property
    def burst_cycles(self) -> float:
        """Core cycles one burst occupies on one channel at peak rate."""
        return self.burst_bytes / (self.bytes_per_cycle / self.channels)


@dataclasses.dataclass(frozen=True)
class TransferStats:
    """Summary of an access pattern, sufficient to price it.

    ``runs`` is the number of maximal contiguous byte ranges, ``bytes`` the
    total payload, and ``span_bytes`` the extent of the address region the
    transfer touches (>= bytes; equal for a fully contiguous stream).  The
    span bounds how many DRAM rows can possibly be activated: many short
    runs packed inside one row still cost one activation.
    """

    bytes: int
    runs: int
    span_bytes: int = 0  # 0 means "unknown": assume each run opens rows alone

    def __post_init__(self) -> None:
        if self.bytes < 0 or self.runs < 0 or self.span_bytes < 0:
            raise ValueError("negative stats")
        if (self.bytes == 0) != (self.runs == 0):
            raise ValueError("bytes and runs must be zero together")
        if self.span_bytes and self.span_bytes < self.bytes:
            raise ValueError("span cannot be smaller than the payload")

    @property
    def mean_run_bytes(self) -> float:
        return self.bytes / self.runs if self.runs else 0.0


def run_length_stats(addresses: Sequence[int], access_bytes: int) -> TransferStats:
    """Collapse a sorted-or-not address trace into :class:`TransferStats`.

    Two accesses belong to the same run when they are exactly adjacent in the
    byte address space *and* consecutive in the trace — matching how a DMA
    engine coalesces an in-order stream.
    """
    if access_bytes <= 0:
        raise ValueError("access_bytes must be positive")
    if len(addresses) == 0:
        return TransferStats(bytes=0, runs=0)
    trace = np.asarray(addresses, dtype=np.int64)
    runs = 1 + int(np.count_nonzero(np.diff(trace) != access_bytes))
    return TransferStats(bytes=len(addresses) * access_bytes, runs=runs)


class HBMModel:
    """Prices transfers against an :class:`HBMConfig`.

    The model is *stateless across transfers* (each transfer starts with cold
    row buffers): simulators call it per DMA request, and double buffering /
    overlap is the caller's job.
    """

    def __init__(self, config: HBMConfig = HBMConfig()):
        self.config = config

    # ------------------------------------------------------------ trace path
    def trace_cycles(self, addresses: Sequence[int], access_bytes: int) -> float:
        """Walk an explicit address trace and return core cycles.

        Addresses interleave across channels at burst granularity
        (``channel = (addr // burst) % channels``); each channel tracks its
        open row per bank.  The transfer completes when the slowest channel
        drains.
        """
        cfg = self.config
        if not addresses:
            return 0.0
        busy = [0.0] * cfg.channels
        open_row: List[dict] = [dict() for _ in range(cfg.channels)]
        last_row = [-(10 ** 9)] * cfg.channels
        seen_bursts = set()
        for addr in addresses:
            for offset in range(0, access_bytes, cfg.burst_bytes):
                burst_id = (addr + offset) // cfg.burst_bytes
                if burst_id in seen_bursts:
                    continue  # already fetched within this transfer
                seen_bursts.add(burst_id)
                channel = burst_id % cfg.channels
                # Rows are per-channel: a channel owns every channels-th
                # burst, and its rows group bursts_per_row of *its own*
                # bursts.
                bursts_per_row = cfg.row_bytes // cfg.burst_bytes
                row = (burst_id // cfg.channels) // bursts_per_row
                bank = row % cfg.banks_per_channel
                cost = cfg.burst_cycles
                if open_row[channel].get(bank) != row:
                    open_row[channel][bank] = row
                    if row == last_row[channel] + 1:
                        # Sequential row advance: the next bank's activate was
                        # issued while the previous row streamed, so only the
                        # amortised slice of the penalty is exposed.
                        cost += cfg.row_miss_penalty_cycles / cfg.banks_per_channel
                    else:
                        cost += cfg.row_miss_penalty_cycles
                if row != last_row[channel]:
                    last_row[channel] = row
                busy[channel] += cost
        return max(busy) + cfg.request_latency_cycles

    # --------------------------------------------------------- summary path
    def transfer_cycles(self, stats: TransferStats) -> float:
        """Price a transfer from summary statistics.

        Cost structure mirrors :meth:`trace_cycles`: payload moves at peak
        bandwidth; every run opens on average ``ceil(run_bytes / row_bytes)``
        rows whose activate penalties serialise per channel (divided by the
        channel count since independent runs spread across channels).
        """
        cfg = self.config
        if stats.bytes == 0:
            return 0.0
        # DRAM moves whole bursts: a run shorter than a burst still occupies
        # one burst slot, but bursts shared by runs inside the span are only
        # fetched once (mirroring the trace path's burst dedup).
        burst_limited = stats.runs * max(
            cfg.burst_bytes, math.ceil(stats.mean_run_bytes / cfg.burst_bytes) * cfg.burst_bytes
        )
        if stats.span_bytes:
            burst_limited = min(burst_limited, math.ceil(stats.span_bytes / cfg.burst_bytes) * cfg.burst_bytes)
        transferred = max(stats.bytes, burst_limited)
        payload_cycles = transferred / cfg.bytes_per_cycle
        per_run_rows = stats.runs * max(1.0, math.ceil(stats.mean_run_bytes / cfg.row_bytes))
        if stats.span_bytes:
            # Runs sharing a DRAM row share its activation: the touched-row
            # count is bounded by the rows the span covers.
            span_rows = math.ceil(stats.span_bytes / cfg.row_bytes)
            rows_touched = min(per_run_rows, max(1.0, span_rows))
        else:
            rows_touched = per_run_rows
        # Sequential activates pipeline across banks (amortised); each run
        # start additionally exposes one full activate.
        sequential = rows_touched * cfg.row_miss_penalty_cycles / cfg.banks_per_channel
        random_starts = min(stats.runs, rows_touched) * cfg.row_miss_penalty_cycles
        miss_cycles = (sequential + random_starts) / cfg.channels
        total = payload_cycles + miss_cycles + cfg.request_latency_cycles
        if _faults.ACTIVE is not None:  # injected DRAM response drops
            total = _faults.ACTIVE.perturb_dram_cycles(total)
        if trace.enabled():
            trace.counter("hbm.transfers", 1, cat="hbm")
            trace.counter("hbm.bytes", stats.bytes, cat="hbm")
            trace.counter("hbm.cycles", total, cat="hbm")
        if _audit.enabled():
            from ..audit import invariants as audit_invariants

            audit_invariants.check_hbm_transfer(stats, total, cfg)
        return total

    def contiguous_cycles(self, nbytes: int) -> float:
        """Cycles to stream ``nbytes`` as one contiguous run."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.transfer_cycles(TransferStats(bytes=nbytes, runs=1))

    def effective_bandwidth_gbps(self, stats: TransferStats) -> float:
        """Achieved bandwidth for a pattern — the Fig 7 y-axis."""
        cycles = self.transfer_cycles(stats)
        if cycles == 0:
            return 0.0
        seconds = cycles / (self.config.clock_ghz * 1e9)
        return stats.bytes / seconds / 1e9
