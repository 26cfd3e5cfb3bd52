"""Status beacon: always-on progress counters, optionally mirrored to disk.

The runner, supervisor and serve daemon all know things an operator wants
*while the run is still going* — tasks done, queue depths, worker health,
cache hit rates, ETA — but until now that knowledge died inside each
process.  The beacon is the smallest possible fix:

- **in-process** it is a plain object whose update methods are attribute
  bumps (no locks on the hot path beyond the GIL, no I/O, no formatting) —
  cheap enough to leave on unconditionally, which is what the acceptance
  bench asserts;
- **externally** it mirrors a JSON snapshot to a status file via
  :func:`repro.resilience.atomic.atomic_write_text` — but *only* when a
  path is configured, and rate-limited by :func:`maybe_write`, so flagless
  runs touch no extra files and stay byte-identical.

``repro top`` and the serve daemon's ``/statusz`` endpoint render
:meth:`Beacon.snapshot`, which includes a rolling-throughput ETA computed
over a sliding window of completion samples (robust to the cold-start
spike and to cache-warm tails, unlike a since-start average).
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.resilience.atomic import atomic_write_text

__all__ = [
    "Beacon",
    "configure_beacon",
    "get_beacon",
    "reset_beacon",
]

#: Sliding window (seconds) for the rolling-throughput ETA.
ETA_WINDOW_S = 60.0
#: Default minimum interval between status-file writes.
WRITE_INTERVAL_S = 0.5


class Beacon:
    """Live progress counters for one process's share of a run."""

    def __init__(
        self,
        role: str = "runner",
        run_id: Optional[str] = None,
        status_path: Optional[str] = None,
    ):
        self.role = role
        self.run_id = run_id
        self.status_path = status_path
        self.started_at = time.time()
        # Sweep progress.
        self.tasks_total = 0
        self.tasks_done = 0
        self.tasks_failed = 0
        self.active: Dict[str, float] = {}  # task name -> start timestamp
        # Supervisor health.
        self.queue_depth = 0
        self.workers = 0
        self.retries = 0
        self.timeouts = 0
        self.respawns = 0
        # Serve-side load.
        self.requests = 0
        self.in_flight = 0
        self.dedup_joins = 0
        self.shed = 0
        # Cache tiers (mirrors SimulationCache.stats tiers).
        self.cache: Dict[str, int] = {
            "exact": 0,
            "canonical": 0,
            "persistent": 0,
            "miss": 0,
        }
        self.extra: Dict[str, object] = {}
        self._samples: Deque[Tuple[float, int]] = deque()
        self._last_write = 0.0

    # ------------------------------------------------------------- updates
    def task_started(self, name: str) -> None:
        self.active[name] = time.time()

    def task_done(self, name: str, ok: bool = True) -> None:
        self.active.pop(name, None)
        self.tasks_done += 1
        if not ok:
            self.tasks_failed += 1
        now = time.time()
        self._samples.append((now, self.tasks_done))
        cutoff = now - ETA_WINDOW_S
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def note_cache(self, tier: str) -> None:
        """Only ``SimulationCache`` calls this, under its lock (the serve
        daemon looks up from two threads)."""
        self.cache[tier] = self.cache.get(tier, 0) + 1

    def update(self, **fields) -> None:
        """Bulk-set counters (``queue_depth=3, workers=2, ...``).

        Unknown names land in :attr:`extra` so call sites can publish
        ad-hoc gauges (budget state, drain phase) without schema churn.
        """
        for key, value in fields.items():
            if hasattr(self, key) and not key.startswith("_"):
                setattr(self, key, value)
            else:
                self.extra[key] = value

    # ------------------------------------------------------------ snapshot
    def throughput(self) -> float:
        """Rolling completions/second over the sample window (0.0 if cold)."""
        if len(self._samples) < 2:
            return 0.0
        (t0, d0), (t1, d1) = self._samples[0], self._samples[-1]
        if t1 <= t0:
            return 0.0
        return (d1 - d0) / (t1 - t0)

    def eta_seconds(self) -> Optional[float]:
        """Seconds to finish the remaining tasks at the rolling rate."""
        remaining = self.tasks_total - self.tasks_done
        if remaining <= 0:
            return 0.0
        rate = self.throughput()
        if rate <= 0.0:
            return None
        return remaining / rate

    def snapshot(self) -> dict:
        """The JSON document ``/statusz`` serves and the status file holds."""
        now = time.time()
        doc = {
            "schema": 1,
            "kind": "repro-status",
            "role": self.role,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "ts": round(now, 6),
            "uptime_s": round(now - self.started_at, 3),
            "tasks": {
                "total": self.tasks_total,
                "done": self.tasks_done,
                "failed": self.tasks_failed,
                "active": {
                    name: round(now - started, 3)
                    for name, started in sorted(self.active.items())
                },
            },
            "throughput_per_s": round(self.throughput(), 4),
            "eta_s": (
                None if (eta := self.eta_seconds()) is None else round(eta, 1)
            ),
            "supervisor": {
                "queue_depth": self.queue_depth,
                "workers": self.workers,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "respawns": self.respawns,
            },
            "serve": {
                "requests": self.requests,
                "in_flight": self.in_flight,
                "dedup_joins": self.dedup_joins,
                "shed": self.shed,
            },
            "cache": dict(self.cache),
        }
        if self.extra:
            doc["extra"] = {k: v for k, v in sorted(self.extra.items())}
        return doc

    # --------------------------------------------------------------- writes
    def write(self) -> Optional[str]:
        """Atomically mirror the snapshot to the status file, if configured."""
        if self.status_path is None:
            return None
        import json

        atomic_write_text(
            self.status_path,
            json.dumps(self.snapshot(), indent=1, sort_keys=True) + "\n",
        )
        self._last_write = time.time()
        return self.status_path

    def maybe_write(self, min_interval: float = WRITE_INTERVAL_S) -> Optional[str]:
        """Rate-limited :meth:`write` for call sites inside loops."""
        if self.status_path is None:
            return None
        if time.time() - self._last_write < min_interval:
            return None
        return self.write()


#: Process-global beacon — always present so update calls never branch on
#: configuration; an unconfigured beacon just accumulates in memory.
_BEACON = Beacon()


def get_beacon() -> Beacon:
    return _BEACON


def configure_beacon(
    role: str = "runner",
    run_id: Optional[str] = None,
    status_path: Optional[str] = None,
) -> Beacon:
    """Replace the global beacon with a fresh, possibly file-backed one."""
    global _BEACON
    _BEACON = Beacon(role=role, run_id=run_id, status_path=status_path)
    return _BEACON


def reset_beacon() -> Beacon:
    """Back to an in-memory-only beacon (tests)."""
    return configure_beacon()
