"""Per-key circuit breakers: stop re-running work that keeps failing.

The serving plane's version of :mod:`repro.resilience.quarantine`.  The
offline planes can afford to *park* a poison config and move on — a sweep
has a work list and an end.  A daemon does not: the same hostile ConvSpec
can arrive a thousand times an hour, and re-simulating it each time burns
engine wall-clock that healthy queries needed (the paper's whole point is
that implicit-conv latency is violently shape-sensitive, so one spec can
cost orders of magnitude more than its neighbors).  A breaker converts
"deterministically fails/times out" into "fast, honest refusal":

- **closed** (healthy): requests flow; failures within ``window_s``
  accumulate; ``threshold`` consecutive-ish failures trip the breaker.
- **open**: requests are refused instantly with the recorded verdict (the
  serve layer turns that into HTTP 422 + ``Retry-After``) — no engine
  time is spent.  After ``cooldown_s`` the breaker **half-opens**.
- **half-open**: a limited number of probe requests are admitted; one
  success closes the breaker (full amnesty), one failure re-opens it with
  a fresh cooldown.

Keys are canonical-spec fingerprints, so renamed/transposed copies of a
hostile spec share one breaker — the same symmetry folding the memo cache
uses (:func:`repro.perf.cache.canonical_spec`).

Everything is deterministic given the injected ``clock`` (tests pass a
fake); the registry never grows without bound (``max_keys`` LRU evicts
the stalest *closed* breaker first).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional

from ..obs import log as obs_log

__all__ = [
    "BreakerPolicy",
    "BreakerOpen",
    "CircuitBreaker",
    "BreakerRegistry",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclasses.dataclass(frozen=True)
class BreakerPolicy:
    """Trip/cooldown knobs shared by every breaker in a registry."""

    #: Failures within ``window_s`` that trip a closed breaker.
    threshold: int = 3
    #: Seconds an open breaker refuses before half-opening.
    cooldown_s: float = 30.0
    #: Seconds a failure stays relevant to the trip count.
    window_s: float = 300.0
    #: Probe requests admitted while half-open (1 = classic breaker).
    half_open_probes: int = 1
    #: Failure records kept per breaker for the verdict payload.
    max_failures_kept: int = 8


class BreakerOpen(RuntimeError):
    """Refused by an open breaker; carries the verdict document."""

    def __init__(self, verdict: Dict[str, Any]) -> None:
        super().__init__(
            f"circuit breaker open for {verdict.get('fingerprint')} "
            f"({verdict.get('trip_reason')})"
        )
        self.verdict = verdict


class CircuitBreaker:
    """State machine for one fingerprint (see module docstring)."""

    def __init__(
        self,
        key: str,
        policy: BreakerPolicy,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.key = key
        self.policy = policy
        self.clock = clock
        self.state = CLOSED
        self.failures: List[Dict[str, Any]] = []  # within the window
        self.opened_at: Optional[float] = None
        self.probes_inflight = 0
        self.trips = 0
        self.last_touch = clock()

    # ------------------------------------------------------------- plumbing
    def _prune(self, now: float) -> None:
        cutoff = now - self.policy.window_s
        self.failures = [f for f in self.failures if f["ts"] >= cutoff]

    def cooldown_remaining(self, now: Optional[float] = None) -> float:
        if self.state != OPEN or self.opened_at is None:
            return 0.0
        now = self.clock() if now is None else now
        return max(0.0, self.policy.cooldown_s - (now - self.opened_at))

    def verdict(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The refusal document: why the breaker is open, when to retry."""
        now = self.clock() if now is None else now
        recent = self.failures[-self.policy.max_failures_kept:]
        return {
            "fingerprint": self.key,
            "state": self.state,
            "trips": self.trips,
            "trip_reason": recent[-1]["fault"] if recent else "unknown",
            "failures": [
                {"fault": f["fault"], "message": f["message"]} for f in recent
            ],
            "retry_after_s": round(self.cooldown_remaining(now), 3),
        }

    # ------------------------------------------------------------ lifecycle
    def admit(self) -> Optional[int]:
        """Gate one request; raises :class:`BreakerOpen` when refusing.

        An open breaker whose cooldown elapsed transitions to half-open
        and admits up to ``half_open_probes`` concurrent probes; further
        requests keep being refused until a probe reports back.  Returns
        ``None`` when closed, else the probe slot taken: the trip count,
        which names this half-open period (it changes only on a trip).
        """
        now = self.clock()
        self.last_touch = now
        if self.state == CLOSED:
            return None
        if self.state == OPEN:
            if self.cooldown_remaining(now) > 0.0:
                raise BreakerOpen(self.verdict(now))
            self.state = HALF_OPEN
            self.probes_inflight = 0
            obs_log.info("breaker.half_open", fingerprint=self.key)
        # HALF_OPEN: ration the probes.
        if self.probes_inflight >= self.policy.half_open_probes:
            verdict = self.verdict(now)
            verdict["state"] = HALF_OPEN
            verdict["retry_after_s"] = round(self.policy.cooldown_s, 3)
            raise BreakerOpen(verdict)
        self.probes_inflight += 1
        return self.trips

    def record_success(self) -> None:
        """A request for this key completed: close and forget everything."""
        if self.state != CLOSED:
            obs_log.info(
                "breaker.closed", fingerprint=self.key, was=self.state
            )
        self.state = CLOSED
        self.failures = []
        self.opened_at = None
        self.probes_inflight = 0
        self.last_touch = self.clock()

    def record_failure(self, fault: str, message: str) -> bool:
        """Count one failure; returns True when this call *trips* the breaker."""
        now = self.clock()
        self.last_touch = now
        self._prune(now)
        self.failures.append({"ts": now, "fault": fault, "message": message})
        if self.state == HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self.state = OPEN
            self.opened_at = now
            self.probes_inflight = 0
            self.trips += 1
            obs_log.warning(
                "breaker.reopened", fingerprint=self.key, fault=fault
            )
            return True
        if self.state == CLOSED and len(self.failures) >= self.policy.threshold:
            self.state = OPEN
            self.opened_at = now
            self.trips += 1
            obs_log.warning(
                "breaker.tripped",
                fingerprint=self.key, fault=fault,
                failures=len(self.failures),
            )
            return True
        return False


class BreakerRegistry:
    """All breakers of one service, keyed by canonical fingerprint."""

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        max_keys: int = 4096,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self.clock = clock
        self.max_keys = max_keys
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.trips = 0
        self.fast_fails = 0

    def _get(self, key: str) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            if len(self._breakers) >= self.max_keys:
                self._evict()
            breaker = CircuitBreaker(key, self.policy, self.clock)
            self._breakers[key] = breaker
        return breaker

    def _evict(self) -> None:
        """Drop the stalest closed breaker (open ones hold real verdicts)."""
        closed = [b for b in self._breakers.values() if b.state == CLOSED]
        pool = closed or list(self._breakers.values())
        stalest = min(pool, key=lambda b: b.last_touch)
        del self._breakers[stalest.key]

    # -------------------------------------------------------------- gating
    def admit(self, key: str) -> Optional[int]:
        """Raise :class:`BreakerOpen` if ``key``'s breaker refuses; else
        the half-open probe slot taken (``None`` when closed)."""
        breaker = self._breakers.get(key)
        if breaker is None:
            return None  # no history: implicitly closed, allocate nothing
        try:
            return breaker.admit()
        except BreakerOpen:
            self.fast_fails += 1
            raise

    def release_probe(self, key: str, slot: Optional[int]) -> None:
        """Give back the half-open probe slot :meth:`admit` returned.

        For a probe that will never report back (refused after admission,
        or withdrawn before it was priced): without its slot every later
        request for ``key`` would be refused.  A slot from an earlier
        half-open period frees nothing, so it cannot free a later probe's.
        """
        breaker = self._breakers.get(key)
        if (
            breaker is not None and breaker.state == HALF_OPEN
            and breaker.trips == slot
        ):
            breaker.probes_inflight = max(0, breaker.probes_inflight - 1)

    def record_failure(self, key: str, fault: str, message: str) -> bool:
        tripped = self._get(key).record_failure(fault, message)
        if tripped:
            self.trips += 1
        return tripped

    def record_success(self, key: str) -> None:
        breaker = self._breakers.get(key)
        if breaker is not None:
            if breaker.state == CLOSED and not breaker.failures:
                return  # hot path: nothing to reset
            breaker.record_success()

    # ------------------------------------------------------------ exposure
    def open_keys(self) -> List[str]:
        return sorted(
            k for k, b in self._breakers.items() if b.state != CLOSED
        )

    def snapshot(self) -> Dict[str, Any]:
        """Status document for ``/statusz`` / the chaos harness."""
        return {
            "keys": len(self._breakers),
            "open": self.open_keys(),
            "trips": self.trips,
            "fast_fails": self.fast_fails,
        }
