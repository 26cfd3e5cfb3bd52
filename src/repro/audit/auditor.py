"""Audit levels and the process-global auditor state.

This is the control plane of the sanitizer, deliberately shaped like
:mod:`repro.trace.tracer`: a module-global :class:`Auditor` whose
``level`` the instrumented models consult through :func:`enabled` /
:func:`full` before doing *any* work, so a default (``--audit off``) run
pays one attribute load + truthiness test per instrumentation point and
produces byte-identical output.

Levels:

- ``off``   — nothing runs (the default);
- ``cheap`` — O(1)-per-layer conservation checks (MAC totals, cycle
  accounting, utilization range, roofline lower bounds, DRAM byte
  bounds, FLOP equivalence);
- ``full``  — everything in ``cheap`` plus per-layer differential
  checks: the per-item reference pipeline, the schedule engine
  (:mod:`repro.perf.batch`), the memo cache and the oracle bounds must
  all agree, verified once per perf-cache fingerprint so repeated layers
  stay cheap.

Failed checks raise :class:`repro.errors.AuditFault` with a structured
payload; the auditor also counts every check and remembers recent
violations so the runner can surface ``checks run / violations`` in its
manifest and metrics.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import AuditFault
from ..resilience import faults as _faults
from ..trace import tracer as _tracer

__all__ = [
    "AuditLevel",
    "Auditor",
    "get_auditor",
    "configure",
    "enabled",
    "full",
    "level",
    "reset",
    "check",
    "snapshot",
]

#: How many violation payloads the auditor retains for the run summary.
_MAX_VIOLATIONS_KEPT = 64


class AuditLevel(enum.Enum):
    """The three audit levels, ordered ``OFF < CHEAP < FULL``."""

    OFF = "off"
    CHEAP = "cheap"
    FULL = "full"

    @classmethod
    def parse(cls, value) -> "AuditLevel":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown audit level {value!r} (choose off, cheap or full)"
            ) from None

    @property
    def rank(self) -> int:
        return ("off", "cheap", "full").index(self.value)


class Auditor:
    """Holds the active level plus check/violation accounting.

    ``enabled`` is a plain bool mirror of ``level != OFF`` so the hot
    guard in the simulators is a single attribute read, exactly like the
    tracer's ``enabled`` flag.
    """

    __slots__ = (
        "level",
        "enabled",
        "checks",
        "checks_by_invariant",
        "violations",
        "violation_records",
        "verified_keys",
        "differential_skipped",
        "_lock",
    )

    def __init__(self, level: AuditLevel = AuditLevel.OFF) -> None:
        #: The serve daemon audits on its event loop and its executor.
        self._lock = threading.Lock()
        self.level = level
        self.enabled = level is not AuditLevel.OFF
        self.checks = 0
        self.checks_by_invariant: Dict[str, int] = {}
        self.violations = 0
        self.violation_records: List[Dict[str, Any]] = []
        #: Perf-cache fingerprints whose differential check already ran —
        #: the mechanism that keeps ``full`` affordable on repeated layers.
        self.verified_keys: Set[Tuple] = set()
        #: Keys whose reference re-run was skipped for size (never silent:
        #: surfaced in :meth:`snapshot` and as a trace instant).
        self.differential_skipped = 0

    # ------------------------------------------------------------- control
    def configure(self, level) -> None:
        self.level = AuditLevel.parse(level)
        self.enabled = self.level is not AuditLevel.OFF

    def reset(self) -> None:
        """Zero the counters (level is left alone); per-experiment scoping."""
        self.checks = 0
        self.checks_by_invariant.clear()
        self.violations = 0
        self.violation_records.clear()
        self.verified_keys.clear()
        self.differential_skipped = 0

    @property
    def full(self) -> bool:
        return self.level is AuditLevel.FULL

    # ------------------------------------------------------------ checking
    def check(
        self,
        invariant: str,
        ok: bool,
        *,
        expected: Any,
        actual: Any,
        message: str = "invariant violated",
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Count one invariant evaluation; raise :class:`AuditFault` if it failed.

        The deliberate-break fault hook lives here: an active
        ``audit-break=<invariant>`` injection plan flips the matching
        check to failed so the catch → shrink → corpus pipeline can be
        exercised end to end without a real model bug.
        """
        with self._lock:
            self.checks += 1
            self.checks_by_invariant[invariant] = (
                self.checks_by_invariant.get(invariant, 0) + 1
            )
        plan = _faults.ACTIVE
        if plan is not None and plan.breaks_invariant(invariant):
            ok = False
            message = f"deliberately broken by fault injection: {message}"
        if ok:
            return
        fault = AuditFault(
            message,
            invariant=invariant,
            expected=expected,
            actual=actual,
            context=context,
        )
        with self._lock:
            self.violations += 1
            if len(self.violation_records) < _MAX_VIOLATIONS_KEPT:
                self.violation_records.append(fault.payload())
        if _tracer.enabled():
            _tracer.instant(
                "audit.violation", cat="audit", invariant=invariant
            )
            _tracer.counter("audit.violations", 1, cat="audit")
        raise fault

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly summary for manifests/telemetry."""
        return {
            "level": self.level.value,
            "checks": self.checks,
            "checks_by_invariant": dict(sorted(self.checks_by_invariant.items())),
            "violations": self.violations,
            **(
                {"differential_skipped": self.differential_skipped}
                if self.differential_skipped
                else {}
            ),
        }


#: The process-global auditor every instrumentation point consults.
_AUDITOR = Auditor()


def get_auditor() -> Auditor:
    return _AUDITOR


def configure(level) -> Auditor:
    """Set the global audit level; returns the auditor for chaining."""
    _AUDITOR.configure(level)
    return _AUDITOR


def enabled() -> bool:
    """Fast guard: is any auditing active?"""
    return _AUDITOR.enabled


def full() -> bool:
    """Fast guard: are the differential (``full``-level) checks active?"""
    return _AUDITOR.level is AuditLevel.FULL


def level() -> AuditLevel:
    return _AUDITOR.level


def reset() -> None:
    """Zero the global auditor's counters (level unchanged)."""
    _AUDITOR.reset()


def check(
    invariant: str,
    ok: bool,
    *,
    expected: Any,
    actual: Any,
    message: str = "invariant violated",
    context: Optional[Dict[str, Any]] = None,
) -> None:
    """Module-level convenience for :meth:`Auditor.check`."""
    _AUDITOR.check(
        invariant,
        ok,
        expected=expected,
        actual=actual,
        message=message,
        context=context,
    )


def snapshot() -> Dict[str, Any]:
    return _AUDITOR.snapshot()
