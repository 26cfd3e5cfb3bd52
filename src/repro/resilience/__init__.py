"""Fault-tolerant run engine: checkpoint/resume, supervision, fault injection.

Four pieces, designed so a hung worker, an OOM'd process or a mid-run
``kill -9`` can no longer void hours of simulation:

- :mod:`repro.resilience.atomic` — crash-safe artifact writes
  (write-to-temp + ``os.replace``, fsync'd single-line appends);
- :mod:`repro.resilience.checkpoint` — the ``results/<run_id>/
  checkpoint.jsonl`` journal of completed experiment results keyed by
  ``(experiment, config-fingerprint)``, powering ``repro run --resume``;
- :mod:`repro.resilience.supervisor` — the supervision engine every
  ``repro run`` goes through: per-task wall-clock timeouts, seeded
  exponential backoff retries, pool respawn after crashes, graceful
  degradation to serial execution, all accounted in an error budget;
- :mod:`repro.resilience.faults` — deterministic, seeded fault injection
  (``--inject-faults``) spanning worker crashes/hangs, transient and
  permanent exceptions, DRAM response drops, SRAM latency/capacity flips
  and checkpoint-record corruption, so CI proves every recovery path;
- :mod:`repro.resilience.lease` — fsync'd lease files with expiry,
  generation fencing and steal-on-expiry, the ownership primitive behind
  the :mod:`repro.dse` sharded work queue;
- :mod:`repro.resilience.quarantine` — the replayable poison-task journal
  (park a config that keeps crashing/AuditFaulting instead of retrying it
  forever or failing the sweep);
- :mod:`repro.resilience.breaker` — per-fingerprint circuit breakers for
  the serving plane (closed → open → half-open), turning a spec that
  deterministically fails into a fast, honest 422 instead of a re-run.

The fault taxonomy itself (:class:`~repro.errors.TransientFault`,
:class:`~repro.errors.PermanentFault`, :class:`~repro.errors.AuditFault`,
:class:`~repro.errors.ConfigError`) lives in :mod:`repro.errors`.

Zero-overhead contract: with no resilience flags, nothing here runs on
the hot path beyond one ``is None`` check in the memory models, and every
default run's stdout and artifacts stay byte-identical.
"""

from ..errors import (
    AuditFault,
    ConfigError,
    FaultError,
    PermanentFault,
    ReproError,
    TransientFault,
    classify_error,
)
from .atomic import atomic_write_bytes, atomic_write_text, crash_safe_append
from .faults import FaultPlan, activate, deactivate, get_active
from .lease import LeaseRecord, read_lease, release, renew, try_acquire

__all__ = [
    "ReproError",
    "ConfigError",
    "FaultError",
    "TransientFault",
    "PermanentFault",
    "AuditFault",
    "classify_error",
    "atomic_write_bytes",
    "atomic_write_text",
    "crash_safe_append",
    "FaultPlan",
    "activate",
    "deactivate",
    "get_active",
    "LeaseRecord",
    "read_lease",
    "try_acquire",
    "renew",
    "release",
    # Imported lazily to keep the memory substrates' fault hooks cheap and
    # cycle-free: repro.resilience.checkpoint / repro.resilience.supervisor /
    # repro.resilience.quarantine / repro.resilience.breaker (which pull in
    # the obs layer).
    "checkpoint",
    "supervisor",
    "quarantine",
    "breaker",
]


def __getattr__(name: str):
    # Lazy submodule access: `repro.resilience.checkpoint` pulls in the
    # harness/report layer, which must not load just because a memory
    # model touched the fault hooks.
    if name in ("checkpoint", "supervisor", "quarantine", "breaker"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
