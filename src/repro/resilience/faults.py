"""Deterministic fault injection: a seeded plan the whole stack consults.

A :class:`FaultPlan` is parsed from the ``--inject-faults`` spec string and
describes *exactly* which failures to manufacture, so CI can prove every
recovery path in :mod:`repro.resilience.supervisor` actually fires instead
of hoping production hits them first.  Faults come in three groups:

- **Process faults** (exercised only inside supervised worker processes):
  ``crash@I`` kills the worker with ``os._exit`` when task ``I`` starts,
  ``hang@I`` parks it until the supervisor's wall-clock timeout kills it.
  Both default to the first attempt only (``crash@I:K`` extends to the
  first ``K`` attempts), so a retry after respawn succeeds and proves the
  whole loop.
- **Exception faults** (safe in any mode): ``flaky@I[:K]`` raises
  :class:`~repro.errors.TransientFault` on the first ``K`` attempts
  (default 1 — transient-then-success), ``fatal@I`` raises
  :class:`~repro.errors.PermanentFault` on every attempt.
- **Memory-model faults**: ``dram-drop=P`` drops/retries that fraction of
  DRAM responses (each dropped response costs ``dram-delay=C`` extra core
  cycles, default 200).  The hook in :mod:`repro.memory.dram` costs one
  global ``is None`` check when no plan is active, preserving the repo's
  zero-overhead-when-off contract.
- **Checkpoint faults**: ``corrupt-checkpoint@I`` truncates the journal
  record of task ``I`` as it is written, so resume's skip-and-warn path is
  exercised end to end.
- **Store faults**: ``corrupt-store`` (or ``corrupt-store=MODE`` with
  ``truncate``/``checksum``/``schema``/``torn``/``any``) damages persistent
  result-store records as :mod:`repro.store` writes them — which record gets
  which damage is drawn deterministically from the seed and the record's
  digest — so the store's checksum/schema verification and skip-and-warn
  recompute path are provable in CI.
- **Audit faults**: ``audit-break=INVARIANT`` deliberately flips the named
  audit invariant (or every one, with ``audit-break=any``) to *failed* the
  moment :mod:`repro.audit` evaluates it, so the catch → shrink → corpus
  pipeline of ``repro fuzz`` — and the runner's AuditFault surfacing — can
  be proven without planting a real model bug.
- **Serve faults**: ``serve=conn-reset,slowloris,truncated-body,worker-crash
  [,rate=R,seed=N,poison=NAME]`` arms the serving plane's chaos campaign.
  ``worker-crash`` makes a supervised serve *worker* ``os._exit`` at rate
  ``R`` per handled request, whatever ``--workers N`` is (an in-process
  test server has no supervisor to respawn it and ignores the mode);
  ``conn-reset`` aborts that fraction of accepted connections before
  reading the request.
  ``slowloris`` and ``truncated-body`` are *client-side* behaviors: the
  campaign driver (``tools/serve_chaos.py``) reads the same plan and plays
  them against the daemon, so one spec string seeds both ends
  deterministically.  ``poison=NAME`` makes any query whose spec name
  contains ``NAME`` raise :class:`~repro.errors.AuditFault` at pricing
  time — the seeded poison spec the per-fingerprint circuit breaker must
  trip on.

All randomness derives from ``seed=N`` (default 0) plus stable event
counters — two runs of the same plan over the same work inject the same
faults.  ``plan.counters`` records how often each class fired, which is
how tests prove a fault was actually exercised.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from typing import Dict, Optional, Set

from ..errors import ConfigError, PermanentFault, TransientFault

__all__ = [
    "FaultPlan",
    "ACTIVE",
    "activate",
    "deactivate",
    "get_active",
]

#: Seconds a ``hang@I`` worker parks for — effectively forever next to any
#: sane ``--task-timeout``, while still bounded if nothing ever kills it.
HANG_SECONDS = 3600.0

#: Damage modes ``corrupt-store`` can apply to a persistent record.
STORE_CORRUPTION_MODES = ("truncate", "checksum", "schema", "torn")

#: Chaos modes the serving plane understands.  ``worker-crash`` and
#: ``conn-reset`` fire server-side; ``slowloris`` and ``truncated-body``
#: are played by the campaign client off the same plan.
SERVE_FAULT_MODES = ("conn-reset", "slowloris", "truncated-body", "worker-crash")


@dataclasses.dataclass
class FaultPlan:
    """A parsed, seeded fault-injection plan (see module docstring)."""

    seed: int = 0
    #: task index -> highest attempt number the fault still fires on.
    crash: Dict[int, int] = dataclasses.field(default_factory=dict)
    hang: Dict[int, int] = dataclasses.field(default_factory=dict)
    flaky: Dict[int, int] = dataclasses.field(default_factory=dict)
    fatal: Set[int] = dataclasses.field(default_factory=set)
    dram_drop: float = 0.0
    dram_delay_cycles: float = 200.0
    corrupt_checkpoint: Set[int] = dataclasses.field(default_factory=set)
    #: Store-record damage mode ("" = off; "any" picks per record).
    corrupt_store: str = ""
    #: Audit invariant id to break deliberately ("any" matches them all).
    audit_break: str = ""
    #: Armed serve chaos modes (subset of :data:`SERVE_FAULT_MODES`).
    serve: Set[str] = dataclasses.field(default_factory=set)
    #: Per-event probability for rate-based serve faults.
    serve_rate: float = 0.1
    #: Spec-name substring that AuditFaults at serve pricing time.
    poison_spec: str = ""
    spec: str = ""
    #: Firing counts per fault class (proof the path was exercised).
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    _dram_seq: int = dataclasses.field(default=0, repr=False)

    # ------------------------------------------------------------- parsing
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a comma-separated spec, e.g. ``"crash@1,dram-drop=0.1,seed=7"``."""
        plan = cls(spec=spec)
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if token == "corrupt-store":
                plan.corrupt_store = "any"
                continue
            if plan.serve and token in SERVE_FAULT_MODES:
                # Continuation of an open ``serve=`` list: the canonical
                # spelling is ``serve=conn-reset,slowloris,worker-crash``.
                plan.serve.add(token)
                continue
            if "@" in token:
                name, _, target = token.partition("@")
                index, _, attempts = target.partition(":")
                try:
                    idx = int(index)
                    upto = int(attempts) if attempts else 1
                except ValueError:
                    raise ConfigError(
                        "fault target must be IDX[:ATTEMPTS]",
                        field="--inject-faults", value=token,
                    ) from None
                if name == "crash":
                    plan.crash[idx] = upto
                elif name == "hang":
                    plan.hang[idx] = upto
                elif name == "flaky":
                    plan.flaky[idx] = upto
                elif name == "fatal":
                    plan.fatal.add(idx)
                elif name == "corrupt-checkpoint":
                    plan.corrupt_checkpoint.add(idx)
                else:
                    raise ConfigError(
                        "unknown fault kind",
                        field="--inject-faults", value=token,
                    )
            elif "=" in token:
                name, _, raw = token.partition("=")
                if name == "audit-break":
                    # String-valued: the invariant id (or "any") to break.
                    if not raw:
                        raise ConfigError(
                            "audit-break needs an invariant id or 'any'",
                            field="--inject-faults", value=token,
                        )
                    plan.audit_break = raw
                    continue
                if name == "serve":
                    # String-valued: the first of possibly several serve
                    # chaos modes; later bare mode tokens extend the set.
                    if raw not in SERVE_FAULT_MODES:
                        raise ConfigError(
                            "serve fault mode must be one of "
                            + "/".join(SERVE_FAULT_MODES),
                            field="--inject-faults", value=token,
                        )
                    plan.serve.add(raw)
                    continue
                if name == "poison":
                    if not raw:
                        raise ConfigError(
                            "poison needs a spec-name substring",
                            field="--inject-faults", value=token,
                        )
                    plan.poison_spec = raw
                    continue
                if name == "corrupt-store":
                    # String-valued: one damage mode, or "any" to rotate.
                    if raw not in STORE_CORRUPTION_MODES + ("any",):
                        raise ConfigError(
                            "corrupt-store mode must be one of "
                            + "/".join(STORE_CORRUPTION_MODES + ("any",)),
                            field="--inject-faults", value=token,
                        )
                    plan.corrupt_store = raw
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    raise ConfigError(
                        "fault parameter must be numeric",
                        field="--inject-faults", value=token,
                    ) from None
                if name == "seed":
                    plan.seed = int(value)
                elif name == "rate":
                    if not 0.0 <= value <= 1.0:
                        raise ConfigError(
                            "serve fault rate must be in [0, 1]",
                            field="--inject-faults", value=token,
                        )
                    plan.serve_rate = value
                elif name == "dram-drop":
                    if not 0.0 <= value <= 1.0:
                        raise ConfigError(
                            "drop probability must be in [0, 1]",
                            field="--inject-faults", value=token,
                        )
                    plan.dram_drop = value
                elif name == "dram-delay":
                    plan.dram_delay_cycles = value
                else:
                    raise ConfigError(
                        "unknown fault parameter",
                        field="--inject-faults", value=token,
                    )
            else:
                raise ConfigError(
                    "fault tokens are KIND@IDX[:N] or NAME=VALUE",
                    field="--inject-faults", value=token,
                )
        return plan

    # ---------------------------------------------------------- accounting
    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    # ------------------------------------------------------ process faults
    def maybe_process_fault(self, index: int, attempt: int) -> None:
        """Kill or park the *current process* if the plan says so.

        Only ever called from inside a supervised worker — the degraded
        serial path skips it so an injected crash cannot take down the
        supervisor itself.
        """
        if self.crash.get(index, 0) >= attempt:
            os._exit(137)  # simulate a SIGKILL'd / OOM-killed worker
        if self.hang.get(index, 0) >= attempt:
            # Park in small slices so an explicit terminate() lands fast.
            deadline = time.monotonic() + HANG_SECONDS
            while time.monotonic() < deadline:
                time.sleep(0.25)

    def maybe_raise_fault(self, index: int, attempt: int) -> None:
        """Raise an injected exception fault for this (task, attempt)."""
        if index in self.fatal:
            self._count("fatal")
            raise PermanentFault(
                f"injected permanent fault on task {index} (attempt {attempt})"
            )
        if self.flaky.get(index, 0) >= attempt:
            self._count("flaky")
            raise TransientFault(
                f"injected transient fault on task {index} (attempt {attempt})"
            )

    # ------------------------------------------------------- memory faults
    def perturb_dram_cycles(self, cycles: float) -> float:
        """Price a possibly-dropped DRAM response (deterministic per seed)."""
        if self.dram_drop <= 0.0:
            return cycles
        self._dram_seq += 1
        rng = random.Random(f"{self.seed}:dram:{self._dram_seq}")
        if rng.random() < self.dram_drop:
            self._count("dram_dropped")
            return cycles + self.dram_delay_cycles
        return cycles

    # -------------------------------------------------------- audit faults
    def breaks_invariant(self, invariant: str) -> bool:
        """True if the named audit invariant should be flipped to failed."""
        if not self.audit_break:
            return False
        if self.audit_break == "any" or self.audit_break == invariant:
            self._count("audit_break")
            return True
        return False

    # -------------------------------------------------------- serve faults
    def serve_fires(self, mode: str, seq: int) -> bool:
        """Should rate-based serve fault ``mode`` fire for event ``seq``?

        Deterministic per (seed, mode, seq): the campaign driver and the
        daemon draw identical schedules from one spec string.
        """
        if mode not in self.serve:
            return False
        rng = random.Random(f"{self.seed}:serve:{mode}:{seq}")
        if rng.random() < self.serve_rate:
            self._count(f"serve_{mode.replace('-', '_')}")
            return True
        return False

    def poison_matches(self, name: str) -> bool:
        """True if a spec named ``name`` should AuditFault at pricing time."""
        if self.poison_spec and self.poison_spec in (name or ""):
            self._count("serve_poison")
            return True
        return False

    # -------------------------------------------------------- store faults
    def store_corruption(self, digest: str) -> Optional[str]:
        """Damage mode for a persistent record being written, or None.

        Deterministic per (seed, digest): the same plan corrupts the same
        records the same way on every run, so corruption tests replay.
        """
        if not self.corrupt_store:
            return None
        self._count("store_corrupted")
        if self.corrupt_store != "any":
            return self.corrupt_store
        rng = random.Random(f"{self.seed}:store:{digest}")
        return rng.choice(STORE_CORRUPTION_MODES)

    # --------------------------------------------------- checkpoint faults
    def should_corrupt_checkpoint(self, index: int) -> bool:
        """True (once) if this task's journal record should be torn."""
        if index in self.corrupt_checkpoint:
            self.corrupt_checkpoint.discard(index)
            self._count("checkpoint_corrupted")
            return True
        return False


#: The process-wide active plan; ``None`` (the default) costs the memory
#: models a single global load + identity check per priced transfer.
ACTIVE: Optional[FaultPlan] = None


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-wide active fault plan."""
    global ACTIVE
    ACTIVE = plan
    return plan


def deactivate() -> None:
    global ACTIVE
    ACTIVE = None


def get_active() -> Optional[FaultPlan]:
    return ACTIVE
