"""Resilient distributed design-space exploration (DESIGN.md §4k).

The flagship scale workload: sweep **array geometry × SRAM capacity/word
width × HBM bandwidth × dual-MXU policy** (the axes Fig 16 opens and the
TPU-v3 remarks extend) across the workload zoo, refining adaptively toward
the performance/area Pareto frontier instead of pricing a dense grid.

Robustness is the architecture, not a feature:

- a **sharded on-disk work queue** (:mod:`repro.dse.queue`) with
  lease-based task ownership — fsync'd lease records with expiry and
  generation fencing (:mod:`repro.resilience.lease`), so a kill -9'd or
  hung worker's tasks are reclaimed by survivors;
- **poison-task quarantine** — a config that crashes or AuditFaults its
  failure cap is parked in a replayable quarantine journal
  (:mod:`repro.resilience.quarantine`) instead of burning the error
  budget or voiding the sweep;
- a **crash-safe frontier journal** — append-only Pareto updates per
  refinement round plus an atomically-written final artifact whose bytes
  are a pure function of the design space, so ``--resume`` after any
  crash reconstructs it byte-identically (the chaos e2e compares a
  ``--jobs 4`` crash/hang/flaky/corrupt-store run against a fault-free
  serial run);
- the **persistent result store** (:mod:`repro.store`) as the simulation
  tier underneath, per-owner heartbeats read by ``repro dse status``, and
  live progress on the :class:`~repro.obs.flight.beacon.Beacon` /
  ``repro top`` console.

Entry point: ``python -m repro dse sweep|status|replay`` (see
:mod:`repro.dse.cli`), superseding the fixed-grid
``design_space_plus`` experiment for at-scale exploration.
"""

from __future__ import annotations

from .space import DesignPoint, DesignSpace, PRESETS
from .frontier import FrontierPoint, pareto_frontier

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "PRESETS",
    "FrontierPoint",
    "pareto_frontier",
]
