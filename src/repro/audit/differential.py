"""Full-level differential checks: the engine must agree with the oracle.

Every memoized TPU pricing path builds its schedule with the one schedule
engine (:mod:`repro.perf.batch`, a single layer being a batch of one) and
may be served from the fingerprint-keyed simulation memo instead.  The
per-item scheduler — its builders and its scalar fold
:func:`~repro.systolic.scheduler.execute_schedule` — is the oracle.  The
bit-exactness contract between them is what the golden snapshots and the
perf layer's equivalence tests assert *offline*; at ``--audit full`` it is
enforced *at run time*, per layer, by :func:`verify_layer` on every
memoized path — channel-first conv, GEMM, multi-MXU conv (the MXU count is
a parameter), position-sparse conv, the GEMM half of explicit im2col and
residency-scheduled layers (the reference builder run with the
resident-input fill engine, drains zeroed for a resident output).  The
channel-last counterfactual is unmemoized and already executes the
reference fold, so it has nothing to differ from:

- ``diff.reference-vs-vectorized`` — rebuild the schedule with the
  per-item reference builder, execute it with the reference fold, and
  compare every :class:`~repro.systolic.scheduler.ScheduleResult` field
  bit-for-bit against the engine;
- ``diff.executor-equivalence`` — feed the *same* engine schedule through
  the reference fold (isolates executor drift from builder drift);
- ``diff.cache-coherence`` — the served (possibly memoized) result must
  equal the fresh recomputation, so a stale or corrupted cache entry is
  caught the moment it is used (the GPU kernels' only check: :func:`verify_kernel`).

Each perf-cache fingerprint is verified **once** per process (the
auditor keeps a ``verified_keys`` set), so the memoized fast path stays
fast: repeated layers cost one set lookup.

One cost control keeps ``full`` usable on real experiment sweeps:
schedules above :data:`DIFFERENTIAL_ITEM_CAP` work items skip the
O(items) reference re-runs (the per-item builder and fold are pure
Python and dwarf the engine on 50k-item GEMMs).  The cheap
``diff.cache-coherence`` comparison still runs for every key, and every
skip is counted in the auditor's ``differential_skipped`` — surfaced in
the snapshot and as a trace instant, never silent.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Tuple

from ..trace import tracer as _trace
from . import auditor as _auditor
from .invariants import fingerprint_context

__all__ = ["DIFFERENTIAL_ITEM_CAP", "verify_kernel", "verify_layer"]

#: Schedules with more work items than this skip the per-item reference
#: re-runs (counted, never silent).  1024 items ≈ a millisecond of
#: pure-Python fold, which keeps full-audit wall-clock well within 2x of
#: an unaudited run on the fig13 sweep; the biggest GEMM keys sit two
#: orders of magnitude above the cap.
DIFFERENTIAL_ITEM_CAP = 1024

#: The ScheduleResult fields two paths must agree on, bit for bit.
_FIELDS = (
    "total_cycles",
    "compute_cycles",
    "dma_cycles",
    "exposed_dma_cycles",
    "items",
    "macs",
)


def _outcome_tuple(outcome) -> Tuple:
    return tuple(getattr(outcome, f) for f in _FIELDS)


def _skip_reference(items: int, layer: str) -> None:
    """Account (loudly) for one size-capped reference re-run."""
    _auditor.get_auditor().differential_skipped += 1
    if _trace.enabled():
        _trace.instant(
            "audit.differential.size_cap",
            cat="audit",
            layer=layer,
            items=items,
            cap=DIFFERENTIAL_ITEM_CAP,
        )


def _compare(invariant: str, left, right, message: str, context) -> None:
    _auditor.check(
        invariant,
        _outcome_tuple(left) == _outcome_tuple(right),
        expected=dict(zip(_FIELDS, _outcome_tuple(left))),
        actual=dict(zip(_FIELDS, _outcome_tuple(right))),
        message=message,
        context=context,
    )


def verify_layer(
    key: Tuple,
    result,
    schedule: Callable[[], Any],
    reference: Callable[[], List[Any]],
    *,
    config,
    layer: str,
    spec=None,
    arrays: int = 1,
    **context: Any,
) -> None:
    """Differential-check one memoized layer result (once per perf-cache key).

    ``schedule`` builds the layer's engine schedule
    (:class:`~repro.perf.schedule_arrays.ScheduleArrays`) and ``reference``
    its per-item :class:`~repro.systolic.scheduler.WorkItem` list; both are
    zero-argument callables, so an already-verified key costs one set lookup
    and the pure-Python reference builder runs only under the size cap.
    ``arrays`` is the MXU count both executors round-robin the items over.
    ``config``, ``spec`` and ``context`` name the layer in a violation's
    payload; ``layer`` labels its trace span.
    """
    auditor = _auditor.get_auditor()
    if key in auditor.verified_keys:
        return
    auditor.verified_keys.add(key)
    # Imported lazily: the audit package must not pull the simulators in
    # at import time (they import *us* for instrumentation).
    from ..perf.schedule_arrays import execute_schedule_arrays
    from ..systolic.scheduler import execute_schedule

    if arrays != 1:
        context["arrays"] = arrays
    context = fingerprint_context(spec, config, **context)
    with _trace.span("audit.differential", cat="audit", layer=layer):
        built = schedule()
        engine = execute_schedule_arrays(built, arrays)
        if engine.items <= DIFFERENTIAL_ITEM_CAP:
            _compare(
                "diff.executor-equivalence",
                engine,
                execute_schedule(built.to_work_items(), arrays),
                "schedule engine disagrees with the reference fold on the "
                "same schedule",
                context,
            )
            _compare(
                "diff.reference-vs-vectorized",
                execute_schedule(reference(), arrays),
                engine,
                "reference schedule pipeline disagrees with the schedule engine",
                context,
            )
        else:
            _skip_reference(engine.items, layer)
        served = (
            result.cycles,
            result.compute_cycles,
            result.dma_cycles,
            result.exposed_dma_cycles,
            result.macs,
        )
        fresh = (
            engine.total_cycles,
            engine.compute_cycles,
            engine.dma_cycles,
            engine.exposed_dma_cycles,
            engine.macs,
        )
        _auditor.check(
            "diff.cache-coherence",
            served == fresh,
            expected=fresh,
            actual=served,
            message="memoized layer result disagrees with a fresh recomputation",
            context=context,
        )


def verify_kernel(key: Tuple, served, fresh: Callable[[], Any], spec, config) -> None:
    """``diff.cache-coherence`` for one GPU kernel value, once per key: the
    served value must equal ``fresh()``, a new call of the same model."""
    verified = _auditor.get_auditor().verified_keys
    if key not in verified:
        verified.add(key)
        recomputed = fresh()
        _auditor.check(
            "diff.cache-coherence", served == recomputed,
            expected=dataclasses.asdict(recomputed), actual=dataclasses.asdict(served),
            message="memoized kernel time disagrees with a fresh recomputation",
            context=fingerprint_context(spec, config),
        )
