"""Simulation sanitizer: runtime invariant audits, differential checks, fuzzing.

Three pieces, layered like :mod:`repro.trace` and :mod:`repro.obs` with the
same zero-overhead-when-off contract (``--audit off`` keeps every run
byte-identical — the instrumented models pay one plain-bool check):

- :mod:`repro.audit.auditor` — the level state machine (``off`` /
  ``cheap`` / ``full``) plus check/violation counters; every invariant
  evaluation funnels through :func:`check`, which raises a structured
  :class:`~repro.errors.AuditFault` on violation and honours the
  ``--inject-faults audit-break=<invariant>`` hook so CI can prove the
  catch → shrink → corpus pipeline end to end;
- :mod:`repro.audit.invariants` — the conservation-law catalog
  (MAC conservation, DRAM read/write bounds, cycle-accounting identities,
  utilization ranges, roofline lower bounds, channel-first vs im2col FLOP
  equivalence) evaluated in-line by the memory models, the GPU timing
  models and, through one shared pricing tail, every TPU pricing path
  (conv, GEMM, dual-MXU, sparse, explicit im2col, residency, channel-last);
- :mod:`repro.audit.differential` — ``full``-level cross-model
  consistency: the per-item reference scheduler, the schedule engine and
  the memoized perf cache must agree bit-for-bit per layer on every
  memoized TPU path (verified once per perf-cache key, so repeated layers
  stay cheap);
- :mod:`repro.audit.fuzz` — the ``repro fuzz`` harness: seeded
  hostile-corner ConvSpec generation, full-audit execution, greedy
  deterministic shrinking of failures, and the crash-safe
  ``tests/audit/corpus/`` of minimal reproducers.

See DESIGN.md ("Simulation sanitizer") for the invariant catalog and the
fuzz/shrink loop.
"""

from .auditor import (
    AuditLevel,
    Auditor,
    check,
    configure,
    enabled,
    full,
    get_auditor,
    level,
    reset,
    snapshot,
)
from .differential import verify_layer
from .fuzz import (
    CORPUS_SCHEMA,
    DEFAULT_CORPUS_DIR,
    FuzzReport,
    load_corpus,
    run_fuzz,
    run_spec,
    sample_spec,
    shrink_spec,
    spec_from_dict,
    spec_to_dict,
    write_corpus_entry,
)
from .invariants import (
    REL_TOL,
    check_gpu_channel_first,
    check_gpu_kernel,
    check_hbm_transfer,
    check_tpu_conv,
    check_tpu_gemm,
    check_tpu_layer,
    check_tpu_multi_mxu,
    check_tpu_sparse,
    fingerprint_context,
    unique_ifmap_elements,
)

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
    "REL_TOL",
    "fingerprint_context",
    "unique_ifmap_elements",
    "check_tpu_layer",
    "check_tpu_conv",
    "check_tpu_gemm",
    "check_tpu_multi_mxu",
    "check_tpu_sparse",
    "check_hbm_transfer",
    "check_gpu_kernel",
    "check_gpu_channel_first",
    "verify_layer",
    "CORPUS_SCHEMA",
    "DEFAULT_CORPUS_DIR",
    "FuzzReport",
    "sample_spec",
    "run_spec",
    "shrink_spec",
    "spec_to_dict",
    "spec_from_dict",
    "write_corpus_entry",
    "load_corpus",
    "run_fuzz",
]
