"""Seeded ConvSpec fuzzing with greedy shrink and a crash-safe corpus.

``repro fuzz`` drives this module: sample random convolution specs biased
toward the corners where implicit-im2col implementations historically
break (dilation, stride larger than the kernel, channel counts that do
not divide the array, 1×1 and 1×N kernels, batch 1, tiny or degenerate
images), run every spec through the TPU and GPU models under **full**
audit, and treat any :class:`~repro.errors.AuditFault` — or any
unclassified exception from deep inside a model — as a finding.

A finding is then **shrunk**: a deterministic greedy pass walks the spec
fields in a fixed order, repeatedly trying smaller values (floor first,
then bisection) and keeping any reduction that still reproduces the same
invariant violation, until no field can shrink further.  The minimal
reproducer is appended to ``tests/audit/corpus/`` with the PR-4 atomic
write helpers, so every found case becomes a permanent regression input
replayed by the test suite.

Everything derives from ``random.Random(seed)`` — same seed, same specs,
same shrinks, same corpus filenames.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
from typing import Any, Callable, Dict, List, Optional

from ..core.conv_spec import ConvSpec
from ..errors import AuditFault, ConfigError
from ..resilience.atomic import atomic_write_text
from . import auditor as _auditor

__all__ = [
    "CORPUS_SCHEMA",
    "DEFAULT_CORPUS_DIR",
    "SPEC_FIELDS",
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

CORPUS_SCHEMA = 1
DEFAULT_CORPUS_DIR = "tests/audit/corpus"

#: Shrink order: batch and channels first (they dominate runtime), then
#: spatial dims, then the filter, then the lowering parameters.
SPEC_FIELDS = (
    "n", "c_in", "h_in", "w_in", "c_out",
    "h_filter", "w_filter", "stride", "padding", "dilation",
)

#: Per-field shrink floors (a valid ConvSpec needs positives; padding 0).
_FLOORS = {field: 1 for field in SPEC_FIELDS}
_FLOORS["padding"] = 0

#: Hostile-corner value pools the sampler draws from.
_CHANNELS = (1, 3, 8, 16, 24, 32, 48, 96, 127, 128, 129, 160, 192)
_KERNELS = ((1, 1), (1, 3), (3, 1), (1, 7), (3, 3), (5, 5), (7, 7), (2, 2))
_BATCHES = (1, 1, 1, 2, 4, 8)  # batch 1 is the hostile default


@dataclasses.dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    specs_run: int = 0
    rejected: int = 0
    failures: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    corpus_paths: List[str] = dataclasses.field(default_factory=list)

    @property
    def violations(self) -> int:
        return len(self.failures)


def _tpu_configs() -> Dict[str, Any]:
    """Named TPU config variants the fuzzer sweeps (all valid machines)."""
    from ..systolic.config import TPU_V2

    return {
        "tpu_v2": TPU_V2,
        # One vector memory per PE row is a structural TPUConfig invariant,
        # so geometry sweeps must move num_vector_memories in lockstep.
        "tpu_v2-64x64": dataclasses.replace(
            TPU_V2, array_rows=64, array_cols=64, num_vector_memories=64
        ),
        "tpu_v2-256x256": dataclasses.replace(
            TPU_V2, array_rows=256, array_cols=256, num_vector_memories=256
        ),
    }


def sample_spec(rng: random.Random) -> ConvSpec:
    """One random spec draw; may raise :class:`ConfigError` (caller retries).

    Biases: small batches, non-array-divisible channels, degenerate and
    rectangular kernels, strides that can exceed the kernel, dilation.
    """
    h_filter, w_filter = rng.choice(_KERNELS)
    stride = rng.choice((1, 1, 1, 2, 2, 3, 4))  # stride > kernel happens
    dilation = rng.choice((1, 1, 1, 2, 3))
    padding = rng.choice((0, 0, 1, 1, 2, 3))
    h_in = rng.choice((1, 4, 7, 8, 14, 16, 23, 28, 32))
    w_in = rng.choice((1, 4, 7, 8, 14, 16, 23, 28, 32))
    return ConvSpec(
        n=rng.choice(_BATCHES),
        c_in=rng.choice(_CHANNELS),
        h_in=h_in,
        w_in=w_in,
        c_out=rng.choice(_CHANNELS),
        h_filter=h_filter,
        w_filter=w_filter,
        stride=stride,
        padding=padding,
        dilation=dilation,
        name="fuzz",
    )


def _sample_valid_spec(rng: random.Random, max_tries: int = 64):
    """Draw until a spec constructs; returns ``(spec, rejected_count)``."""
    rejected = 0
    for _ in range(max_tries):
        try:
            return sample_spec(rng), rejected
        except ConfigError:
            rejected += 1
    # Geometrically impossible draws exhausted the budget — fall back to a
    # spec that always constructs so the campaign length stays deterministic.
    return ConvSpec(1, 1, 8, 8, 1, 3, 3, name="fuzz"), rejected


def run_spec(
    spec: ConvSpec, tpu_config: str = "tpu_v2", gpu: bool = True
) -> Optional[Dict[str, Any]]:
    """Run one spec through the models under full audit: the TPU conv,
    GEMM, dual-MXU, explicit-im2col, channel-last and position-sparse
    (every other position kept) paths, then the GPU channel-first kernel.

    Returns ``None`` on success, or a failure record: the AuditFault's
    structured payload, or — for an unclassified exception from inside a
    model, itself a finding — the exception type and message.
    """
    from ..core.sparsity import PositionMask
    from ..gpu.channel_first import channel_first_conv_time
    from ..gpu.config import V100
    from ..systolic.channel_last_schedule import simulate_conv_channel_last
    from ..systolic.dual_mxu import port_budget_allows, simulate_conv_dual_mxu
    from ..systolic.explicit_schedule import simulate_conv_explicit_tpu
    from ..systolic.simulator import TPUSim
    from ..systolic.sparse_schedule import simulate_conv_sparse

    config = _tpu_configs()[tpu_config]
    _auditor.configure("full")
    try:
        sim = TPUSim(config)
        sim.simulate_conv(spec)
        sim.simulate_gemm(spec.gemm_shape(), name="fuzz-gemm")
        if port_budget_allows(2, config):
            simulate_conv_dual_mxu(spec, arrays=2, config=config)
        simulate_conv_explicit_tpu(spec, config)
        simulate_conv_channel_last(spec, config)
        every_other = tuple(range(0, spec.positions, 2))
        simulate_conv_sparse(spec, PositionMask(spec, every_other), config)
        if gpu:
            channel_first_conv_time(spec, V100)
    except AuditFault as fault:
        record = fault.payload()
        record["error_type"] = "AuditFault"
        return record
    except Exception as err:  # a traceback from a model IS a finding
        return {
            "invariant": None,
            "expected": None,
            "actual": None,
            "context": {},
            "message": f"{type(err).__name__}: {err}",
            "error_type": type(err).__name__,
        }
    return None


def _same_failure(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Shrink only while the *same* bug reproduces (id + exception type)."""
    return (
        a.get("invariant") == b.get("invariant")
        and a.get("error_type") == b.get("error_type")
    )


def _shrink_candidates(value: int, floor: int) -> List[int]:
    """Smaller values to try, most aggressive first; deterministic."""
    candidates = []
    if value > floor:
        candidates.append(floor)
        midpoint = floor + (value - floor) // 2
        if midpoint not in (floor, value):
            candidates.append(midpoint)
        if value - 1 not in candidates and value - 1 >= floor:
            candidates.append(value - 1)
    return candidates


def shrink_spec(
    spec: ConvSpec,
    failure: Dict[str, Any],
    tpu_config: str = "tpu_v2",
    max_attempts: int = 400,
    reproduce: Optional[Callable[[ConvSpec], Optional[Dict[str, Any]]]] = None,
) -> ConvSpec:
    """Greedy field-by-field reduction to a minimal reproducer.

    Walks :data:`SPEC_FIELDS` in order, adopting any smaller value that
    still reproduces the same failure, and repeats until a full pass
    changes nothing (or the attempt budget runs out).  Fully
    deterministic — no randomness, fixed field and candidate order.
    """
    if reproduce is None:
        reproduce = lambda s: run_spec(s, tpu_config)  # noqa: E731
    attempts = 0
    current = spec
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for field in SPEC_FIELDS:
            value = getattr(current, field)
            for candidate_value in _shrink_candidates(value, _FLOORS[field]):
                if attempts >= max_attempts:
                    return current
                attempts += 1
                try:
                    candidate = dataclasses.replace(
                        current, **{field: candidate_value}
                    )
                except ConfigError:
                    continue  # geometrically invalid reduction
                outcome = reproduce(candidate)
                if outcome is not None and _same_failure(outcome, failure):
                    current = candidate
                    progressed = True
                    break  # restart this field from its new, smaller value
    return current


# --------------------------------------------------------------------- corpus
def spec_to_dict(spec: ConvSpec) -> Dict[str, int]:
    return {field: getattr(spec, field) for field in SPEC_FIELDS}


def spec_from_dict(payload: Dict[str, int]) -> ConvSpec:
    return ConvSpec(name="corpus", **{f: int(payload[f]) for f in SPEC_FIELDS})


def _case_id(entry: Dict[str, Any]) -> str:
    canonical = json.dumps(
        {"spec": entry["spec"], "tpu_config": entry["tpu_config"],
         "invariant": entry.get("invariant")},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_corpus_entry(
    corpus_dir,
    spec: ConvSpec,
    tpu_config: str,
    failure: Optional[Dict[str, Any]] = None,
    shrunk_from: Optional[ConvSpec] = None,
    seed: Optional[int] = None,
    injected: Optional[str] = None,
) -> pathlib.Path:
    """Atomically write one corpus case; returns its path.

    The filename is a content hash, so re-finding the same minimal case is
    idempotent and concurrent fuzzers cannot tear each other's files.
    """
    entry: Dict[str, Any] = {
        "schema": CORPUS_SCHEMA,
        "spec": spec_to_dict(spec),
        "tpu_config": tpu_config,
        "invariant": (failure or {}).get("invariant"),
        "error_type": (failure or {}).get("error_type"),
        "message": (failure or {}).get("message"),
        "seed": seed,
        "injected": injected,
        "shrunk_from": spec_to_dict(shrunk_from) if shrunk_from else None,
    }
    entry["id"] = _case_id(entry)
    corpus_dir = pathlib.Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"case-{entry['id']}.json"
    atomic_write_text(path, json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(corpus_dir) -> List[Dict[str, Any]]:
    """Every corpus entry, sorted by filename for determinism."""
    corpus_dir = pathlib.Path(corpus_dir)
    entries = []
    for path in sorted(corpus_dir.glob("case-*.json")):
        payload = json.loads(path.read_text())
        payload["_path"] = str(path)
        entries.append(payload)
    return entries


# ------------------------------------------------------------------- campaign
def run_fuzz(
    specs: int = 200,
    seed: int = 0,
    corpus_dir=DEFAULT_CORPUS_DIR,
    shrink: bool = True,
    write_corpus: bool = True,
    inject_faults: Optional[str] = None,
    gpu: bool = True,
    log: Callable[[str], None] = print,
) -> FuzzReport:
    """Run a fuzz campaign; the CLI's exit code is ``report.violations > 0``."""
    from ..resilience import faults as _faults

    rng = random.Random(seed)
    config_names = list(_tpu_configs())
    plan = None
    if inject_faults:
        plan = _faults.activate(_faults.FaultPlan.parse(inject_faults))
    report = FuzzReport()
    try:
        for index in range(specs):
            # Mostly the reference machine; every 5th spec sweeps a variant.
            tpu_config = (
                config_names[0] if index % 5 else rng.choice(config_names)
            )
            spec, rejected = _sample_valid_spec(rng)
            report.rejected += rejected
            report.specs_run += 1
            failure = run_spec(spec, tpu_config, gpu=gpu)
            if failure is None:
                continue
            log(
                f"fuzz: violation on spec {index} "
                f"[{failure.get('invariant') or failure.get('error_type')}]: "
                f"{spec.describe()}"
            )
            minimal = spec
            if shrink:
                minimal = shrink_spec(spec, failure, tpu_config)
                log(f"fuzz: shrunk to minimal reproducer: {minimal.describe()}")
            failure["spec"] = spec_to_dict(minimal)
            failure["tpu_config"] = tpu_config
            report.failures.append(failure)
            if write_corpus:
                path = write_corpus_entry(
                    corpus_dir,
                    minimal,
                    tpu_config,
                    failure=failure,
                    shrunk_from=spec if shrink and minimal != spec else None,
                    seed=seed,
                    injected=inject_faults,
                )
                report.corpus_paths.append(str(path))
                log(f"fuzz: wrote corpus case {path}")
    finally:
        if plan is not None:
            _faults.deactivate()
    log(
        f"fuzz: {report.specs_run} specs, {report.rejected} invalid draws "
        f"resampled, {report.violations} violation(s)"
    )
    return report
