"""``repro serve`` — a crash-only conv-timing daemon over HTTP/JSON.

A stdlib-``asyncio`` front-end for the simulation stack: clients POST a
ConvSpec (plus optional hardware-config overrides) and get back the same
:class:`~repro.systolic.simulator.LayerResult` numbers a ``repro run``
would compute — served from the in-process memo, the persistent store
(:mod:`repro.store`), or a fresh batched simulation, in that order.

Request handling is built for fleets of duplicate queries:

- **warm hits at admission**: a query the memo or the store already
  answers is answered when it is admitted, at every rung, through the
  simulator's pricing tail (:meth:`TPUSim.lookup_conv`: counted, audited
  and traced like any priced layer) — it never queues;
- **dedup**: misses are keyed by the simulator's own cache key; a query
  identical to a miss already queued or pricing joins that miss's flight
  — N clients asking for ResNet conv3_1 cost one simulation, and each
  query keeps its own future;
- **batching**: queued misses are drained every ``batch_window_s`` (or
  when ``max_batch`` accumulate) and grouped by hardware config into
  single :meth:`TPUSim.simulate_conv_batch` calls, so the batched
  schedule engine amortizes pricing exactly as the harness does;
- **one outcome per query**: every query admission sees is one task on
  the service's :class:`~repro.resilience.supervisor.ErrorBudget`, and it
  ends in exactly one of ``succeeded`` or ``failed``, with the fault
  class its client saw, counted once when the query's own future is
  done; a batch refused at admission refuses every query in it;
- **load shedding**: when the pending backlog of misses exceeds the
  configured budget a miss is refused with HTTP 429 + ``Retry-After``
  (a ``LoadShed`` fault) instead of growing the queue without bound;
- **graceful drain**: shutdown stops admitting (503 + ``Retry-After``),
  finishes every in-flight simulation, and answers the clients that were
  already queued.

And for everything the fault injector can throw at it (DESIGN.md §4l):

- **per-request deadlines** — ``X-Repro-Deadline-Ms`` (or
  ``--default-deadline-ms``) bounds how long a client waits; a blown
  deadline answers 504 + ``Retry-After`` and charges each query still
  unanswered a ``DeadlineExceeded``; a queued miss whose *last* waiter
  gave up is withdrawn unpriced, so abandoned work never reaches the
  engine;
- **per-fingerprint circuit breakers**
  (:mod:`repro.resilience.breaker`) — repeated AuditFault / crash /
  deadline overrun attributed to one *canonical* spec fingerprint trips
  an open breaker: later requests for that spec get a fast 422 carrying
  the quarantine verdict instead of re-simulating; half-open probes
  re-admit after cooldown;
- **a degradation ladder** driven by an SLO watchdog over the error
  ratio and p99 latency: ``full`` batched simulation → ``serial``
  simulation → ``store-only`` (warm hits served, misses an honest 503)
  → ``drain``.  The current rung is exposed in ``/statusz``, ``repro
  top`` and the ``repro_serve_degraded`` gauge, with a flight-recorder
  dump on every rung change;
- **protocol hardening** — slowloris headers, truncated or oversized
  bodies and garbage JSON each get a clean 4xx/408 within a bounded
  time, never a hung connection or a dead worker;
- **supervised workers** — every daemon forks its ``--workers N``
  (default 1) request workers behind a supervising parent that owns the
  listener socket (:mod:`repro.store.workers`): heartbeat liveness,
  seeded exponential-backoff respawn, crash-budget degradation to a
  single worker rather than death.

Endpoints: ``GET /healthz`` (liveness: the process is up), ``GET
/readyz`` (readiness: 503 while draining or degraded past ``serial``),
``GET /statusz`` (live beacon snapshot for ``repro top``), ``GET
/metrics`` (Prometheus exposition, including per-route latency
histograms and the breaker/degradation series), ``POST /v1/conv`` (one
query), ``POST /v1/conv/batch`` (``{"queries": [...]}``).  Everything is
stdlib-only — no web framework.

Observability: every request gets a W3C-style trace context — parsed from
an incoming ``traceparent`` header or freshly minted — echoed back as
``X-Repro-Trace-Id`` alongside ``X-Repro-Run-Id``.  Under ``--trace`` the
daemon records a connected span tree per request (``serve.request`` →
``serve.batch`` → cache probe → engine spans) and writes the Chrome
export on drain.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import functools
import hashlib
import json
import math
import signal
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core.conv_spec import ConvSpec
from ..core.layouts import Layout
from ..errors import AuditFault, ConfigError
from ..obs import log as obs_log
from ..obs.flight import beacon as flight_beacon
from ..obs.flight.recorder import maybe_dump
from ..obs.prom import render_prometheus
from ..perf.cache import SIM_CACHE, conv_keys
from ..resilience import faults as fault_injection
from ..resilience.breaker import BreakerOpen, BreakerPolicy, BreakerRegistry
from ..resilience.supervisor import ErrorBudget
from ..systolic.config import TPU_V2, TPUConfig
from ..systolic.simulator import TPUSim, tpu_multi_tile_policy
from ..trace import context as trace_context
from ..trace import tracer as trace
from ..trace.metrics import MetricsRegistry

__all__ = [
    "ServeConfig",
    "BadRequest",
    "LoadShed",
    "Draining",
    "StoreOnlyMiss",
    "ProtocolError",
    "LADDER_RUNGS",
    "Query",
    "slo_decision",
    "SimulationService",
    "ReproServer",
    "http_request",
    "http_request_retry",
    "result_payload",
    "serve_main",
    "serve",
    "add_serve_args",
]

#: ConvSpec fields a query's ``spec`` object may set.
SPEC_FIELDS = frozenset(
    {"n", "c_in", "h_in", "w_in", "c_out", "h_filter", "w_filter",
     "stride", "padding", "dilation", "name"}
)

#: TPUConfig scalar fields a query's ``config`` object may override.
CONFIG_FIELDS = frozenset(
    {"array_rows", "array_cols", "clock_ghz", "sram_word_elems",
     "sram_elem_bytes", "unified_sram_bytes", "vector_alus",
     "compute_elem_bytes", "weight_load_cycles_per_row",
     "tile_setup_cycles", "weight_double_buffer"}
)

#: The JSON values each dataclass annotation accepts (``ConvSpec`` and
#: ``TPUConfig`` annotate with strings), and how a refusal names them.
#: ``true``/``false`` are not numbers here, though Python's bool is an int.
JSON_TYPES = {
    "int": ("an integer",
            lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number",
              lambda v: (isinstance(v, int) and not isinstance(v, bool))
              or (isinstance(v, float) and math.isfinite(v))),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def _check_json_types(kind: str, cls: type, values: Dict[str, Any]) -> None:
    """Raise :class:`BadRequest` naming the first field of ``values`` whose
    JSON value does not fit its ``cls`` annotation."""
    annotations = {f.name: f.type for f in dataclasses.fields(cls)}
    for name, value in values.items():
        expected, accepts = JSON_TYPES[annotations[name]]
        if not accepts(value):
            raise BadRequest(
                f"{kind} field {name!r} must be {expected}, "
                f"got {json.dumps(value)}"
            )


#: The degradation ladder, healthiest first.  Every rung but ``drain``
#: answers warm memo/store hits at admission; they differ in the misses:
#: ``full`` batches them through the batched schedule engine, ``serial``
#: prices one at a time (exact failure attribution, no batch blast
#: radius), ``store-only`` honestly 503s them; ``drain`` refuses all
#: simulation work.
LADDER_RUNGS = ("full", "serial", "store-only", "drain")
RUNG_FULL, RUNG_SERIAL, RUNG_STORE_ONLY, RUNG_DRAIN = range(4)


class BadRequest(ValueError):
    """The request body cannot be turned into a simulation query."""


class LoadShed(RuntimeError):
    """Admission refused: the pending backlog exceeds the error budget."""


class Draining(RuntimeError):
    """Admission refused: the server is shutting down (or rung = drain)."""


class StoreOnlyMiss(RuntimeError):
    """Admission refused: degraded to store-only and this spec is cold."""


class ProtocolError(Exception):
    """A malformed/hostile HTTP exchange; carries the status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclasses.dataclass
class ServeConfig:
    """Tunables of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 8707
    #: Pending-miss budget; a miss admitted beyond it sheds with HTTP 429.
    max_pending: int = 256
    #: Seconds the batcher waits to let concurrent misses coalesce (warm
    #: hits are answered at admission and never wait).
    batch_window_s: float = 0.005
    #: Queries drained into one ``simulate_conv_batch`` call at most.
    max_batch: int = 64
    #: Persistent store directory ("" = serve from memo only).
    store_dir: str = ""
    #: Request workers the supervisor forks (1 = one supervised worker).
    workers: int = 1
    #: Deadline applied when no ``X-Repro-Deadline-Ms`` header arrives.
    default_deadline_ms: float = 30_000.0
    #: Request bodies beyond this answer 413 without being read.
    max_body_bytes: int = 1 << 20
    #: Seconds a client may take to finish sending headers (slowloris cap).
    header_timeout_s: float = 10.0
    #: Seconds a client may take to deliver a Content-Length'd body.
    body_timeout_s: float = 10.0
    #: Failures within the breaker window that trip a fingerprint open.
    breaker_threshold: int = 3
    #: Seconds an open breaker refuses before half-opening one probe.
    breaker_cooldown_s: float = 30.0
    #: SLO watchdog: p99 latency (ms) above which the ladder escalates.
    slo_p99_ms: float = 5_000.0
    #: SLO watchdog: error ratio above which the ladder escalates.
    slo_error_ratio: float = 0.5
    #: Request samples the watchdog evaluates over (sliding window).
    slo_window: int = 128
    #: Samples required before the watchdog acts at all.
    slo_min_samples: int = 16
    #: Seconds between watchdog evaluations.
    slo_interval_s: float = 1.0
    #: Clean seconds on a degraded rung before stepping back down.
    slo_recovery_s: float = 10.0
    #: Run the SLO watchdog task (tests drive ``set_rung`` directly).
    watchdog: bool = True
    #: ``Retry-After`` seconds suggested on 429 load sheds.
    retry_after_shed_s: float = 1.0
    #: ``Retry-After`` seconds suggested on 503 drain/degraded refusals.
    retry_after_drain_s: float = 5.0


def spec_fingerprint(
    config: TPUConfig, spec: ConvSpec, resolved_group: int, layout: Layout
) -> str:
    """Canonical fingerprint a circuit breaker keys on.

    Built from the same symmetry-folded key the memo cache shares work
    under (:func:`~repro.perf.cache.conv_keys`): renamed / transposed /
    dilation-folded copies of one hostile spec meet one breaker.
    """
    _, key = conv_keys(config, spec, resolved_group, layout)
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class Query:
    """One admitted, validated timing query."""

    spec: ConvSpec
    config: TPUConfig
    group_size: Optional[int]
    layout: Layout
    key: Tuple  # the simulator's exact cache key — also the dedup key
    #: Canonical-spec digest the circuit breaker tracks this query under.
    fingerprint: str = ""
    #: The request's trace context (excluded from equality/hashing so two
    #: identical queries from different requests still dedup onto one key).
    ctx: Optional[trace_context.TraceContext] = dataclasses.field(
        default=None, compare=False
    )

    @classmethod
    def parse(cls, payload: Any) -> "Query":
        """Validate a JSON body into a query (raises :class:`BadRequest`)."""
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        raw_spec = payload.get("spec")
        if not isinstance(raw_spec, dict):
            raise BadRequest("missing 'spec' object")
        unknown = set(raw_spec) - SPEC_FIELDS
        if unknown:
            raise BadRequest(f"unknown spec fields: {sorted(unknown)}")
        _check_json_types("spec", ConvSpec, raw_spec)
        overrides = payload.get("config", {})
        if not isinstance(overrides, dict):
            raise BadRequest("'config' must be an object of TPUConfig overrides")
        unknown = set(overrides) - CONFIG_FIELDS
        if unknown:
            raise BadRequest(f"unknown config fields: {sorted(unknown)}")
        _check_json_types("config", TPUConfig, overrides)
        raw_layout = payload.get("layout", Layout.NHWC.value)
        try:
            layout = Layout(raw_layout)
        except ValueError:
            raise BadRequest(f"unknown layout {raw_layout!r}") from None
        group_size = payload.get("group_size")
        if group_size is not None and (
            isinstance(group_size, bool)
            or not isinstance(group_size, int)
            or group_size <= 0
        ):
            raise BadRequest("'group_size' must be a positive integer")
        try:
            spec = ConvSpec(**raw_spec)
            if overrides:
                if "array_rows" in overrides and "num_vector_memories" not in overrides:
                    # TPUConfig ties one vector memory to each PE row.
                    overrides = dict(
                        overrides, num_vector_memories=overrides["array_rows"]
                    )
                config = dataclasses.replace(TPU_V2, **overrides)
            else:
                config = TPU_V2
        except (ConfigError, TypeError) as err:
            raise BadRequest(str(err)) from None
        resolved = (
            group_size
            if group_size is not None
            else tpu_multi_tile_policy(spec, config.array_rows)
        )
        return cls(
            spec=spec, config=config, group_size=group_size,
            layout=layout, key=conv_keys(config, spec, resolved, layout)[0],
            fingerprint=spec_fingerprint(config, spec, resolved, layout),
        )


def result_payload(query: Query, result) -> Dict[str, Any]:
    """JSON response body for one served LayerResult."""
    clock_hz = query.config.clock_ghz * 1e9
    return {
        "name": result.name,
        "cycles": result.cycles,
        "seconds": result.cycles / clock_hz,
        "tflops": result.tflops,
        "utilization": result.utilization,
        "compute_cycles": result.compute_cycles,
        "dma_cycles": result.dma_cycles,
        "exposed_dma_cycles": result.exposed_dma_cycles,
        "macs": result.macs,
        "group_size": result.group_size,
        "layout": query.layout.value,
    }


def slo_decision(
    samples: List[Tuple[float, float, bool]],
    rung: int,
    config: ServeConfig,
    now: float,
    last_change: float,
) -> Optional[str]:
    """Pure ladder policy: ``"escalate"``, ``"recover"`` or ``None``.

    ``samples`` are ``(ts, latency_ms, ok)`` per completed query request.
    Escalation needs ``slo_min_samples`` of evidence and a breached SLO
    (p99 latency or error ratio); recovery needs a clean window *and*
    ``slo_recovery_s`` of distance from the last rung change, so the
    ladder cannot flap.  The watchdog never escalates past ``store-only``
    — ``drain`` is reserved for shutdown.
    """
    if rung >= RUNG_DRAIN:
        return None
    breached = False
    if len(samples) >= config.slo_min_samples:
        latencies = sorted(ms for _, ms, _ in samples)
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        errors = sum(1 for _, _, ok in samples if not ok)
        ratio = errors / len(samples)
        breached = p99 > config.slo_p99_ms or ratio > config.slo_error_ratio
    if breached:
        return "escalate" if rung < RUNG_STORE_ONLY else None
    if rung > RUNG_FULL and now - last_change >= config.slo_recovery_s:
        recent_errors = sum(1 for _, _, ok in samples if not ok)
        if recent_errors == 0:
            return "recover"
    return None


@dataclasses.dataclass(eq=False)
class _Flight:
    """One distinct miss, queued or pricing: the futures of the queries
    waiting on it, and the half-open breaker slot they took (if any)."""

    query: Query
    probe: Optional[int]
    futures: List[asyncio.Future] = dataclasses.field(default_factory=list)


#: What :meth:`SimulationService.submit` raises to refuse a query.
REFUSALS = (Draining, BreakerOpen, StoreOnlyMiss, LoadShed)

#: The ``repro_serve_*`` series a query failing with each fault class bumps.
FAULT_SERIES = {
    "BreakerOpen": "repro_serve_breaker_fastfail_total",
    "StoreOnlyMiss": "repro_serve_store_only_miss_total",
    "LoadShed": "repro_serve_shed_total",
    "DeadlineExceeded": "repro_serve_deadline_timeouts_total",
}


class SimulationService:
    """Dedups, batches, gates, and prices admitted queries.

    Owns the daemon's :class:`ErrorBudget` (one task per query, its
    outcome counted once by :meth:`_count`), the per-fingerprint
    :class:`BreakerRegistry`, and the degradation-ladder rung.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.budget = ErrorBudget()
        self.draining = False
        self.rung = RUNG_FULL
        self.breakers = BreakerRegistry(
            BreakerPolicy(
                threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            )
        )
        self._sims: Dict[Tuple, TPUSim] = {}
        self._inflight: Dict[Tuple, _Flight] = {}
        self._queue: List[_Flight] = []
        self._wakeup: Optional[asyncio.Event] = None
        #: Set by :meth:`_publish` whenever the backlog is empty.
        self._idle: Optional[asyncio.Event] = None
        self._batcher: Optional[asyncio.Task] = None
        self._watchdog: Optional[asyncio.Task] = None
        self._samples: Deque[Tuple[float, float, bool]] = deque(
            maxlen=self.config.slo_window
        )
        self._rung_changed_at = time.monotonic()

    # ----------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._batcher = asyncio.create_task(self._batch_loop())
        if self.config.watchdog:
            self._watchdog = asyncio.create_task(self._watchdog_loop())

    async def drain(self) -> None:
        """Stop admitting, finish every queued/in-flight query, stop."""
        self.draining = True
        while self._queue or self._inflight:
            self._idle.clear()
            await self._idle.wait()
        for task_attr in ("_batcher", "_watchdog"):
            task = getattr(self, task_attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, task_attr, None)

    @property
    def pending(self) -> int:
        return len(self._inflight)

    @property
    def rung_name(self) -> str:
        return LADDER_RUNGS[self.rung]

    @property
    def simulations(self) -> int:
        """Fresh engine simulations so far (``repro_serve_simulations_total``)."""
        return int(
            self.registry.counters.get("repro_serve_simulations_total", 0.0)
        )

    # ----------------------------------------------------- degradation ladder
    def set_rung(self, rung: int, reason: str) -> None:
        """Move the ladder; logs, dumps the flight ring, bumps metrics."""
        rung = max(RUNG_FULL, min(rung, RUNG_DRAIN))
        if rung == self.rung:
            return
        previous = self.rung
        self.rung = rung
        self._rung_changed_at = time.monotonic()
        self._samples.clear()  # each rung earns its own evidence
        self.registry.inc_counter("repro_serve_rung_changes_total")
        log = obs_log.warning if rung > previous else obs_log.info
        log(
            "serve.rung_changed",
            rung=LADDER_RUNGS[rung], was=LADDER_RUNGS[previous], reason=reason,
        )
        flight_beacon.get_beacon().update(rung=LADDER_RUNGS[rung])
        maybe_dump(
            "serve-degraded" if rung > previous else "serve-recovered",
            {"rung": LADDER_RUNGS[rung], "was": LADDER_RUNGS[previous],
             "reason": reason},
        )

    def record_sample(self, latency_ms: float, ok: bool) -> None:
        """One completed query request, fuel for the SLO watchdog."""
        self._samples.append((time.monotonic(), latency_ms, ok))

    async def _watchdog_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.slo_interval_s)
            now = time.monotonic()
            decision = slo_decision(
                list(self._samples), self.rung, self.config, now,
                self._rung_changed_at,
            )
            if decision == "escalate":
                self.set_rung(self.rung + 1, "slo-watchdog: budget/p99 breach")
            elif decision == "recover":
                self.set_rung(self.rung - 1, "slo-watchdog: window clean")

    # ----------------------------------------------------------- admission
    def submit(self, query: Query) -> asyncio.Future:
        """Admit one query; returns its own future, which its answer resolves.

        Every query seen is one budget task that ends in exactly one of
        ``succeeded`` or ``failed``, with the fault class its client saw:
        :meth:`_count` counts it when this future is done, and a refusal
        fails the future with itself before it is raised.  A warm query is
        answered here, at every rung, through the simulator's pricing tail
        (:meth:`TPUSim.lookup_conv`): the future is already resolved (with
        the :class:`~repro.errors.AuditFault` when the hit fails its
        audit).  A miss joins the flight of an identical miss queued or
        pricing, or opens one in the batch queue.

        Raises :class:`Draining` during shutdown (or on the drain rung),
        :class:`BreakerOpen` when the spec's breaker refuses,
        :class:`StoreOnlyMiss` on a cold spec at the store-only rung and
        :class:`LoadShed` when the backlog of misses exhausted the budget.
        """
        beacon = flight_beacon.get_beacon()
        beacon.requests += 1
        self.registry.inc_counter("repro_serve_requests_total")
        self.budget.tasks += 1
        future = asyncio.get_running_loop().create_future()
        future.add_done_callback(self._count)
        probe = None
        try:
            if self.draining or self.rung >= RUNG_DRAIN:
                raise Draining(
                    "server is draining"
                    if self.draining
                    else "server degraded to drain"
                )
            probe = self.breakers.admit(query.fingerprint)
            try:
                result = self._sim_for(query).lookup_conv(
                    query.spec, query.group_size, query.layout
                )
            except Exception as err:  # a warm answer that failed its audit
                self._settle(query, [future], err=err)
                return future
            if result is not None:
                self._settle(query, [future], result)
                return future
            flight = self._inflight.get(query.key)
            if self.rung >= RUNG_STORE_ONLY:
                raise StoreOnlyMiss(
                    "degraded to store-only and this spec is not warm"
                )
            if flight is None and self.pending >= self.config.max_pending:
                raise LoadShed(
                    f"pending backlog {self.pending} exhausts the budget "
                    f"({self.config.max_pending})"
                )
        except REFUSALS as refusal:
            self.breakers.release_probe(query.fingerprint, probe)
            future.set_exception(refusal)
            raise
        if flight is None:
            flight = _Flight(query, probe)
            self._inflight[query.key] = flight
            self._queue.append(flight)
            self._publish()
            if self._wakeup is not None:
                self._wakeup.set()
        else:
            # An identical miss is queued or pricing: ride on its flight.
            self.registry.inc_counter("repro_serve_deduped_total")
            beacon.dedup_joins += 1
            if probe is not None:  # the flight's outcome reports for it
                flight.probe = probe
            if query.ctx is not None:
                # The joining request's tree records where its answer came
                # from: an instant linking it to the in-flight computation.
                trace.instant(
                    "serve.dedup_join", cat="serve",
                    trace_id=query.ctx.trace_id, span_id=query.ctx.span_id,
                )
        flight.futures.append(future)
        future.add_done_callback(functools.partial(self._withdraw, flight))
        return future

    def _count(self, future: asyncio.Future) -> None:
        """Count one query's outcome when its future is done: the only
        writer of the budget's outcomes, the :data:`FAULT_SERIES` and the
        beacon's ``shed``.  A cancellation is its request's deadline."""
        if future.cancelled():
            fault = "DeadlineExceeded"
        elif future.exception() is None:
            self.budget.succeeded += 1
            return
        else:
            fault = type(future.exception()).__name__
        self.budget.failed += 1
        self.budget.count_fault(fault)
        if fault in FAULT_SERIES:
            self.registry.inc_counter(FAULT_SERIES[fault])
        if fault == "LoadShed":
            flight_beacon.get_beacon().shed += 1

    def _withdraw(self, flight: _Flight, future: asyncio.Future) -> None:
        """A queued flight whose last waiter is done (cancelled or refused)
        leaves unpriced and gives back its probe slot; one already pricing
        stays in flight, for a later identical query to join."""
        if flight in self._queue and all(f.done() for f in flight.futures):
            self._queue.remove(flight)
            del self._inflight[flight.query.key]
            self.breakers.release_probe(flight.query.fingerprint, flight.probe)
            self._publish()

    # ------------------------------------------------------------ batching
    def _sim_for(self, query: Query) -> TPUSim:
        cfg_key = query.key[1]
        sim = self._sims.get(cfg_key)
        if sim is None:
            sim = TPUSim(query.config)
            self._sims[cfg_key] = sim
        return sim

    async def _batch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._queue:
                continue
            # Let a burst of concurrent clients coalesce into one batch.
            await asyncio.sleep(self.config.batch_window_s)
            batch = self._queue[: self.config.max_batch]
            del self._queue[: len(batch)]
            if self._queue:
                self._wakeup.set()
            await self._price_batch(batch)

    @staticmethod
    def _check_poison(specs: List[ConvSpec]) -> None:
        """Raise the injected AuditFault for a seeded poison spec, if any."""
        plan = fault_injection.get_active()
        if plan is None or not plan.poison_spec:
            return
        for spec in specs:
            if plan.poison_matches(spec.name):
                raise AuditFault(
                    f"injected poison spec {spec.name!r} "
                    "(--inject-faults poison=)"
                )

    def _settle(
        self, query: Query, futures: List[asyncio.Future], result=None,
        err: Optional[BaseException] = None,
    ) -> None:
        """Record one breaker outcome for ``query``, then resolve the
        futures still waiting: the fault ``err``, an overrun when none
        still waits (engine time burned past every waiter's deadline),
        else a success."""
        waiting = [f for f in futures if not f.done()]
        if err is not None:
            obs_log.error(
                "serve.query_failed",
                spec=query.spec.describe(), fingerprint=query.fingerprint,
                error=str(err),
            )
            self._record_breaker_failure(query, type(err).__name__, str(err))
        elif waiting:
            self.breakers.record_success(query.fingerprint)
        else:
            self._record_breaker_failure(
                query, "DeadlineExceeded",
                "pricing outlived every waiter's deadline",
            )
        for future in waiting:
            if err is None:
                future.set_result(result)
            else:
                future.set_exception(err)

    def _record_breaker_failure(
        self, query: Query, fault: str, message: str
    ) -> None:
        tripped = self.breakers.record_failure(query.fingerprint, fault, message)
        if not tripped:
            return
        self.registry.inc_counter("repro_serve_breaker_trips_total")
        maybe_dump(
            "breaker-trip",
            {"fingerprint": query.fingerprint, "fault": fault,
             "spec": query.spec.describe(), "message": message},
        )
        self._quarantine_tripped(query, fault, message)

    def _quarantine_tripped(self, query: Query, fault: str, message: str) -> None:
        """Park a tripped spec in the store's serve quarantine journal.

        Best-effort: the journal rides in the persistent store directory
        (when one is attached) so ``dse replay``-style forensics get the
        full spec; a daemon without a store keeps the verdict in memory
        only.
        """
        from . import attached

        store = attached()
        if store is None:
            return
        from ..resilience.quarantine import QuarantineFile, QuarantineRecord

        breaker = self.breakers._breakers.get(query.fingerprint)
        failures = [
            {"attempt": i + 1, "fault": f["fault"], "error": f["message"]}
            for i, f in enumerate(breaker.failures if breaker else [])
        ]
        try:
            QuarantineFile(store.root / "serve-quarantine.jsonl").park(
                QuarantineRecord(
                    task_id=query.fingerprint,
                    payload={
                        "spec": dataclasses.asdict(query.spec),
                        "layout": query.layout.value,
                        "group_size": query.group_size,
                    },
                    reason=f"breaker tripped: {fault}: {message}"[:500],
                    failures=failures,
                )
            )
        except OSError as err:  # forensics must never take down serving
            obs_log.warning("serve.quarantine_write_failed", error=str(err))

    async def _price_batch(self, batch: List[_Flight]) -> None:
        # Group by (config, group_size mode, layout): one engine call each,
        # or one per flight on the serial rung (exact attribution, no batch
        # blast radius).
        groups: Dict[Tuple, List[_Flight]] = {}
        for flight in batch:
            query = flight.query
            group = (query.key[1], query.group_size, query.layout)
            groups.setdefault(group, []).append(flight)
        for flights in groups.values():
            if self.rung >= RUNG_SERIAL:
                for flight in flights:
                    await self._price_group([flight])
            else:
                await self._price_group(flights)
            self._publish()

    async def _price_group(self, flights: List[_Flight]) -> None:
        """Price flights sharing one (config, group_size mode, layout).

        The only code that prices queries: one ``simulate_conv_batch`` call
        under the batch's trace context, counted in the batch series, then
        settled.  A failed group of several flights is replayed one flight
        at a time, so the poison spec is charged to its breaker and its
        co-batched innocents are answered (the verdict discipline of the
        DSE plane's quarantine replay); a failed single flight fails alone.
        """
        queries = [flight.query for flight in flights]
        first = queries[0]
        sim = self._sim_for(first)
        specs = [q.spec for q in queries]
        # The batch span parents under the first traced query's request;
        # other members' trace ids ride along as link args so their
        # trees point at the shared computation.
        parent = next((q.ctx for q in queries if q.ctx is not None), None)
        batch_ctx = parent.child() if parent is not None else None
        links = [
            q.ctx.trace_id
            for q in queries
            if q.ctx is not None and q.ctx is not parent
        ]

        def _price():
            # run_in_executor does not propagate contextvars: re-activate
            # the batch node so engine spans/cache probes join its tree.
            with trace_context.activate(batch_ctx):
                self._check_poison(specs)
                return sim.simulate_conv_batch(
                    specs, group_size=first.group_size, layout=first.layout
                )

        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        misses_before = SIM_CACHE.misses
        try:
            if batch_ctx is not None:
                with trace_context.activate_root(batch_ctx):
                    with trace.span(
                        "serve.batch", cat="serve",
                        queries=len(queries),
                        linked_traces=",".join(links),
                    ):
                        results = await loop.run_in_executor(None, _price)
            else:
                results = await loop.run_in_executor(None, _price)
        except Exception as err:
            if len(flights) == 1:
                del self._inflight[first.key]
                self._settle(first, flights[0].futures, err=err)
                return
            obs_log.warning(
                "serve.batch_failed_serial_replay",
                error=str(err), queries=len(queries),
            )
            for flight in flights:
                await self._price_group([flight])
            return
        elapsed = time.perf_counter() - started
        # "Simulations" = fresh engine work, not queries priced: a query
        # answered from the memo or the persistent store is not one.
        performed = SIM_CACHE.misses - misses_before
        self.registry.inc_counter("repro_serve_batches_total")
        self.registry.inc_counter(
            "repro_serve_simulations_total", float(performed)
        )
        self.registry.observe("repro_serve_batch_seconds", elapsed)
        for flight, result in zip(flights, results):
            del self._inflight[flight.query.key]
            self._settle(flight.query, flight.futures, result)

    def _publish(self) -> None:
        """Mirror the backlog into the status beacon (rate-limited write),
        and wake :meth:`drain` once the backlog is empty."""
        beacon = flight_beacon.get_beacon()
        beacon.in_flight = self.pending
        beacon.queue_depth = len(self._queue)
        beacon.maybe_write()
        if not (self._queue or self._inflight) and self._idle is not None:
            self._idle.set()


#: Paths with their own latency-histogram label; anything else is "other"
#: so a port scan cannot explode the metric's label cardinality.
KNOWN_ROUTES = (
    "/healthz", "/readyz", "/statusz", "/metrics", "/v1/conv", "/v1/conv/batch",
)

_JSON = "application/json"


class ReproServer:
    """The asyncio HTTP front-end around one :class:`SimulationService`."""

    def __init__(
        self,
        service: SimulationService,
        run_id: Optional[str] = None,
        worker_index: Optional[int] = None,
    ) -> None:
        self.service = service
        self.run_id = run_id
        #: Set in every supervised worker; arms the worker-crash chaos mode
        #: and labels ``/statusz``.  ``None`` = an in-process server (tests).
        self.worker_index = worker_index
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_seq = 0

    # ------------------------------------------------------------ lifecycle
    async def start(self, sock=None) -> Tuple[str, int]:
        await self.service.start()
        config = self.service.config
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=config.host, port=config.port
            )
        host, port = self._server.sockets[0].getsockname()[:2]
        obs_log.info("serve.listening", host=host, port=port)
        return host, port

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, answer everything admitted."""
        obs_log.info("serve.draining", pending=self.service.pending)
        await self.service.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        obs_log.info("serve.stopped", budget=self.service.budget.to_dict())

    # ------------------------------------------------------------- protocol
    def _chaos_abort(self, writer: asyncio.StreamWriter) -> bool:
        """Fire pre-admission connection chaos, if armed.

        Both modes fire *before* the request is read, so an injected abort
        or worker crash never strands an **admitted** request — that
        invariant is the chaos campaign's gate.  (An external ``kill -9``
        still lands anywhere; the retrying client covers that.)
        """
        plan = fault_injection.get_active()
        if plan is None or not plan.serve:
            return False
        seq = self._conn_seq
        self._conn_seq += 1
        if plan.serve_fires("conn-reset", seq):
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return True
        if self.worker_index is not None and plan.serve_fires("worker-crash", seq):
            obs_log.warning(
                "serve.injected_worker_crash", worker=self.worker_index
            )
            import os

            os._exit(137)  # the supervising parent must respawn us
        return False

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._chaos_abort(writer):
            return
        ctx: Optional[trace_context.TraceContext] = None
        started = time.perf_counter()
        route = "other"
        extra_headers: Dict[str, str] = {}
        discard_input = False
        try:
            request = await self._read_request(reader)
            if request is None:
                return  # connection opened and closed without a request
            method, path, headers, body = request
            route = path if path in KNOWN_ROUTES else "other"
            # One trace context per request: continue the caller's trace
            # when a traceparent header arrived, else mint a fresh root.
            ctx = trace_context.TraceContext.from_traceparent(
                headers.get("traceparent")
            ) or trace_context.TraceContext.new()
            with trace_context.activate_root(ctx):
                with trace.span(
                    "serve.request", cat="serve", method=method, route=route
                ) as span:
                    status, content_type, payload, extra_headers = (
                        await self._route(method, path, headers, body, ctx)
                    )
                    if span is not trace.NULL_SPAN:
                        span.note(status=status)
        except ProtocolError as err:
            status, content_type = err.status, _JSON
            payload = json.dumps(self._error_body(str(err)))
            discard_input = True  # see the drain below the response write
        except Exception as err:  # never tear the connection on a bug
            status, content_type = 500, _JSON
            payload = json.dumps(
                self._error_body(f"{type(err).__name__}: {err}")
            )
        elapsed = time.perf_counter() - started
        self.service.registry.observe(
            f'repro_serve_request_seconds{{route="{route}"}}', elapsed
        )
        if route.startswith("/v1/"):
            # Watchdog evidence: sheds and 5xx are failures, a breaker's
            # fast 422 and client errors are healthy fast paths.
            self.service.record_sample(
                elapsed * 1000.0, ok=status < 500 and status != 429
            )
        try:
            data = payload.encode("utf-8")
            extra = ""
            if ctx is not None:
                extra += f"X-Repro-Trace-Id: {ctx.trace_id}\r\n"
            if self.run_id:
                extra += f"X-Repro-Run-Id: {self.run_id}\r\n"
            for name, value in extra_headers.items():
                extra += f"{name}: {value}\r\n"
            writer.write(
                (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"{extra}"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                + data
            )
            await writer.drain()
            if discard_input:
                # A hostile request likely has unsent/unread bytes in
                # flight; closing with unread data makes the kernel RST
                # the connection and *destroy the error response*.
                # Briefly drain and discard so the 4xx actually arrives.
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 0.25
                while True:
                    budget_s = deadline - loop.time()
                    if budget_s <= 0:
                        break
                    chunk = await asyncio.wait_for(
                        reader.read(1 << 16), timeout=budget_s
                    )
                    if not chunk:
                        break
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass  # client went away mid-response; nothing left to tell it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _error_body(self, message: str, **fields) -> Dict[str, Any]:
        """Error JSON with correlatable detail (run id rides along)."""
        body: Dict[str, Any] = {"error": message}
        if self.run_id:
            body["run_id"] = self.run_id
        body.update(fields)
        return body

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Read one HTTP request under the protocol-hardening limits.

        Raises :class:`ProtocolError` for every hostile shape — slowloris
        headers (408), oversized headers (431), bad/oversized
        Content-Length (400/413), truncated bodies (400) — so the caller
        can always *answer* instead of silently hanging or dying.
        """
        config = self.service.config
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=config.header_timeout_s
            )
        except asyncio.TimeoutError:
            raise ProtocolError(
                408,
                f"request headers not finished within {config.header_timeout_s}s",
            ) from None
        except asyncio.LimitOverrunError:
            raise ProtocolError(431, "request headers too large") from None
        except asyncio.IncompleteReadError as err:
            if not err.partial:
                return None  # clean connect-then-close; nothing to answer
            raise ProtocolError(400, "connection closed mid-headers") from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ProtocolError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name and _:
                headers[name.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise ProtocolError(400, "malformed Content-Length") from None
            if length < 0:
                raise ProtocolError(400, "negative Content-Length")
            if length > config.max_body_bytes:
                raise ProtocolError(
                    413,
                    f"body of {length} bytes exceeds the "
                    f"{config.max_body_bytes}-byte limit",
                )
        if not length:
            return method, path, headers, b""
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=config.body_timeout_s
            )
        except asyncio.TimeoutError:
            raise ProtocolError(
                408,
                f"request body not delivered within {config.body_timeout_s}s",
            ) from None
        except asyncio.IncompleteReadError as err:
            raise ProtocolError(
                400,
                f"truncated body: Content-Length {length}, "
                f"got {len(err.partial)} bytes",
            ) from None
        return method, path, headers, body

    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        ctx: Optional[trace_context.TraceContext] = None,
    ) -> Tuple[int, str, str, Dict[str, str]]:
        service = self.service
        if method == "GET" and path == "/healthz":
            # Liveness only: answering at all is the signal.  Routing
            # decisions belong to /readyz.
            return 200, _JSON, json.dumps(
                {
                    "status": "draining" if service.draining else "ok",
                    "rung": service.rung_name,
                    "pending": service.pending,
                    "budget": service.budget.to_dict(),
                },
                sort_keys=True,
            ), {}
        if method == "GET" and path == "/readyz":
            ready = not service.draining and service.rung < RUNG_STORE_ONLY
            doc = {
                "ready": ready,
                "rung": service.rung_name,
                "draining": service.draining,
            }
            if ready:
                return 200, _JSON, json.dumps(doc, sort_keys=True), {}
            retry = service.config.retry_after_drain_s
            return 503, _JSON, json.dumps(doc, sort_keys=True), {
                "Retry-After": _retry_after(retry)
            }
        if method == "GET" and path == "/statusz":
            return 200, _JSON, json.dumps(self.statusz(), sort_keys=True), {}
        if method == "GET" and path == "/metrics":
            self._export_gauges()
            return 200, "text/plain; version=0.0.4", render_prometheus(
                service.registry
            ), {}
        if method == "POST" and path == "/v1/conv":
            return await self._answer(headers, body, batch=False, ctx=ctx)
        if method == "POST" and path == "/v1/conv/batch":
            return await self._answer(headers, body, batch=True, ctx=ctx)
        return 404, _JSON, json.dumps({"error": f"no route {path}"}), {}

    def statusz(self) -> dict:
        """The live beacon snapshot, overlaid with serve-side truth."""
        service = self.service
        doc = flight_beacon.get_beacon().snapshot()
        doc["role"] = "serve"
        if self.run_id:
            doc["run_id"] = self.run_id
        doc["serve"]["in_flight"] = service.pending
        doc["serve"]["draining"] = service.draining
        doc["serve"]["simulations"] = service.simulations
        doc["serve"]["rung"] = service.rung_name
        doc["serve"]["breakers"] = service.breakers.snapshot()
        if self.worker_index is not None:
            doc["serve"]["worker"] = {
                "index": self.worker_index,
                "configured": service.config.workers,
            }
        doc["budget"] = service.budget.to_dict()
        return doc

    def _export_gauges(self) -> None:
        """Point-in-time serve state, refreshed at scrape time."""
        registry = self.service.registry
        registry.set_gauge("repro_serve_pending", float(self.service.pending))
        registry.set_gauge(
            "repro_serve_draining", 1.0 if self.service.draining else 0.0
        )
        registry.set_gauge("repro_serve_degraded", float(self.service.rung))
        breakers = self.service.breakers
        registry.set_gauge(
            "repro_serve_breaker_open", float(len(breakers.open_keys()))
        )
        stats = SIM_CACHE.stats
        registry.set_gauge("repro_sim_cache_entries", float(stats.entries))
        registry.set_gauge("repro_sim_cache_hit_rate", stats.hit_rate)
        if SIM_CACHE.backing is not None:
            store_stats = SIM_CACHE.backing.stats
            registry.set_gauge("repro_store_hit_rate", store_stats.hit_rate)
            registry.set_gauge(
                "repro_store_corrupt_skipped", float(store_stats.corrupt_skipped)
            )

    def _deadline_ms(self, headers: Dict[str, str]) -> float:
        raw = headers.get("x-repro-deadline-ms")
        if raw is None:
            return self.service.config.default_deadline_ms
        try:
            deadline = float(raw)
        except ValueError:
            raise BadRequest(f"X-Repro-Deadline-Ms must be numeric, got {raw!r}")
        if deadline <= 0:
            raise BadRequest("X-Repro-Deadline-Ms must be positive")
        return min(deadline, 3_600_000.0)

    async def _answer(
        self,
        headers: Dict[str, str],
        body: bytes,
        batch: bool,
        ctx: Optional[trace_context.TraceContext] = None,
    ) -> Tuple[int, str, str, Dict[str, str]]:
        config = self.service.config
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            return 400, _JSON, json.dumps(
                self._error_body(f"bad JSON: {err}")
            ), {}
        try:
            deadline_ms = self._deadline_ms(headers)
            deadline_at = time.monotonic() + deadline_ms / 1000.0
            if batch:
                if not isinstance(payload, dict) or not isinstance(
                    payload.get("queries"), list
                ):
                    raise BadRequest("batch body must be {'queries': [...]}")
                queries = [Query.parse(q) for q in payload["queries"]]
            else:
                queries = [Query.parse(payload)]
        except BadRequest as err:
            return 400, _JSON, json.dumps(self._error_body(str(err))), {}
        queries = [dataclasses.replace(q, ctx=ctx) for q in queries]
        futures: List[asyncio.Future] = []
        try:
            for query in queries:
                futures.append(self.service.submit(query))
        except REFUSALS as err:
            for future in futures:  # admitted earlier: refused with the rest
                if not future.done():
                    future.set_exception(err)
            fields: Dict[str, Any] = {}
            if isinstance(err, BreakerOpen):
                status = 422
                retry = max(0.5, err.verdict.get("retry_after_s", 0.0))
                fields["verdict"] = err.verdict
            elif isinstance(err, LoadShed):
                status, retry = 429, config.retry_after_shed_s
            else:
                status, retry = 503, config.retry_after_drain_s
                if isinstance(err, StoreOnlyMiss):
                    fields["rung"] = self.service.rung_name
            return status, _JSON, json.dumps(
                self._error_body(
                    str(err), retry_after_ms=int(retry * 1000), **fields
                ), sort_keys=True,
            ), {"Retry-After": _retry_after(retry)}
        try:
            # On a timeout the gather cancels exactly the queries still
            # unanswered: that cancellation is their deadline charge.
            results = await asyncio.wait_for(
                asyncio.gather(*futures),
                timeout=max(0.001, deadline_at - time.monotonic()),
            )
        except asyncio.TimeoutError:
            retry = config.retry_after_shed_s
            return 504, _JSON, json.dumps(
                self._error_body(
                    f"deadline of {deadline_ms:.0f}ms exceeded",
                    retry_after_ms=int(retry * 1000),
                )
            ), {"Retry-After": _retry_after(retry)}
        except Exception as err:
            return 500, _JSON, json.dumps(
                self._error_body(f"{type(err).__name__}: {err}")
            ), {}
        # End-to-end latency is observed per route in _handle_connection;
        # a second unlabeled observation here would double-count requests.
        answers = [result_payload(q, r) for q, r in zip(queries, results)]
        if batch:
            return 200, _JSON, json.dumps(
                {"results": answers}, sort_keys=True
            ), {}
        return 200, _JSON, json.dumps(answers[0], sort_keys=True), {}


def _retry_after(seconds: float) -> str:
    """``Retry-After`` is delta-seconds; round up so 0.4s isn't "now"."""
    return str(max(1, int(-(-seconds // 1))))


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Any] = None,
    headers: Optional[Dict[str, str]] = None,
    return_headers: bool = False,
):
    """Minimal asyncio HTTP client: ``(status, decoded body)``.

    Used by the integration tests and ``tools/serve_smoke.py`` so the
    round-trip stays stdlib-only end to end.  ``headers`` adds extra
    request headers (e.g. ``traceparent``); with ``return_headers`` the
    result is ``(status, body, response_headers)`` with lower-cased
    header names.
    """
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Content-Type: application/json\r\n"
                f"{extra}"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if not raw:
        raise ConnectionResetError("empty response (connection reset?)")
    head, _, data = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    text = data.decode("utf-8")
    if b"application/json" in head:
        decoded: Any = json.loads(text) if text else None
    else:
        decoded = text
    if not return_headers:
        return status, decoded
    response_headers: Dict[str, str] = {}
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, sep, value = line.partition(":")
        if sep:
            response_headers[name.strip().lower()] = value.strip()
    return status, decoded, response_headers


#: Statuses :func:`http_request_retry` retries (all carry ``Retry-After``).
RETRYABLE_STATUSES = frozenset({429, 503, 504})


async def http_request_retry(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Any] = None,
    headers: Optional[Dict[str, str]] = None,
    deadline_s: float = 60.0,
    max_attempts: int = 32,
):
    """A retrying client that honors ``Retry-After``.

    Retries 429/503/504 after the server-suggested delay (capped so a
    drain hint cannot stall the loop) and connection-level failures
    (reset, refused, truncated response — a crashed worker mid-exchange)
    after a short backoff.  Returns ``(status, body, response_headers)``
    of the first definitive answer; raises ``TimeoutError`` when the
    deadline or attempt budget runs out — a *lost* request, which the
    chaos campaign treats as an invariant violation.
    """
    deadline = time.monotonic() + deadline_s
    delay = 0.05
    last: Optional[str] = None
    for _ in range(max_attempts):
        if time.monotonic() >= deadline:
            break
        try:
            status, body, response_headers = await http_request(
                host, port, method, path, payload,
                headers=headers, return_headers=True,
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as err:
            last = f"connection failure: {err}"
            await asyncio.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(1.0, delay * 2)
            continue
        if status not in RETRYABLE_STATUSES:
            return status, body, response_headers
        last = f"HTTP {status}: {body}"
        retry_after = response_headers.get("retry-after")
        try:
            wait = min(float(retry_after), 2.0) if retry_after else delay
        except ValueError:
            wait = delay
        await asyncio.sleep(min(wait, max(0.0, deadline - time.monotonic())))
        delay = min(1.0, delay * 2)
    raise TimeoutError(
        f"{method} {path} got no definitive answer in {deadline_s}s "
        f"(last: {last})"
    )


# ----------------------------------------------------------------- CLI entry


def add_serve_args(parser: argparse.ArgumentParser) -> None:
    """Install ``repro serve``'s options on ``parser``.

    The observability options (``--log-level``/``--log-file``/``--quiet``/
    ``--manifest``) come from the root CLI's shared parent parser.
    """
    defaults = ServeConfig()
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port,
                        help=f"listen port (default {defaults.port}; 0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=defaults.workers,
                        help="request workers forked behind a supervising "
                             "parent that owns the socket (default 1)")
    parser.add_argument("--store", default="", metavar="DIR",
                        help="persistent result store to warm-start from / write through to")
    parser.add_argument("--max-pending", type=int, default=defaults.max_pending,
                        help="pending-miss budget before load-shedding (429)")
    parser.add_argument("--batch-window", type=float, default=defaults.batch_window_s,
                        metavar="S", help="coalescing window for misses before "
                             "each engine batch (warm hits never wait)")
    parser.add_argument("--max-batch", type=int, default=defaults.max_batch,
                        help="queries per simulate_conv_batch call at most")
    parser.add_argument("--default-deadline-ms", type=float,
                        default=defaults.default_deadline_ms, metavar="MS",
                        help="per-request deadline when no X-Repro-Deadline-Ms "
                             "header arrives")
    parser.add_argument("--breaker-threshold", type=int,
                        default=defaults.breaker_threshold,
                        help="failures that trip a spec fingerprint's breaker")
    parser.add_argument("--breaker-cooldown", type=float,
                        default=defaults.breaker_cooldown_s, metavar="S",
                        help="seconds an open breaker refuses before half-opening")
    parser.add_argument("--slo-p99-ms", type=float, default=defaults.slo_p99_ms,
                        help="p99 latency above which the degradation ladder "
                             "escalates")
    parser.add_argument("--slo-error-ratio", type=float,
                        default=defaults.slo_error_ratio,
                        help="error ratio above which the ladder escalates")
    parser.add_argument("--no-watchdog", action="store_true",
                        help="disable the SLO watchdog (ladder moves only "
                             "explicitly)")
    parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                        help="seeded chaos plan, e.g. 'serve=conn-reset,"
                             "worker-crash,rate=0.05,seed=7,poison=hostile'")
    parser.add_argument("--run-id", default=None,
                        help="run id stamped on responses/logs (default: generated)")
    parser.add_argument("--trace", default=None, metavar="PATH", nargs="?",
                        const="serve-trace.json",
                        help="record request span trees; worker i writes its "
                             "Chrome export to PATH.w<i> on drain (default "
                             "serve-trace.json)")
    parser.add_argument("--status-file", default=None, metavar="PATH",
                        help="mirror live beacon snapshots for 'repro top "
                             "--status-file': the supervisor writes PATH "
                             "(workers, respawns), worker i writes PATH.w<i> "
                             "(requests, cache, rung)")
    parser.add_argument("--flight", default=None, metavar="DIR",
                        help="enable the flight recorder; dumps land in DIR "
                             "on faults or SIGUSR1")
    parser.set_defaults(func=serve)


def _config_from_args(args, store_dir: str) -> ServeConfig:
    return ServeConfig(
        host=args.host, port=args.port, max_pending=args.max_pending,
        batch_window_s=args.batch_window, max_batch=args.max_batch,
        store_dir=store_dir, workers=args.workers,
        default_deadline_ms=args.default_deadline_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        slo_p99_ms=args.slo_p99_ms,
        slo_error_ratio=args.slo_error_ratio,
        watchdog=not args.no_watchdog,
    )


def configure_worker_observability(args, run_id: str, worker_index: int) -> None:
    """Wire logging / beacon / flight recorder / tracing for one worker.

    Worker ``i`` mirrors its beacon to ``--status-file`` + ``.w<i>``; the
    supervisor owns the bare path.  The fault plan is activated once by
    :func:`serve`, so every forked worker inherits the same seeded plan.
    """
    status_path = (
        f"{args.status_file}.w{worker_index}" if args.status_file else None
    )
    obs_log.configure(level=None, log_file=args.log_file, run_id=run_id)
    flight_beacon.configure_beacon(
        role="serve", run_id=run_id, status_path=status_path
    )
    if args.flight:
        from ..obs.flight import recorder as flight_recorder

        flight_recorder.configure_recorder(run_dir=args.flight)
    if args.trace:
        trace.enable()


async def run_server(
    config: ServeConfig,
    run_id: str,
    sock,
    worker_index: int,
    heartbeat,
    trace_path: Optional[str] = None,
) -> None:
    """One supervised worker's main loop: serve, heartbeat, drain on signal.

    ``sock`` is the supervisor-owned listener every worker accepts from;
    ``heartbeat`` a zero-arg callable invoked about once a second so the
    supervisor can tell a live worker from a hung one.  With
    ``trace_path`` the worker writes its Chrome trace there on drain.
    """
    service = SimulationService(config)
    server = ReproServer(service, run_id=run_id, worker_index=worker_index)
    await server.start(sock=sock)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)

    async def _beat() -> None:
        while True:
            heartbeat()
            await asyncio.sleep(1.0)

    beat_task = asyncio.create_task(_beat())
    await stop.wait()
    beat_task.cancel()
    await server.shutdown()
    budget = service.budget
    print(f"serve: drained; served {budget.succeeded}/{budget.tasks} "
          f"(shed {budget.faults_by_class.get('LoadShed', 0)})",
          flush=True)
    if trace_path:
        from ..trace.export import write_chrome_trace

        path = write_chrome_trace(
            trace_path, trace.drain_events(), {"run_id": run_id}
        )
        print(f"serve: trace written to {path}")


def serve(args: argparse.Namespace) -> int:
    """Run the supervised daemon until SIGINT/SIGTERM, then drain gracefully."""
    from . import attach, resolve_store_dir
    from .workers import supervise

    # Refused here, before the listener opens or any worker forks: a
    # worker can only die of a bad setting, and the supervisor respawns it.
    for bad, message in (  # each breaks the daemon by construction
        (args.workers < 1, f"--workers must be at least 1, got {args.workers}"),
        (args.max_batch < 1,
         f"--max-batch must be at least 1, got {args.max_batch}"),
        (args.max_pending < 1,
         f"--max-pending must be at least 1, got {args.max_pending}"),
        (not args.default_deadline_ms > 0,
         f"--default-deadline-ms must be positive, "
         f"got {args.default_deadline_ms}"),
        # Each test is "not good", so NaN, which fails every comparison,
        # is refused too: it never sleeps out a batch window, never
        # breaches an SLO, and cools a breaker down at once.
        (not (math.isfinite(args.batch_window) and args.batch_window >= 0),
         f"--batch-window must be finite and at least 0, "
         f"got {args.batch_window}"),
        (not args.slo_p99_ms > 0,
         f"--slo-p99-ms must be positive, got {args.slo_p99_ms}"),
        (not args.slo_error_ratio >= 0,
         f"--slo-error-ratio must be at least 0, got {args.slo_error_ratio}"),
        (not args.breaker_cooldown >= 0,
         f"--breaker-cooldown must be at least 0, "
         f"got {args.breaker_cooldown}"),
    ):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return 2
    try:
        store_dir = resolve_store_dir(args.store) or ""
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.inject_faults:
        try:
            fault_injection.activate(
                fault_injection.FaultPlan.parse(args.inject_faults)
            )
        except ValueError as err:
            print(f"error: bad --inject-faults spec: {err}", file=sys.stderr)
            return 2
    config = _config_from_args(args, store_dir)
    if config.store_dir:
        store = attach(config.store_dir)  # every forked worker inherits it
        print(f"serve: persistent store at {store.root} "
              f"({len(store)} records)", flush=True)
    from ..obs.manifest import new_run_id

    # `repro --manifest`/`--log-file` already opened a run under this id.
    run_id = args.run_id or obs_log.get_state().run_id or new_run_id()
    return supervise(args, config, run_id)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``repro serve ARGV`` (argv defaults to ``sys.argv[1:]``)."""
    from ..__main__ import main

    return main(["serve", *(sys.argv[1:] if argv is None else argv)])
