"""Outside-in probes: per-layer call counts, total time and self time.

The benchmark measures the program from outside.  ``install`` replaces the
public functions at each module boundary (harness, core, systolic, perf,
gpu, store, serve, dse, resilience) with timing wrappers, in every loaded
``repro`` module that holds a reference to them, so a caller that did
``from ..core.reference import random_conv_weights`` is timed too.  Nothing
under ``src/`` changes.

Each thread keeps its own span stack, so a span's self time is its
duration minus the time of the probed calls it made on the same thread.
Serve prices in executor threads; their spans start their own stacks.  A
probed function that re-enters itself (``decode_value`` recurses) is timed
once, at the outermost call.

Serve workers are forked, and inherit the installed probes; their entry
point ``run_server`` is wrapped so each worker starts from zero and writes
its totals to ``<dump_dir>/probe-<pid>.json`` when it drains.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: (probe name, module, attribute path, options).  Options: ``hit`` maps a
#: return value to True when it counts as a hit, ``items`` maps the call's
#: positional arguments to a size, ``samples`` keeps every duration (for
#: percentiles), and ``wait`` names a probe that gets, for a call returning
#: a future, the time from the return until that future resolves.
PROBES = [
    ("harness.write_results", "repro.harness.export", "write_results", {}),
    ("core.random_conv_weights", "repro.core.reference", "random_conv_weights", {}),
    ("core.prune_positions", "repro.core.sparsity", "prune_positions", {}),
    ("systolic.simulate_conv", "repro.systolic.simulator", "TPUSim.simulate_conv", {}),
    ("systolic.simulate_gemm", "repro.systolic.simulator", "TPUSim.simulate_gemm", {}),
    ("systolic.simulate_conv_batch", "repro.systolic.simulator",
     "TPUSim.simulate_conv_batch", {}),
    ("systolic.execute_schedule", "repro.systolic.scheduler", "execute_schedule", {}),
    ("systolic.simulate_conv_dual_mxu", "repro.systolic.dual_mxu",
     "simulate_conv_dual_mxu", {}),
    ("perf.conv_schedule_batch", "repro.perf.batch", "conv_schedule_batch", {}),
    ("perf.execute_schedule_batch", "repro.perf.batch", "execute_schedule_batch", {}),
    ("perf.execute_schedule_arrays", "repro.perf.schedule_arrays",
     "execute_schedule_arrays", {}),
    ("gpu.cudnn_conv_time", "repro.gpu.cudnn_model", "cudnn_conv_time", {}),
    ("gpu.channel_first_conv_time", "repro.gpu.channel_first",
     "channel_first_conv_time", {}),
    ("store.load", "repro.store.store", "ResultStore.load", {"hit": lambda r: r[0]}),
    ("store.save", "repro.store.store", "ResultStore.save", {}),
    ("store.decode_value", "repro.store.codec", "decode_value", {}),
    ("store.encode_value", "repro.store.codec", "encode_value", {}),
    ("serve.parse", "repro.store.serve", "Query.parse", {}),
    ("serve.submit", "repro.store.serve", "SimulationService.submit",
     {"wait": "serve.wait"}),
    ("serve.encode", "repro.store.serve", "result_payload", {}),
    ("serve.price", "repro.store.serve", "SimulationService._price_batch",
     {"samples": True, "items": lambda args: len(args[1])}),
    ("dse.run_sweep", "repro.dse.engine", "run_sweep", {}),
    ("dse.evaluate_task", "repro.dse.evaluate", "evaluate_task", {}),
    ("dse.queue.claim", "repro.dse.queue", "WorkQueue.claim", {}),
    ("dse.queue.complete", "repro.dse.queue", "WorkQueue.complete", {}),
    ("dse.queue.release", "repro.dse.queue", "WorkQueue.release", {}),
    ("dse.queue.add_task", "repro.dse.queue", "WorkQueue.add_task", {}),
    ("resilience.crash_safe_append", "repro.resilience.atomic",
     "crash_safe_append", {}),
]


class Stat:
    """Totals of one probe."""

    __slots__ = ("calls", "s", "self_s", "hits", "items", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.items = 0
        self.samples: List[float] = []

    def to_doc(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Recorder:
    """Probe totals of one process, and each thread's span stack."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.lock = threading.Lock()
        self.per_call_s = 0.0
        self.reset()

    def reset(self) -> None:
        with self.lock:
            for stat in self.stats.values():
                stat.__init__()
            self.top_s = 0.0
            self.local = threading.local()
            self.started = time.perf_counter()

    def stat(self, name: str) -> Stat:
        with self.lock:
            return self.stats.setdefault(name, Stat())

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add(self, stat: Stat, duration: float, self_s: float = 0.0,
            sample: bool = False, hit: bool = False, items: int = 0) -> None:
        with self.lock:
            stat.calls += 1
            stat.s += duration
            stat.self_s += self_s
            stat.hits += hit
            stat.items += items
            if sample:
                stat.samples.append(duration)

    def snapshot(self) -> dict:
        """This process's totals since the last reset, as plain data."""
        from repro.obs.flight.beacon import get_beacon
        from repro.perf.cache import SIM_CACHE

        beacon = get_beacon()
        with self.lock:
            return {
                "pid": os.getpid(),
                "wall_s": time.perf_counter() - self.started,
                "top_s": self.top_s,
                "per_call_s": self.per_call_s,
                "memo": memo_counts(SIM_CACHE),
                "serve": {"requests": beacon.requests,
                          "dedup_joins": beacon.dedup_joins,
                          "shed": beacon.shed},
                "probes": {k: v.to_doc() for k, v in self.stats.items()},
            }


RECORDER = Recorder()


def memo_counts(stats) -> Dict[str, int]:
    """The memo's hit tiers and misses (from a cache or its stats)."""
    return {
        "exact_hits": stats.hits - stats.canonical_hits - stats.persistent_hits,
        "canonical_hits": stats.canonical_hits,
        "persistent_hits": stats.persistent_hits,
        "misses": stats.misses,
    }


def _sync_wrapper(func: Callable, name: str, options: dict) -> Callable:
    rec = RECORDER
    stat = rec.stat(name)
    hit_of = options.get("hit")
    items_of = options.get("items")
    keep = bool(options.get("samples"))
    wait_stat = rec.stat(options["wait"]) if "wait" in options else None

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        for frame in stack:
            if frame[0] is stat:  # re-entered: the outer call times it
                return func(*args, **kwargs)
        frame = [stat, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            duration = end - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            else:
                with rec.lock:
                    rec.top_s += duration
            rec.add(stat, duration, duration - frame[1], keep,
                    hit=bool(hit_of and result is not None and hit_of(result)),
                    items=items_of(args) if items_of else 0)
            if wait_stat is not None and isinstance(result, asyncio.Future):
                result.add_done_callback(
                    lambda _f: rec.add(wait_stat, time.perf_counter() - end,
                                       sample=True)
                )

    return wrapper


def _async_wrapper(func: Callable, name: str, options: dict) -> Callable:
    """Coroutines interleave on one thread, so they keep no stack frame:
    only their duration (and size) is recorded."""
    rec = RECORDER
    stat = rec.stat(name)
    items_of = options.get("items")
    keep = bool(options.get("samples"))

    @functools.wraps(func)
    async def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return await func(*args, **kwargs)
        finally:
            rec.add(stat, time.perf_counter() - start, sample=keep,
                    items=items_of(args) if items_of else 0)

    return wrapper


def _wrap(func: Callable, name: str, options: dict) -> Callable:
    if asyncio.iscoroutinefunction(func):
        return _async_wrapper(func, name, options)
    return _sync_wrapper(func, name, options)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        original = getattr(module, attr)
        _replace_everywhere(original, make(original))
        return
    owner = getattr(module, owner_name)
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _entry_wrapper(func: Callable, dump_dir: str) -> Callable:
    """Wraps the coroutine ``run_server``: totals from zero, dumped on return."""
    def restart() -> None:
        from repro.perf.cache import SIM_CACHE

        SIM_CACHE.reset_stats()
        RECORDER.reset()

    def dump() -> None:
        path = os.path.join(dump_dir, f"probe-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(RECORDER.snapshot(), handle)

    @functools.wraps(func)
    async def wrapper(*args, **kwargs):
        restart()
        try:
            return await func(*args, **kwargs)
        finally:
            dump()

    return wrapper


def _calibrate(repeats: int = 20000) -> float:
    """Seconds one probe adds to a call: wrapped minus plain no-op."""

    def noop():
        return None

    wrapped = _sync_wrapper(noop, "_calibrate", {})
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        best = min(best, (time.perf_counter() - start - plain) / repeats)
    with RECORDER.lock:
        del RECORDER.stats["_calibrate"]
    return max(best, 0.0)


def install(dump_dir: Optional[str] = None, experiments: bool = True) -> Recorder:
    """Wrap every probe target (and each harness experiment); with
    ``dump_dir``, serve's ``run_server`` too.  Returns the process's
    recorder, reset to zero."""
    for name, module_name, path, options in PROBES:
        _patch(module_name, path, lambda f, n=name, o=options: _wrap(f, n, o))
    if experiments:
        from repro.harness import runner

        for eid, func in list(runner.EXPERIMENTS.items()):
            runner.EXPERIMENTS[eid] = _wrap(func, f"harness.experiment.{eid}", {})
    if dump_dir is not None:
        _patch("repro.store.serve", "run_server", lambda f: _entry_wrapper(f, dump_dir))
    RECORDER.per_call_s = _calibrate()
    RECORDER.reset()
    return RECORDER


def load_dumps(dump_dir: str) -> List[dict]:
    """Every ``probe-<pid>.json`` a serve worker wrote."""
    docs = []
    for entry in sorted(os.listdir(dump_dir)):
        if entry.startswith("probe-") and entry.endswith(".json"):
            with open(os.path.join(dump_dir, entry), encoding="utf-8") as handle:
                docs.append(json.load(handle))
    return docs


# ------------------------------------------------------------ summarizing


def combine(docs: List[dict]) -> dict:
    """Sum the snapshots of several processes into one."""
    total = {"wall_s": 0.0, "top_s": 0.0, "per_call_s": 0.0, "memo": {},
             "serve": {}, "probes": {}}
    for doc in docs:
        for key in ("wall_s", "top_s"):
            total[key] += doc[key]
        total["per_call_s"] = max(total["per_call_s"], doc["per_call_s"])
        for group in ("memo", "serve"):
            for key, value in doc[group].items():
                total[group][key] = total[group].get(key, 0) + value
        for name, stat in doc["probes"].items():
            into = total["probes"].setdefault(name, Stat().to_doc())
            for key, value in stat.items():
                into[key] = into[key] + value
    return total


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, inclusive method);
    0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def serve_attributed_s(docs: List[dict], requests: int) -> float:
    """Seconds per request the serve probes account for: parse, submit,
    the wait for the future, and response encoding."""
    stats = combine(docs)["probes"]
    empty = Stat().to_doc()
    spent = sum(stats.get(name, empty)["s"]
                for name in ("serve.parse", "serve.submit", "serve.encode"))
    return (spent + sum(stats.get("serve.wait", empty)["samples"])) / requests


def layer_metrics(names: List[str], docs: List[dict], norm: int,
                  wall_s: float, extra: Dict[str, float]) -> Dict[str, float]:
    """The value of every per-layer metric in ``names``.

    Counts and times are divided by ``norm`` (passes, sweeps or requests);
    ``.us`` is the mean per call; ``.p50_ms``/``.p99_ms`` are percentiles
    of single calls.  Names in ``extra`` take its value; validity metrics
    with no value in this workload read 0.
    """
    total = combine(docs)
    stats, memo, serve = total["probes"], total["memo"], total["serve"]
    empty = Stat().to_doc()
    hits = sum(memo.get(k, 0) for k in ("exact_hits", "canonical_hits", "persistent_hits"))
    self_sum = sum(stat["self_s"] for stat in stats.values())
    calls_sum = sum(stat["calls"] for stat in stats.values())
    derived = {
        "perf.memo.hit_ratio": hits / max(1, hits + memo.get("misses", 0)),
        "serve.batch_size_mean": (stats.get("serve.price", empty)["items"]
                                  / max(1, stats.get("serve.price", empty)["calls"])),
        "serve.dedup_ratio": serve.get("dedup_joins", 0) / max(1, serve.get("requests", 0)),
        "serve.simulations": memo.get("misses", 0) / norm if serve.get("requests") else 0.0,
        "serve.shed": serve.get("shed", 0) / norm,
        "unattributed.s": (total["wall_s"] - total["top_s"]) / norm,
        "trace_overhead": calls_sum * total["per_call_s"] / wall_s,
        "reconcile_error": abs(self_sum - total["top_s"]) / max(total["wall_s"], 1e-9),
        "serve.client_lag_p99_ms": 0.0,
        "serve.unattributed_share": 0.0,
    }
    for key, value in memo.items():
        derived[f"perf.memo.{key}"] = value / norm
    derived.update(extra)
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
            continue
        probe, _, kind = name.rpartition(".")
        stat = stats.get(probe, empty)
        if kind in ("calls", "s", "self_s"):
            values[name] = stat[kind] / norm
        elif kind == "us":
            values[name] = stat["s"] / stat["calls"] * 1e6 if stat["calls"] else 0.0
        elif kind == "hit_ratio":
            values[name] = stat["hits"] / stat["calls"] if stat["calls"] else 0.0
        elif kind in ("p50_ms", "p99_ms"):
            values[name] = percentile(stat["samples"], int(kind[1:3])) * 1e3
        else:
            raise KeyError(f"no rule gives per-layer metric {name!r}")
    return values
