"""The four workloads: what each runs, times and checks.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`: the time of every timed operation, the set-up times,
memory, operations attempted and failed, and the correctness problems it
found (an empty list when every output was right).
Figures passes, sweeps and set-up launches are normalized to the
reference machine speed (:mod:`speed`), with the raw median times in
``info``; serve requests are raw wall times (see :mod:`speed` for why).
In a traced run the workload also returns the probe totals, and nothing is
normalized.

- ``figures-cold``: ``runner.run_all()`` plus ``export.write_results``,
  memo cleared before every pass, no store.  What ``repro run`` users wait
  for; the work is in the model layers (systolic, perf, gpu, core).
- ``figures-store-warm``: the same passes against a store filled by one
  untimed cold pass; the memo is cleared before each pass, so every lookup
  is served by the store.  The read side of the store tier.
- ``serve-mixed``: ``repro serve --workers 2`` behind the seeded request
  stream of :mod:`traffic`.  The only workload through HTTP, admission,
  dedup, batching and encoding, with store writes beside reads.
- ``dse-paper``: ``run_sweep(preset="paper", jobs=1)`` sweeps, each with a
  fresh out dir, a cleared memo and no store.  The sweep plane: leases,
  fsync'd journals and layer-by-layer ``evaluate_task``.  One job, because
  with two a sweep is no faster, and its time depends on the workers'
  polling phase and on how many tasks both of them evaluate (their pending
  lists go stale).  The multi-worker path is therefore not measured here.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import probes
import traffic
import speed
from speed import Interval, timed

SUITE = Path(__file__).resolve().parent

#: SHA-256 of ``frontier.json`` from a ``paper`` sweep of the default
#: workloads; a sweep that produces other bytes is wrong.
FRONTIER_SHA256 = "e4f9bcf3a9a73e47f34f41d0bdea080ad3fb8bbad8f1aa32b61eed9920fc45c5"
#: Set-up launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 9
#: Flags the serve workload starts ``repro serve`` with (besides port/store).
SERVE_FLAGS = ["--workers", "2"]
#: Requests/s the serve workload offers (assumed; no request log exists).
RATE = 50.0
#: Host steal share above which a serve measurement is repeated, and how
#: many attempts a run makes at most.  Request latency tracks the share of
#: CPU time the host steals from this machine (from 9 ms at p50 with
#: under 0.5% stolen to 13 ms near 10%), a state that lasts a minute or
#: more; the run reports the attempt with the least steal.
STEAL_LIMIT = 0.01
SERVE_ATTEMPTS = 2
#: Served answers whose cycles are checked against the in-process model.
CHECKED_ANSWERS = 64
#: Seconds a launched process gets to come up or to drain.
LAUNCH_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The workload could not run (as opposed to running and being wrong)."""


@dataclasses.dataclass
class Run:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    smoke: bool

    def env(self) -> Dict[str, str]:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"),
                    TMPDIR=str(self.work))

    def timed(self):
        """Times a figures pass or a sweep, normalized in untraced runs only."""
        return timed(normalize=not self.trace)


@dataclasses.dataclass
class Outcome:
    latencies: List[float]  # seconds per timed operation
    setup: List[float]  # normalized seconds per set-up launch
    rss_mb: float
    attempted: int
    failed: int
    errors: List[str] = dataclasses.field(default_factory=list)
    info: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Traced runs only: process snapshots, the count per-layer totals are
    #: divided by, the measured wall time, and metrics computed directly.
    docs: List[dict] = dataclasses.field(default_factory=list)
    norm: int = 1
    wall_s: float = 0.0
    layer_extra: Dict[str, float] = dataclasses.field(default_factory=dict)


def expected_results(root: Path) -> Path:
    """The committed exports every figures pass must reproduce."""
    return root / "results"


def reference_cycles(spec) -> int:
    """Cycles of one conv layer from the in-process model, simulated here
    through the per-layer path: the memo is cleared first, so nothing is
    read back from the store prefill or an earlier answer."""
    from repro.perf.cache import clear_cache
    from repro.systolic.simulator import TPUSim

    clear_cache()
    return TPUSim().simulate_conv(spec).cycles


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_times(run: Run, launch) -> List[float]:
    """Normalized seconds ``launch()`` takes to return a ready workload in
    a fresh :mod:`ready` process, whose kernel runs are left out.  ``launch``
    returns ``(kernel times, stop)``.  None in a traced run."""
    seconds = []
    for _ in range(0 if run.trace else 1 if run.smoke else SETUP_LAUNCHES):
        start = time.perf_counter()
        kernels, stop = launch()
        seconds.append((time.perf_counter() - start - sum(kernels)) * speed.scale(kernels))
        stop()
    return seconds


def _ready_process(run: Run, *argv: str):
    """Launch ``ready.py argv``; returns once it printed ``ready``."""
    proc = subprocess.Popen([sys.executable, str(SUITE / "ready.py"), *argv],
                            cwd=run.root, env=run.env(), stdout=subprocess.PIPE,
                            text=True)
    first, line = proc.stdout.readline(), proc.stdout.readline()

    def stop() -> None:
        proc.communicate(timeout=LAUNCH_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up launch {argv} exited {proc.returncode}")

    if not first.startswith("kernel ") or line.strip() != "ready":
        stop()
        raise BenchError(f"set-up launch {argv} never got ready")
    return [float(value) for value in first.split()[1:]], stop


def _compare_exports(expected: Path, produced: Path, label: str) -> List[str]:
    want = {p.name for p in expected.iterdir() if p.name != "README.md"}
    got = {p.name for p in produced.iterdir()}
    problems = [f"{label}: {name} missing" for name in sorted(want - got)]
    problems += [f"{label}: unexpected {name}" for name in sorted(got - want)]
    for name in sorted(want & got):
        if (expected / name).read_bytes() != (produced / name).read_bytes():
            problems.append(f"{label}: {name} differs from {expected / name}")
    return problems


def _speed_info(ops: List[Interval]) -> Dict[str, float]:
    """The raw median operation time and the median speed scale."""
    return {"raw_p50_ms": statistics.median(i.wall for i in ops) * 1e3,
            "speed_scale": statistics.median(i.scale for i in ops)}


def _enough(run: Run, ops: List[Interval]) -> bool:
    """One operation in a smoke run; else operations until ``--seconds``."""
    return bool(ops) and (run.smoke or sum(i.wall for i in ops) >= run.seconds)


# --------------------------------------------------------------- figures


def _figures(run: Run, with_store: bool) -> Outcome:
    from repro.harness import export, runner
    from repro.perf.cache import cache_stats, clear_cache
    from repro.store import attach, detach

    store_dir = run.work / "store"
    ready_argv = ["figures"]
    errors: List[str] = []
    if with_store:
        attach(store_dir)
        clear_cache()
        runner.run_all()  # the untimed cold pass that fills the store
        ready_argv = ["figures-store", str(store_dir)]
    try:
        setup = _setup_times(run, lambda: _ready_process(run, *ready_argv))
        # One untimed pass finishes lazy imports; its export is the first
        # one checked against results/.
        clear_cache()
        export.write_results(runner.run_all(), run.work / "first")
        errors += _compare_exports(expected_results(run.root),
                                   run.work / "first", "first pass")
        recorder = probes.install() if run.trace else None
        memo = dict.fromkeys(probes.memo_counts(cache_stats()), 0)
        passes: List[Interval] = []
        while not _enough(run, passes):
            clear_cache()
            with run.timed() as interval:
                export.write_results(runner.run_all(), run.work / "last")
            passes.append(interval)
            stats = cache_stats()
            for key, value in probes.memo_counts(stats).items():
                memo[key] += value
            if with_store and stats.misses:
                errors.append(f"store-warm pass {len(passes)} re-simulated "
                              f"{stats.misses} layer(s)")
        errors += _compare_exports(expected_results(run.root),
                                   run.work / "last", "last pass")
    finally:
        if with_store:
            detach()
        clear_cache()
    latencies = [i.norm for i in passes]
    outcome = Outcome(
        latencies=latencies,
        setup=setup,
        rss_mb=_peak_rss_mb(),
        attempted=len(passes) * len(runner.EXPERIMENTS),
        failed=0,
        errors=errors,
        info=_speed_info(passes),
    )
    if recorder is not None:
        doc = recorder.snapshot()
        doc["memo"] = memo
        outcome.docs, outcome.norm, outcome.wall_s = [doc], len(passes), doc["wall_s"]
    return outcome


def figures_cold(run: Run) -> Outcome:
    return _figures(run, with_store=False)


def figures_store_warm(run: Run) -> Outcome:
    return _figures(run, with_store=True)


# ------------------------------------------------------------------- dse


def dse_paper(run: Run) -> Outcome:
    from repro.dse import engine
    from repro.perf.cache import clear_cache

    recorder = probes.install() if run.trace else None
    sweeps: List[Interval] = []
    digests = set()
    attempted = failed = 0
    setup = _setup_times(run, lambda: _ready_process(run, "dse"))
    while not _enough(run, sweeps):
        out = run.work / f"sweep-{len(sweeps)}"
        config = engine.SweepConfig(out=str(out), preset="paper", jobs=1)
        clear_cache()
        with run.timed() as interval:
            summary = engine.run_sweep(config)
        sweeps.append(interval)
        digests.add(hashlib.sha256((out / "frontier.json").read_bytes()).hexdigest())
        attempted += summary["points_seen"] * len(config.workloads)
        failed += len(summary["quarantined"])
        shutil.rmtree(out)
    clear_cache()
    errors = []
    if len(digests) > 1:
        errors.append(f"sweeps produced {len(digests)} different frontier.json files")
    if digests != {FRONTIER_SHA256}:
        errors.append(f"frontier.json sha256 {sorted(digests)} != recorded "
                      f"{FRONTIER_SHA256}")
    latencies = [i.norm for i in sweeps]
    outcome = Outcome(
        latencies=latencies,
        setup=setup,
        rss_mb=_peak_rss_mb(),
        attempted=attempted,
        failed=failed,
        errors=errors,
        info=_speed_info(sweeps),
    )
    if recorder is not None:
        doc = recorder.snapshot()
        outcome.docs, outcome.norm, outcome.wall_s = [doc], len(sweeps), doc["wall_s"]
    return outcome


# ----------------------------------------------------------------- serve


class Server:
    """One ``repro serve`` process tree, launched and stopped by the bench."""

    def __init__(self, run: Run, store_dir: Path, launcher: List[str]) -> None:
        """``launcher`` is the command before the serve flags: ``python -m
        repro serve``, ``ready.py serve`` (which first prints its kernel
        times) or ``traced_serve.py PROBE_DIR``."""
        argv = [*launcher, *SERVE_FLAGS, "--host", "127.0.0.1", "--port", "0",
                "--store", str(store_dir)]
        self.log = open(run.work / "serve.log", "ab")
        self.proc = subprocess.Popen(
            argv, cwd=run.root, env=run.env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True,
        )
        self.kernels = []
        match = None
        for line in self.proc.stdout:  # up to the "listening on" line
            if line.startswith("kernel "):
                self.kernels = [float(value) for value in line.split()[1:]]
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match:
                break
        if match is None:
            self.stop()
            raise BenchError(f"serve did not start; see {self.log.name}")
        self.host, self.port = match.group(1), int(match.group(2))
        asyncio.run(self._ready())

    async def _ready(self) -> None:
        """Returns at the first 200 on ``/readyz``."""
        from repro.store.serve import http_request

        deadline = time.perf_counter() + LAUNCH_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = await http_request(self.host, self.port, "GET", "/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            await asyncio.sleep(0.005)
        self.stop()
        raise BenchError("serve never answered /readyz with 200")

    def peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` of the supervisor and its workers."""
        pid = self.proc.pid
        pids = [pid]
        try:
            pids += [int(c) for c in
                     Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
        except OSError:
            pass
        largest = 0.0
        for each in pids:
            try:
                status = Path(f"/proc/{each}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                largest = max(largest, int(match.group(1)) / 1024.0)
        return largest

    def stop(self) -> None:
        """SIGTERM, wait for the drain; SIGKILL the group if it hangs."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.communicate(timeout=LAUNCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()
        finally:
            self.log.close()


def _prefill(store_dir: Path, specs: list) -> None:
    """Price the catalog in-process, from a cleared memo, with the store
    attached: the server starts with a cold memo and a warm store."""
    from repro.perf.cache import clear_cache
    from repro.store import attach, detach
    from repro.systolic.simulator import TPUSim

    clear_cache()
    attach(store_dir)
    try:
        TPUSim().simulate_conv_batch(specs)
    finally:
        detach()


def _cpu_ticks() -> List[int]:
    """``[all, stolen]`` CPU ticks of the machine so far (``/proc/stat``);
    zeros where that file is missing."""
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return [0, 0]
    ticks = [int(field) for field in line.split()[1:]]
    return [sum(ticks), ticks[7]]


def _offer(run: Run, store_dir: Path, launcher: List[str], requests: list):
    """Starts a server on ``store_dir``, sends it ``requests`` and stops it.
    Returns the replies, the seconds they took, the server's peak memory in
    MB and the share of CPU time the host stole meanwhile."""
    server = Server(run, store_dir, launcher)
    try:
        ticks, start = _cpu_ticks(), time.perf_counter()
        replies = asyncio.run(traffic.open_loop(server.host, server.port, requests,
                                                RATE, run.seed))
        wall_s = time.perf_counter() - start
        total, stolen = (after - before for after, before in zip(_cpu_ticks(), ticks))
        peak_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return replies, wall_s, peak_mb, stolen / max(1, total)


def serve_mixed(run: Run) -> Outcome:
    specs, counts = traffic.catalog()
    requests = traffic.request_specs(specs, counts, run.seed,
                                     round(RATE * (1.0 if run.smoke else run.seconds)))
    prefilled = run.work / "store"
    _prefill(prefilled, specs)

    def launch():
        server = Server(run, prefilled, [sys.executable, str(SUITE / "ready.py"), "serve"])
        return server.kernels, server.stop

    setup = _setup_times(run, launch)
    probe_dir = run.work / "probes" if run.trace else None
    launcher = [sys.executable, "-m", "repro", "serve"]
    if probe_dir is not None:
        probe_dir.mkdir()
        launcher = [sys.executable, str(SUITE / "traced_serve.py"), str(probe_dir)]
    attempts = []
    for attempt in range(1 if run.trace or run.smoke else SERVE_ATTEMPTS):
        store_dir = run.work / f"store-{attempt}"  # every attempt starts alike
        shutil.copytree(prefilled, store_dir)
        attempts.append(_offer(run, store_dir, launcher, requests))
        if attempts[-1][3] <= STEAL_LIMIT:
            break
    replies, wall_s, peak_mb, steal = min(attempts, key=lambda attempt: attempt[3])

    answered = [r for r in replies if r.status == 200]
    errors = []
    sample = random.Random(run.seed).sample(answered, min(CHECKED_ANSWERS, len(answered)))
    for reply in sample:
        want = reference_cycles(reply.spec)
        if reply.cycles != want:
            errors.append(f"{reply.spec.describe()}: served cycles "
                          f"{reply.cycles} != in-process model {want}")
    outcome = Outcome(
        latencies=[r.latency for r in replies],
        setup=setup,
        rss_mb=peak_mb,
        attempted=len(replies),
        failed=len(replies) - len(answered),
        errors=errors,
        info={
            "p99_ms": probes.percentile([r.latency for r in replies], 99) * 1e3,
            "client_lag_p99_ms": probes.percentile([r.lag for r in replies], 99) * 1e3,
            "host_steal_pct": steal * 100,
            "attempts": len(attempts),
        },
    )
    if probe_dir is not None:
        outcome.docs = probes.load_dumps(str(probe_dir))
        outcome.norm, outcome.wall_s = len(replies), wall_s
        mean_service = sum(r.service for r in replies) / len(replies)
        unattributed = mean_service - probes.serve_attributed_s(outcome.docs, len(replies))
        outcome.layer_extra = {
            "serve.client_lag_p99_ms": outcome.info["client_lag_p99_ms"],
            "unattributed.s": unattributed,
            "serve.unattributed_share": unattributed / mean_service,
        }
    return outcome


WORKLOADS = {
    "figures-cold": figures_cold,
    "figures-store-warm": figures_store_warm,
    "serve-mixed": serve_mixed,
    "dse-paper": dse_paper,
}
