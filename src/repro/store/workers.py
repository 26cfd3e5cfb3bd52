"""Worker supervision: the one process model of every ``repro serve``.

Crash-only process model (DESIGN.md §4l): a supervising **parent** owns
the listener socket and *never* touches a request; N forked **workers**
(``--workers N``, default 1) inherit the socket and ``accept()`` from the
shared queue, so the kernel load-balances connections and a worker can
die at any instant without losing the listening endpoint.  The parent
attaches the persistent store before the first fork, so every worker
inherits it.  The parent's only jobs are:

- **liveness**: each worker writes a byte down a heartbeat pipe about
  once a second; a worker silent past ``LIVENESS_TIMEOUT_S`` is presumed
  hung and gets SIGKILL (its replacement is what answers clients);
- **respawn**: a dead worker (crash, injected ``worker-crash`` fault,
  external ``kill -9``) is respawned after a seeded exponential backoff —
  the same :class:`~repro.resilience.supervisor.RetryPolicy` schedule the
  offline planes use, so a crash-looping fleet backs off deterministically
  instead of fork-bombing;
- **crash budget**: past ``MAX_TOTAL_RESPAWNS`` respawns in one life the
  parent stops pretending — it degrades to a single worker (better a slow
  truth than a fast crash loop) and says so in the status file;
- **forensics**: every worker death produces a flight-recorder dump
  (``flightrec-serve-worker-death-*.json``) and a supervisor status-file
  update (``--status-file``), which is how ``tools/serve_chaos.py``
  asserts "the supervisor restored full worker count".

SIGTERM/SIGINT to the parent forwards SIGTERM to every worker, waits for
their graceful drains (each worker answers everything it admitted), then
exits 0.  The parent runs no asyncio — plain ``select``/``waitpid`` — so
``fork()`` never duplicates a live event loop.
"""

from __future__ import annotations

import dataclasses
import errno
import os
import select
import signal
import socket
import sys
import time
from typing import Dict, List, Optional

from ..obs import log as obs_log
from ..obs.flight import beacon as flight_beacon
from ..obs.flight.recorder import maybe_dump
from ..resilience.supervisor import RetryPolicy

__all__ = ["supervise", "WorkerSlot"]

#: Seconds between worker heartbeat bytes (written by run_server's task).
HEARTBEAT_INTERVAL_S = 1.0
#: A worker silent this long is presumed hung and killed.
LIVENESS_TIMEOUT_S = 10.0
#: A worker alive this long resets its slot's backoff attempt counter.
STABLE_AFTER_S = 30.0
#: Total respawns before the supervisor degrades to a single worker.
MAX_TOTAL_RESPAWNS = 16
#: Seconds the parent waits for graceful worker drains before SIGKILL.
SHUTDOWN_GRACE_S = 15.0


@dataclasses.dataclass
class WorkerSlot:
    """One worker position in the fleet (stable across respawns)."""

    index: int
    pid: Optional[int] = None
    pipe_r: int = -1
    last_beat: float = 0.0
    spawned_at: float = 0.0
    attempts: int = 0  # consecutive fast deaths, drives the backoff
    respawn_at: Optional[float] = None  # backoff timer when pending


def _worker_main(args, config, run_id, sock, heartbeat_fd, index) -> int:
    """Entry point of one forked worker (never returns: os._exit)."""
    import asyncio

    from .serve import configure_worker_observability, run_server

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    configure_worker_observability(args, run_id, index)

    def _beat() -> None:
        try:
            os.write(heartbeat_fd, b".")
        except OSError:
            # The parent is gone: a worker with no supervisor drains out.
            os.kill(os.getpid(), signal.SIGTERM)

    trace_path = f"{args.trace}.w{index}" if args.trace else None
    asyncio.run(run_server(config, run_id, sock, index, _beat, trace_path))
    obs_log.shutdown()
    return 0


def supervise(args, config, run_id) -> int:
    """Run the pre-forked fleet until SIGTERM/SIGINT; returns exit code."""
    obs_log.configure(level=None, log_file=args.log_file, run_id=run_id)
    flight_beacon.configure_beacon(
        role="serve-supervisor", run_id=run_id, status_path=args.status_file
    )
    if args.flight:
        from ..obs.flight import recorder as flight_recorder

        flight_recorder.configure_recorder(run_dir=args.flight)

    sock = socket.create_server(
        (config.host, config.port), backlog=max(128, config.max_pending)
    )
    sock.set_inheritable(True)
    host, port = sock.getsockname()[:2]
    print(f"serve: listening on http://{host}:{port} "
          f"(max_pending={config.max_pending}, max_batch={config.max_batch}, "
          f"workers={config.workers}, run={run_id})",
          flush=True)
    obs_log.info(
        "serve.supervisor_started",
        host=host, port=port, workers=config.workers,
    )

    policy = RetryPolicy(
        backoff_base_s=0.25, backoff_cap_s=5.0, jitter=0.5, seed=port or 1
    )
    target_workers = config.workers
    slots = [WorkerSlot(index=i) for i in range(config.workers)]
    respawns = 0
    degraded_single = False
    stopping = False

    def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    def _spawn(slot: WorkerSlot) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # ------------------------------------------ child
            rc = 1
            try:
                os.close(read_fd)
                for other in slots:
                    if other.pipe_r >= 0:
                        try:
                            os.close(other.pipe_r)
                        except OSError:
                            pass
                rc = _worker_main(
                    args, config, run_id, sock, write_fd, slot.index
                )
            except BaseException as err:  # never unwind into parent code
                try:
                    sys.stderr.write(
                        f"serve worker {slot.index} crashed: "
                        f"{type(err).__name__}: {err}\n"
                    )
                except Exception:
                    pass
            finally:
                os._exit(rc)
        # ------------------------------------------------------- parent
        os.close(write_fd)
        now = time.monotonic()
        slot.pid = pid
        slot.pipe_r = read_fd
        slot.last_beat = now
        slot.spawned_at = now
        slot.respawn_at = None
        obs_log.info("serve.worker_spawned", worker=slot.index, pid=pid)

    def _publish_status(force: bool = False) -> None:
        beacon = flight_beacon.get_beacon()
        beacon.update(
            workers_target=target_workers,
            workers_alive=sum(1 for s in slots if s.pid is not None),
            worker_pids=[s.pid for s in slots if s.pid is not None],
            respawns=respawns,
            degraded_single=degraded_single,
            port=port,
        )
        if force:
            beacon.maybe_write(min_interval=0.0)
        else:
            beacon.maybe_write()

    for slot in slots[:target_workers]:
        _spawn(slot)
    _publish_status(force=True)

    def _on_worker_death(slot: WorkerSlot, status: int) -> None:
        nonlocal respawns, degraded_single, target_workers
        now = time.monotonic()
        lifetime = now - slot.spawned_at
        if os.WIFSIGNALED(status):
            cause = f"signal {os.WTERMSIG(status)}"
        else:
            cause = f"exit {os.WEXITSTATUS(status)}"
        obs_log.warning(
            "serve.worker_died",
            worker=slot.index, pid=slot.pid, cause=cause,
            lifetime_s=round(lifetime, 3),
        )
        maybe_dump(
            "serve-worker-death",
            {"worker": slot.index, "pid": slot.pid, "cause": cause,
             "lifetime_s": round(lifetime, 3), "respawns": respawns},
        )
        if slot.pipe_r >= 0:
            try:
                os.close(slot.pipe_r)
            except OSError:
                pass
        slot.pid = None
        slot.pipe_r = -1
        if stopping:
            return
        respawns += 1
        if lifetime >= STABLE_AFTER_S:
            slot.attempts = 0
        slot.attempts += 1
        if respawns > MAX_TOTAL_RESPAWNS and not degraded_single:
            # Crash budget exhausted: stop feeding the loop.  One worker
            # still serves (slowly, honestly) instead of the fleet dying.
            degraded_single = True
            target_workers = 1
            obs_log.warning(
                "serve.supervisor_degraded_single",
                respawns=respawns, budget=MAX_TOTAL_RESPAWNS,
            )
            maybe_dump(
                "serve-crash-budget",
                {"respawns": respawns, "budget": MAX_TOTAL_RESPAWNS},
            )
        if slot.index < target_workers:
            delay = policy.backoff_s(slot.index, slot.attempts)
            slot.respawn_at = now + delay
            obs_log.info(
                "serve.worker_respawn_scheduled",
                worker=slot.index, delay_s=round(delay, 3),
                attempt=slot.attempts,
            )

    try:
        while True:
            now = time.monotonic()
            fds = [s.pipe_r for s in slots if s.pid is not None and s.pipe_r >= 0]
            try:
                ready, _, _ = select.select(fds, [], [], 0.25)
            except InterruptedError:
                ready = []
            except OSError as err:
                if err.errno != errno.EBADF:
                    raise
                ready = []  # a worker died between list and select; reap below
            for fd in ready:
                try:
                    os.read(fd, 4096)
                except OSError:
                    continue
                for slot in slots:
                    if slot.pipe_r == fd:
                        slot.last_beat = now
                        break
            # Reap every worker death since the last tick.
            while True:
                try:
                    pid, status = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid == 0:
                    break
                for slot in slots:
                    if slot.pid == pid:
                        _on_worker_death(slot, status)
                        break
            if stopping:
                break
            now = time.monotonic()
            for slot in slots:
                if slot.pid is not None:
                    if now - slot.last_beat > LIVENESS_TIMEOUT_S:
                        # Hung, not dead: SIGKILL now, reap + respawn next
                        # tick.  A worker that cannot heartbeat cannot serve.
                        obs_log.warning(
                            "serve.worker_hung_killed",
                            worker=slot.index, pid=slot.pid,
                            silent_s=round(now - slot.last_beat, 3),
                        )
                        try:
                            os.kill(slot.pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                        slot.last_beat = now  # one SIGKILL per hang
                elif slot.respawn_at is not None and now >= slot.respawn_at:
                    if slot.index < target_workers:
                        _spawn(slot)
                    else:
                        slot.respawn_at = None  # degraded: slot retired
            _publish_status()
    finally:
        # ---------------------------------------------------- graceful stop
        live = [s for s in slots if s.pid is not None]
        obs_log.info("serve.supervisor_draining", workers=len(live))
        for slot in live:
            try:
                os.kill(slot.pid, signal.SIGTERM)
            except ProcessLookupError:
                slot.pid = None
        deadline = time.monotonic() + SHUTDOWN_GRACE_S
        while any(s.pid is not None for s in slots) and time.monotonic() < deadline:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                time.sleep(0.05)
                continue
            for slot in slots:
                if slot.pid == pid:
                    slot.pid = None
                    if slot.pipe_r >= 0:
                        try:
                            os.close(slot.pipe_r)
                        except OSError:
                            pass
                        slot.pipe_r = -1
                    break
        for slot in slots:
            if slot.pid is not None:  # drain grace blown: stop waiting
                try:
                    os.kill(slot.pid, signal.SIGKILL)
                    os.waitpid(slot.pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
                slot.pid = None
        sock.close()
        _publish_status(force=True)
    print(f"serve: supervisor drained; respawns={respawns}"
          f"{' (degraded to single worker)' if degraded_single else ''}",
          flush=True)
    obs_log.info("serve.supervisor_stopped", respawns=respawns)
    obs_log.shutdown()
    return 0
