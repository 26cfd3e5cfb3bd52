"""``repro top`` — live ops console for runs and the serve daemon.

Reads a beacon status document from either:

- a **status file** (``--status-file``) the runner/supervisor mirrors via
  :meth:`repro.obs.flight.beacon.Beacon.maybe_write`, or
- a serve daemon's ``/statusz`` endpoint (``--url http://host:port``).

and renders a compact text dashboard: sweep progress with rolling
throughput and ETA, active tasks with ages, supervisor health (queue
depth, workers, retries/timeouts/respawns), serve load (in-flight,
dedup joins, shed requests) and cache hit rates per tier.

``--once`` prints a single frame and exits (CI smoke / scripting);
otherwise the view refreshes every ``--interval`` seconds, using curses
when stdout is a terminal and plain reprints when it is not (or with
``--plain``).  Pure stdlib, read-only: ``repro top`` never writes
anything, so pointing it at a live run is always safe.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

__all__ = ["render_status", "read_status", "add_top_args", "top", "top_main"]


def read_status(
    status_file: Optional[str] = None, url: Optional[str] = None, timeout: float = 2.0
) -> dict:
    """Load one status document; raises ``RuntimeError`` with a clear cause."""
    if status_file is not None:
        try:
            with open(status_file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise RuntimeError(f"cannot read status file {status_file}: {exc}") from exc
        source = status_file
    elif url is not None:
        # Imported here: every `repro` command imports this module to build
        # its parser, and only --url needs urllib.
        import urllib.error
        import urllib.request

        target = url.rstrip("/") + "/statusz"
        try:
            with urllib.request.urlopen(target, timeout=timeout) as response:
                text = response.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            raise RuntimeError(f"cannot fetch {target}: {exc}") from exc
        source = target
    else:
        raise RuntimeError("one of --status-file / --url is required")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise RuntimeError(f"malformed status JSON from {source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise RuntimeError(f"status document from {source} is not a JSON object")
    return doc


def _bar(done: int, total: int, width: int = 30) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(done, total) / total))
    return "#" * filled + "-" * (width - filled)


def _fmt_eta(eta_s) -> str:
    if eta_s is None:
        return "--"
    eta_s = float(eta_s)
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.0f}s"


def render_status(doc: dict, now: Optional[float] = None) -> str:
    """One dashboard frame for a beacon snapshot (pure: dict in, str out)."""
    now = time.time() if now is None else now
    lines: List[str] = []
    role = doc.get("role", "?")
    run_id = doc.get("run_id") or "-"
    age = now - float(doc.get("ts", now))
    stale = "  [STALE]" if age > 10.0 else ""
    lines.append(
        f"repro top · role={role} run={run_id} pid={doc.get('pid', '?')} "
        f"up={_fmt_eta(doc.get('uptime_s'))} (status {age:.1f}s old){stale}"
    )

    tasks = doc.get("tasks", {})
    total, done = int(tasks.get("total", 0)), int(tasks.get("done", 0))
    failed = int(tasks.get("failed", 0))
    if total or done:
        pct = 100.0 * done / total if total else 0.0
        lines.append(
            f"sweep   [{_bar(done, total)}] {done}/{total} ({pct:.0f}%)"
            f"  failed={failed}  rate={doc.get('throughput_per_s', 0)}/s"
            f"  eta={_fmt_eta(doc.get('eta_s'))}"
        )
    active = tasks.get("active", {})
    if active:
        oldest = sorted(active.items(), key=lambda kv: -float(kv[1]))[:8]
        summary = "  ".join(f"{name}({age_s:.0f}s)" for name, age_s in oldest)
        lines.append(f"active  {len(active)}: {summary}")

    sup = doc.get("supervisor", {})
    if any(sup.get(k) for k in ("queue_depth", "workers", "retries", "timeouts", "respawns")):
        lines.append(
            f"pool    queue={sup.get('queue_depth', 0)} workers={sup.get('workers', 0)}"
            f" retries={sup.get('retries', 0)} timeouts={sup.get('timeouts', 0)}"
            f" respawns={sup.get('respawns', 0)}"
        )

    serve = doc.get("serve", {})
    if any(serve.get(k) for k in ("requests", "in_flight", "dedup_joins", "shed")):
        line = (
            f"serve   requests={serve.get('requests', 0)}"
            f" in_flight={serve.get('in_flight', 0)}"
            f" dedup_joins={serve.get('dedup_joins', 0)} shed={serve.get('shed', 0)}"
        )
        rung = serve.get("rung") or doc.get("extra", {}).get("rung")
        if rung and rung != "full":
            line += f" rung={rung}"
        breakers = serve.get("breakers", {})
        if breakers.get("open"):
            line += f" breakers_open={len(breakers['open'])}"
        worker = serve.get("worker")
        if worker:
            line += f" worker={worker.get('index')}/{worker.get('configured')}"
        lines.append(line)

    cache = doc.get("cache", {})
    probes = sum(int(v) for v in cache.values())
    if probes:
        hits = probes - int(cache.get("miss", 0))
        parts = " ".join(
            f"{tier}={cache.get(tier, 0)}"
            for tier in ("exact", "canonical", "persistent", "miss")
        )
        lines.append(f"cache   {parts}  hit-rate={100.0 * hits / probes:.1f}%")

    extra = doc.get("extra", {})
    if extra:
        parts = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        lines.append(f"extra   {parts}")
    return "\n".join(lines)


def _loop_plain(args) -> int:
    while True:
        frame = render_status(read_status(args.status_file, args.url))
        print(frame)
        print()
        time.sleep(args.interval)


def _loop_curses(args) -> int:
    import curses

    def _run(screen):
        curses.curs_set(0)
        screen.nodelay(True)
        while True:
            try:
                frame = render_status(read_status(args.status_file, args.url))
            except RuntimeError as exc:
                frame = f"repro top · {exc}"
            screen.erase()
            height, width = screen.getmaxyx()
            for row, line in enumerate(frame.splitlines()[: height - 1]):
                screen.addnstr(row, 0, line, width - 1)
            screen.refresh()
            deadline = time.time() + args.interval
            while time.time() < deadline:
                key = screen.getch()
                if key in (ord("q"), 27):
                    return
                time.sleep(0.05)

    curses.wrapper(_run)
    return 0


def add_top_args(parser: argparse.ArgumentParser) -> None:
    """Install ``repro top``'s options on ``parser``."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--status-file", help="beacon status file written by a runner/supervisor"
    )
    source.add_argument(
        "--url", help="base URL of a repro serve daemon (reads /statusz)"
    )
    parser.add_argument(
        "--once", action="store_true", help="print one frame and exit (CI smoke)"
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, help="refresh period in seconds"
    )
    parser.add_argument(
        "--plain",
        action="store_true",
        help="reprint frames instead of a curses screen (default off-tty)",
    )
    parser.set_defaults(func=top)


def top(args: argparse.Namespace) -> int:
    """Run ``repro top`` from its parsed options; returns the exit code."""
    if args.once:
        try:
            print(render_status(read_status(args.status_file, args.url)))
        except RuntimeError as exc:
            print(f"repro top: {exc}", file=sys.stderr)
            return 1
        return 0
    try:
        if args.plain or not sys.stdout.isatty():
            return _loop_plain(args)
        try:
            return _loop_curses(args)
        except ImportError:
            return _loop_plain(args)
    except KeyboardInterrupt:
        return 0
    except RuntimeError as exc:
        print(f"repro top: {exc}", file=sys.stderr)
        return 1


def top_main(argv: Optional[List[str]] = None) -> int:
    """``repro top ARGV`` (argv defaults to ``sys.argv[1:]``)."""
    from ...__main__ import main

    return main(["top", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(top_main())
