"""Run-level observability: logging, manifests, profiling, metrics.

Where :mod:`repro.trace` makes the *simulators* observable (cycle spans,
golden snapshots), this package makes the *harness* observable — the layer
above, answering "what ran, on what code, and at what cost?".  Four
pieces:

- :mod:`repro.obs.log` — structured JSONL event logging plus the console
  channel that replaced the harness's bare prints (``--log-level``,
  ``--log-file``, ``--quiet``);
- :mod:`repro.obs.manifest` — ``results/<run_id>/manifest.json`` provenance
  records (git SHA, config fingerprints, versions, argv, wall/CPU/RSS);
- :mod:`repro.obs.profiler` — the ``--profile`` phase profiler (wall, CPU,
  tracemalloc peak per experiment) and its hotspot table;
- :mod:`repro.obs.prom` — Prometheus text exposition of the
  :class:`repro.trace.MetricsRegistry`'s counters/gauges/histograms to
  ``results/<run_id>/metrics.prom``.

Everything follows the trace layer's contract: **off by default, zero
footprint when off** — a default run's stdout and ``results/`` artifacts
are byte-identical to a build without this package.
"""

from . import log
from .manifest import (
    RunContext,
    RunManifest,
    collect_provenance,
    config_fingerprints,
    git_revision,
    new_run_id,
    peak_rss_kb,
    write_manifest,
)
from .profiler import PhaseProfiler, PhaseSample, render_hotspots
from .prom import render_prometheus, write_prometheus

__all__ = [
    "log",
    "RunContext",
    "RunManifest",
    "collect_provenance",
    "config_fingerprints",
    "git_revision",
    "new_run_id",
    "peak_rss_kb",
    "write_manifest",
    "PhaseProfiler",
    "PhaseSample",
    "render_hotspots",
    "render_prometheus",
    "write_prometheus",
]
