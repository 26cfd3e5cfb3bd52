"""Command-line interface: ``python -m repro <command>``.

Commands (``repro <command> --help`` lists a command's flags):

- ``run`` — regenerate the paper's tables and figures
  (``python -m repro.harness.runner`` is the same command).
- ``simulate-conv`` — time one conv layer on TPUSim and the V100 model.
- ``simulate-network`` — time a whole CNN.
- ``sweep-stride`` — the stride study for one layer across all paths.
- ``list-networks`` — the available workload tables.
- ``serve`` — answer ConvSpec timing queries over HTTP/JSON.
- ``store verify|stats|compact`` — check, describe or compact a result store.
- ``dse sweep|status|replay`` — crash-safe design-space exploration.
- ``fuzz`` — random conv specs under full audit, shrunk into a corpus.
- ``top`` — live console over a run's or a server's status beacon.
- ``report`` — Fig 2a-style bottleneck attribution from the goldens.

Every command accepts ``--log-level``/``--log-file``/``--quiet``/``--manifest``
after its (leaf) subcommand, e.g. ``repro store stats DIR --quiet``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.conv_spec import ConvSpec
from .dse.cli import add_dse_parser
from .gpu.channel_first import channel_first_conv_time
from .gpu.channel_last import channel_last_conv_time
from .gpu.config import V100
from .gpu.blocked_gemm import gemm_kernel_time
from .harness import runner
from .harness.attribution import add_report_args
from .obs import log as obs_log
from .obs.flight.top import add_top_args
from .store.serve import add_serve_args
from .systolic.simulator import TPUSim
from .workloads.networks import network, network_names


def _add_conv_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--c-in", type=int, default=128)
    parser.add_argument("--size", type=int, default=28, help="input H=W")
    parser.add_argument("--c-out", type=int, default=128)
    parser.add_argument("--filter", type=int, default=3)
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--padding", type=int, default=None)
    parser.add_argument("--dilation", type=int, default=1)


def _spec_from_args(args) -> ConvSpec:
    padding = args.padding if args.padding is not None else args.filter // 2
    return ConvSpec(
        n=args.batch, c_in=args.c_in, h_in=args.size, w_in=args.size,
        c_out=args.c_out, h_filter=args.filter, w_filter=args.filter,
        stride=args.stride, padding=padding, dilation=args.dilation,
        name="cli",
    )


def _obs_parent() -> argparse.ArgumentParser:
    """Observability options shared by every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--log-level",
        choices=sorted(obs_log.LEVELS, key=obs_log.LEVELS.get),
        default=obs_log.DEFAULT_LEVEL,
        help="stderr diagnostics threshold (default: warning)",
    )
    parent.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="append structured JSONL events to PATH",
    )
    parent.add_argument(
        "--quiet", action="store_true",
        help="suppress rendered output (artifacts still written)",
    )
    parent.add_argument(
        "--manifest", action="store_true",
        help="write results/<run_id>/manifest.json for this invocation",
    )
    return parent


def cmd_simulate_conv(args) -> int:
    spec = _spec_from_args(args)
    obs_log.info("cli.simulate_conv", spec=spec.describe())
    obs_log.console(spec.describe())
    tpu = TPUSim().simulate_conv(spec)
    obs_log.console(
        f"TPU-v2: {tpu.cycles:,.0f} cycles, {tpu.tflops:.2f} TFLOPS, "
        f"utilization {tpu.utilization:.0%}, multi-tile={tpu.group_size}"
    )
    gpu = channel_first_conv_time(spec, V100)
    obs_log.console(
        f"V100:   {gpu.seconds * 1e6:.1f} us, {gpu.tflops:.1f} TFLOPS, "
        f"bound={gpu.kernel.bound}"
    )
    return 0


def cmd_simulate_network(args) -> int:
    layers = network(args.name, args.batch)
    obs_log.info(
        "cli.simulate_network", network=args.name, batch=args.batch,
        platform=args.platform, layers=len(layers),
    )
    if args.platform == "tpu":
        sim = TPUSim()
        net = sim.simulate_network(args.name, layers)
        obs_log.console(
            f"{args.name} (batch {args.batch}) on TPU-v2: "
            f"{net.latency_s(sim.config.clock_ghz) * 1e3:.2f} ms, "
            f"{net.tflops(sim.config.clock_ghz):.1f} TFLOPS"
        )
    else:
        total = sum(channel_first_conv_time(layer, V100).seconds for layer in layers)
        macs = sum(layer.macs for layer in layers)
        obs_log.console(
            f"{args.name} (batch {args.batch}) on V100: {total * 1e3:.2f} ms, "
            f"{2 * macs / total / 1e12:.1f} TFLOPS"
        )
    return 0


def cmd_sweep_stride(args) -> int:
    base = _spec_from_args(args)
    sim = TPUSim()
    obs_log.console(
        f"{'stride':>6} {'TPU CF':>8} {'GPU CF':>8} {'GPU CL':>8} {'GEMM':>8}  (TFLOPS)"
    )
    for stride in (1, 2, 4):
        spec = base.with_stride(stride)
        tpu = sim.simulate_conv(spec).tflops
        cf = channel_first_conv_time(spec, V100).tflops
        cl = channel_last_conv_time(spec, V100).tflops
        gemm = gemm_kernel_time(spec.gemm_shape(), V100).tflops
        obs_log.debug(
            "cli.sweep_stride.point", stride=stride, tpu_tflops=round(tpu, 3),
            gpu_cf_tflops=round(cf, 3), gpu_cl_tflops=round(cl, 3),
        )
        obs_log.console(f"{stride:>6} {tpu:>8.1f} {cf:>8.1f} {cl:>8.1f} {gemm:>8.1f}")
    return 0


def cmd_list_networks(args) -> int:
    for name in network_names():
        layers = network(name, 1)
        gflops = sum(2 * layer.macs for layer in layers) / 1e9
        obs_log.console(
            f"{name:>10}: {len(layers):>3} conv layers, {gflops:6.1f} GFLOPs/image"
        )
    return 0


def cmd_store(args) -> int:
    from .store import ResultStore

    store = ResultStore(args.dir)
    if args.store_command == "verify":
        report = store.verify(quarantine=getattr(args, "quarantine", False))
        quarantined = set(report.quarantined)
        for problem in report.problems:
            obs_log.console(f"CORRUPT {problem.path}: {problem.reason}")
        for moved in report.quarantined:
            obs_log.console(f"QUARANTINED -> {moved}")
        obs_log.console(
            f"store verify: {report.ok}/{report.scanned} records ok, "
            f"{len(report.problems)} problem(s) at {store.root}"
            + (f", {len(quarantined)} moved to quarantine/" if quarantined else "")
        )
        # --quarantine heals the store: corrupt records are out of the
        # serving tree, so a fully-healed scan exits 0.
        if report.clean or (report.problems and report.healed):
            return 0
        return 1
    if args.store_command == "stats":
        info = store.describe()
        obs_log.console(
            f"store at {info['root']}: {info['entries']} records in "
            f"{info['shards']} shard(s), {info['bytes']:,} bytes "
            f"(schema {info['schema']})"
        )
        return 0
    if args.store_command == "compact":
        report = store.compact(
            max_entries=args.max_entries, max_bytes=args.max_bytes
        )
        obs_log.console(
            f"store compact: kept {report.kept}, removed {report.removed} "
            f"of {report.scanned} records "
            f"({report.bytes_before:,} -> {report.bytes_after:,} bytes)"
        )
        return 0
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def cmd_fuzz(args) -> int:
    from .audit.fuzz import run_fuzz

    obs_log.info(
        "cli.fuzz", specs=args.specs, seed=args.seed, corpus=args.corpus,
        inject_faults=args.inject_faults,
    )
    report = run_fuzz(
        specs=args.specs,
        seed=args.seed,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        write_corpus=not args.no_corpus,
        inject_faults=args.inject_faults,
        log=obs_log.console,
    )
    return 1 if report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs_parent = _obs_parent()

    p = sub.add_parser(
        "run", parents=[obs_parent],
        help="regenerate the paper's tables/figures (with observability)",
    )
    runner.add_run_args(p)

    p = sub.add_parser(
        "simulate-conv", parents=[obs_parent],
        help="time one conv layer on both platforms",
    )
    _add_conv_args(p)
    p.set_defaults(func=cmd_simulate_conv)

    p = sub.add_parser(
        "simulate-network", parents=[obs_parent], help="time a whole CNN"
    )
    p.add_argument("name")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--platform", choices=("tpu", "gpu"), default="tpu")
    p.set_defaults(func=cmd_simulate_network)

    p = sub.add_parser(
        "sweep-stride", parents=[obs_parent], help="stride study for one layer"
    )
    _add_conv_args(p)
    p.set_defaults(func=cmd_sweep_stride)

    p = sub.add_parser(
        "list-networks", parents=[obs_parent], help="available workload tables"
    )
    p.set_defaults(func=cmd_list_networks)

    p = sub.add_parser(
        "serve", parents=[obs_parent],
        help="serve conv-timing queries over HTTP/JSON (asyncio daemon "
        "with request dedup, batching, load shedding and /metrics)",
    )
    add_serve_args(p)

    # The observability options go on leaf parsers only: on a group parser
    # too, argparse would reset a group-level value to the leaf's default.
    p = sub.add_parser(
        "store",
        help="inspect/maintain a persistent result store "
        "(verify | stats | compact)",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    for name, text in (
        ("verify", "full integrity scan; exit 1 if any record is corrupt"),
        ("stats", "record/shard/byte counts of the store"),
        ("compact", "LRU-evict records beyond --max-entries/--max-bytes"),
    ):
        sp = store_sub.add_parser(name, parents=[obs_parent], help=text)
        sp.add_argument("dir", help="store directory")
        if name == "verify":
            sp.add_argument("--quarantine", action="store_true",
                            help="move corrupt records into <store>/"
                            "quarantine/ and exit 0 once the store reads "
                            "clean (the read path recomputes them)")
        if name == "compact":
            sp.add_argument("--max-entries", type=int, default=None,
                            help="records to keep at most (newest first)")
            sp.add_argument("--max-bytes", type=int, default=None,
                            help="total record bytes to keep at most")
        sp.set_defaults(func=cmd_store)

    add_dse_parser(sub, obs_parent)

    p = sub.add_parser(
        "fuzz", parents=[obs_parent],
        help="fuzz random conv specs under full audit; shrink failures "
        "into tests/audit/corpus/",
    )
    p.add_argument("--specs", type=int, default=200,
                   help="number of random specs to run (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; same seed => same specs and shrinks")
    p.add_argument("--corpus", default="tests/audit/corpus", metavar="DIR",
                   help="directory receiving minimal reproducers "
                   "(default tests/audit/corpus)")
    p.add_argument("--no-shrink", action="store_true",
                   help="record failing specs as found, without minimising")
    p.add_argument("--no-corpus", action="store_true",
                   help="report failures without writing corpus files")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="fault-injection spec active during the campaign, "
                   "e.g. 'audit-break=tpu.macs.conservation' to prove the "
                   "catch->shrink->corpus pipeline")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "top", parents=[obs_parent],
        help="live ops console over a runner's/server's status beacon",
    )
    add_top_args(p)

    p = sub.add_parser(
        "report", parents=[obs_parent],
        help="Fig 2a-style bottleneck attribution from golden snapshots",
    )
    add_report_args(p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.func is runner.run:
        # The runner owns its observability lifecycle (it also has --profile
        # and worker processes to coordinate).
        return args.func(args)
    obs_active = args.log_file is not None or args.manifest
    obs_log.configure(
        level=args.log_level, log_file=args.log_file, quiet=args.quiet
    )
    if not obs_active:
        try:
            return args.func(args)
        finally:
            obs_log.shutdown()
    from .obs.manifest import RunContext

    exit_code = 1
    try:
        with RunContext(
            tool=f"repro.{args.command}",
            results_dir="results" if args.manifest else None,
            run_id=getattr(args, "run_id", None),
            args={"command": args.command},
        ) as run_ctx:
            obs_log.get_state().run_id = run_ctx.run_id
            exit_code = args.func(args)
            run_ctx.manifest.exit_code = exit_code
    finally:
        obs_log.shutdown()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
