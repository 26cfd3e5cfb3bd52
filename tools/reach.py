"""Reach gate: every model function runs under some command, or says why not.

Installs a profile hook (``sys.setprofile`` and ``threading.setprofile``)
before ``repro`` is imported, runs the commands in :func:`run_commands`
in this process inside a temporary working directory, then matches every
code object that ran against each ``def`` that ``ast`` finds in the model
packages (decorator lines included, as ``co_firstlineno`` counts them).

A def that never ran must be on :data:`KEPT`, whose value is the reason it
stays: the doc section and the test that pins it, "reference for <test>",
or the user doc that shows it.  The gate exits 1 on an unreached def that
no ``KEPT`` entry covers, and on a ``KEPT`` entry that covers no unreached
def (it now runs, or it is gone), so the list cannot rot.  A key is a
module (``repro.gpu.functional``: all of it), or ``module:qualname`` (that
def and the defs nested in it).

Every command runs serially: forked workers are not profiled.  The run
takes about 45 s on a 2-vCPU machine.

    python tools/reach.py     # lists unreached defs; exit 0 when all kept
"""

from __future__ import annotations

import ast
import asyncio
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGES = ("systolic", "core", "gpu", "memory", "analysis", "oracle", "workloads")

_ONLY = "only its own tests pin it ({}); deleting it deletes them (ROADMAP item 6)"

#: Unreached model code that stays, with the reason it stays.
KEPT = {
    # Cited demonstrations of a paper claim, with the test that pins each.
    "repro.systolic.address_gen:tile_word_offsets":
        "MODELING.md 1.1, tests/systolic/test_address_gen.py::"
        "TestSkewedSchedule::test_identical_streams_modulo_delay",
    "repro.systolic.address_gen:skewed_schedule":
        "MODELING.md 1.1, tests/systolic/test_address_gen.py::"
        "TestSkewedSchedule::test_identical_streams_modulo_delay",
    "repro.systolic.systolic_array:CycleAccurateArray":
        "MODELING.md 1.1, tests/systolic/test_systolic_array.py::"
        "TestCycleCounts::test_closed_form_matches_cycle_accurate",
    "repro.systolic.functional_pipeline":
        "DESIGN.md 4b (Fig 10 dataflow), tests/systolic/"
        "test_functional_pipeline.py::TestInvariants::test_port_reads_once_per_word",
    "repro.systolic.vector_memory:FunctionalVectorMemory":
        "the word API functional_pipeline drives (DESIGN.md 4b), "
        "tests/systolic/test_vector_memory.py::TestFunctionalMemory",
    "repro.systolic.simulator:TPUSim.run_functional_conv":
        "MODELING.md 3.2, tests/systolic/test_simulator.py::"
        "TestFunctional::test_multi_tile_groups",
    "repro.core.tiling:merged_gemm_operands":
        "MODELING.md 3.2, tests/core/test_properties.py::"
        "test_multi_tile_merge_preserves_conv",
    "repro.core.sparsity:conv2d_channel_first_sparse":
        "DESIGN.md 4b (position-structured sparsity), tests/core/test_sparsity.py::"
        "TestSparseForward::test_equals_dense_on_masked_weights",
    "repro.gpu.functional":
        "DESIGN.md 4b and MODELING.md 5.3, tests/gpu/test_functional.py::"
        "test_reordering_cuts_loads_at_stride_2",
    # Facades that docs/USAGE.md shows users calling.
    "repro.systolic.energy:EnergyBreakdown.fraction":
        "USAGE.md (Energy, residency, multi-core)",
    # References that tests compare reached code against.
    "repro.core.reference:gemm":
        "reference for tests/core/test_rectangular.py::"
        "test_explicit_lowering_matches_direct",
    "repro.core.layouts:flatten_index":
        "reference for tests/memory/test_access_pattern.py::"
        "TestVectorizedTraceEquivalence::test_matches_reference_loop",
    "repro.core.layouts:nchw_to":
        "reference for tests/core/test_layouts.py::"
        "test_flatten_index_matches_physical_order",
    "repro.core.layouts:Layout.axes_from_nchw":
        "reference for tests/core/test_layouts.py::"
        "test_flatten_index_matches_physical_order (via nchw_to)",
    "repro.core.lowering:column_permutation":
        "reference for tests/core/test_lowering.py::"
        "test_orders_are_column_permutations",
    "repro.core.lowering:ColumnOrder.column_index":
        "reference for tests/core/test_lowering.py::"
        "test_orders_are_column_permutations (via column_permutation)",
    "repro.core.lowering:unflatten_filters":
        "reference for tests/core/test_lowering.py::test_filter_flatten_round_trip",
    "repro.core.lowering:col2im":
        "reference for tests/core/test_lowering.py::"
        "test_col2im_is_adjoint_of_im2col",
    "repro.core.reordering:tile_working_set":
        "reference for tests/core/test_reordering.py::"
        "test_closed_form_matches_brute_force",
    "repro.memory.access_pattern:analytic_fill_stats":
        "reference for tests/memory/test_access_pattern.py::"
        "TestAnalyticStats::test_analytic_matches_trace_for_interior_tile",
    "repro.memory.dram:HBMModel.trace_cycles":
        "MODELING.md 3, reference for tests/memory/test_dram.py::"
        "TestTracePricing::test_trace_contiguous_matches_summary",
    "repro.memory.dram:HBMConfig.burst_cycles":
        "read by HBMModel.trace_cycles (MODELING.md 3)",
    # No reason but their own tests: the next deletions.
    "repro.core.layouts:to_nchw":
        _ONLY.format("tests/core/test_layouts.py::test_round_trip"),
    "repro.core.layouts:Layout.axes_to_nchw":
        _ONLY.format("tests/core/test_layouts.py::test_axes_inverse_consistency"),
    "repro.core.layouts:dram_linear_address":
        _ONLY.format("tests/core/test_layouts.py::test_dram_linear_address_*"),
    "repro.core.tiling:RowTile":
        _ONLY.format("tests/core/test_tiling.py::TestRowTiles"),
    "repro.core.tiling:plan_row_tiles":
        _ONLY.format("tests/core/test_tiling.py::TestRowTiles"),
    "repro.core.tiling:MultiTileGroup.duplication_factor":
        _ONLY.format("tests/core/test_tiling.py::TestDuplication"),
    "repro.core.tiling:MultiTileGroup._unique_input_elements":
        _ONLY.format("tests/core/test_tiling.py::TestDuplication"),
    "repro.core.tiling:array_k_utilization":
        _ONLY.format("tests/core/test_tiling.py::TestDuplication"),
    "repro.gpu.tensor_core:padded_macs":
        _ONLY.format("tests/gpu/test_tensor_core.py::TestPadding"),
}


def run_commands() -> None:
    """Run every command whose model traffic counts as reached."""
    from repro.__main__ import main

    argvs = [
        ["run", "--audit", "full"],
        ["report", "fig13", "fig16", "--goldens", str(ROOT / "tests/trace/goldens")],
        ["fuzz", "--specs", "30", "--no-corpus"],
        ["dse", "sweep", "--out", "dse", "--preset", "quick", "--quick", "--jobs", "1"],
        ["simulate-conv", "--stride", "2"],
        ["simulate-network", "ResNet", "--platform", "tpu"],
        ["simulate-network", "ResNet", "--platform", "gpu"],
        ["sweep-stride"],
        ["list-networks"],
    ]
    for argv in argvs:
        code = main(argv)
        if code != 0:
            raise SystemExit(f"reach: `repro {' '.join(argv)}` exited {code}")
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")
    asyncio.run(_serve_pass())


async def _serve_pass() -> None:
    """One cold and one warm ``/v1/conv`` against an in-process server."""
    from repro.store.serve import (
        ReproServer, ServeConfig, SimulationService, http_request,
    )

    service = SimulationService(
        ServeConfig(host="127.0.0.1", port=0, watchdog=False)
    )
    server = ReproServer(service, run_id="reach")
    host, port = await server.start()
    spec = {"n": 1, "c_in": 16, "h_in": 7, "w_in": 7, "c_out": 16,
            "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
            "name": "reach"}
    try:
        for _ in range(2):
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": spec}
            )
            if status != 200:
                raise SystemExit(f"reach: /v1/conv answered {status}")
    finally:
        await server.shutdown()


def model_defs():
    """Yield ``(file, first line, key, line count)`` for each model def."""
    for package in PACKAGES:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            module = module.removesuffix(".__init__")
            yield from _defs(path, module, ast.parse(path.read_text()), "")


def _defs(path, module, node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defs(path, module, child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield (str(path), first, f"{module}:{prefix}{child.name}",
                   child.end_lineno - first + 1)
            yield from _defs(path, module, child, f"{prefix}{child.name}.")


def kept_by(key: str):
    """The ``KEPT`` entries that cover the def ``key``."""
    module, qualname = key.split(":")
    parts = qualname.split(".")
    names = [module] + [
        f"{module}:{'.'.join(parts[:i])}" for i in range(1, len(parts) + 1)
    ]
    return [name for name in names if name in KEPT]


def main() -> int:
    codes = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_STORE_DIR", None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        os.chdir(workdir)
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run_commands()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)

    ran = {(code.co_filename, code.co_firstlineno) for code in codes.values()}
    unreached = [d for d in model_defs() if (d[0], d[1]) not in ran]
    covering = set()
    failures = 0
    for path, first, key, lines in unreached:
        names = kept_by(key)
        covering.update(names)
        where = f"{pathlib.Path(path).relative_to(ROOT)}:{first}"
        if names:
            print(f"kept       {key} ({lines} lines)  [{KEPT[names[0]]}]")
        else:
            failures += 1
            print(f"UNREACHED  {key} ({lines} lines) at {where}")
    for name in sorted(set(KEPT) - covering):
        failures += 1
        print(f"STALE      {name}: covers no unreached def (now runs, or gone)")
    total = sum(d[3] for d in unreached)
    print(f"reach: {len(unreached)} unreached def(s), {total} lines; "
          f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
