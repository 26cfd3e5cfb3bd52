"""Integration tests: every reproduced table/figure must exhibit the paper's
shape.  These run the actual experiment code (full workloads — the whole
suite takes a few seconds) and assert the headline relations the paper
reports: who wins, by roughly what factor, where the crossovers are.
"""

import pytest

from repro.harness.runner import EXPERIMENTS, run_all, run_experiment


@pytest.fixture(scope="module")
def results():
    """Run every experiment once; individual tests assert on the outputs."""
    return {eid: run_experiment(eid) for eid in EXPERIMENTS}


def test_registry_covers_design_md():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "fig2", "fig4", "fig7", "fig13", "fig14",
        "fig15", "fig16", "fig17", "fig18", "ablations", "extensions",
        "batch_sweep", "sparsity", "design_space_plus",
    }


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("fig99")


class TestTable1:
    def test_expansion_band(self, results):
        table = results["table1"].table("Table I (batch 1, FP16)")
        expansions = table.column("AlexNet") + table.column("VGG16")
        ifmaps, lowered, expansion = (table.rows[0], table.rows[1], table.rows[2])
        for i in range(1, len(ifmaps)):
            assert lowered[i] > ifmaps[i]
            assert 1.5 <= expansion[i] <= 12.0


class TestTable2:
    def test_configuration_strings(self, results):
        rendered = results["table2"].render()
        for text in ("128 x 128", "32 MB", "700 GB/s"):
            assert text in rendered


class TestFig2:
    def test_gpu_explicit_slower_everywhere(self, results):
        table = results["fig2"].table("Fig 2a: V100 GPU (normalized to implicit)")
        for total in table.column("explicit total"):
            assert total > 1.0

    def test_gpu_explicit_gemm_tracks_implicit(self, results):
        """The explicit path's GEMM component sits near the implicit total
        (DenseNet runs high: its lowered A-panels make even the GEMM
        memory-bound, as the paper's Table I sizes foreshadow)."""
        table = results["fig2"].table("Fig 2a: V100 GPU (normalized to implicit)")
        ratios = table.column("explicit GEMM")
        for gemm in ratios:
            assert 0.5 <= gemm <= 1.8
        assert sum(ratios) / len(ratios) == pytest.approx(1.2, abs=0.25)

    def test_tpu_explicit_slower(self, results):
        table = results["fig2"].table(
            "Fig 2b: TPU-v2 (normalized to implicit; transform est. from GPU)"
        )
        totals = table.column("explicit total")
        assert all(t > 1.0 for t in totals)
        average = sum(totals) / len(totals)
        assert 1.05 <= average <= 1.45  # paper: 1.23


class TestFig4:
    def test_gpu_degrades_with_stride(self, results):
        table = results["fig4"].table("Fig 4a: V100 tensor cores (TFLOPS)")
        for row in table.rows:
            s1, s2, s4 = row[1], row[2], row[3]
            assert s2 < 0.85 * s1
            assert s4 < 0.5 * s1

    def test_gpu_gemm_reference_above_conv_at_stride(self, results):
        table = results["fig4"].table("Fig 4a: V100 tensor cores (TFLOPS)")
        for row in table.rows:
            conv_s4, gemm_s4 = row[3], row[6]
            assert gemm_s4 >= conv_s4 * 0.95

    def test_tpu_insensitive(self, results):
        table = results["fig4"].table("Fig 4b: TPU (TFLOPS)")
        for row in table.rows:
            s1, s2, s4 = row[1], row[2], row[3]
            assert s2 > 0.85 * s1
            assert s4 > 0.8 * s1


class TestFig7:
    def test_hwc_never_slower(self, results):
        table = results["fig7"].table("Fig 7: tile-fill cost by DRAM layout")
        by_stride = {}
        for stride, layout, runs, mean_run, cycles, bw in table.rows:
            by_stride.setdefault(stride, {})[layout] = cycles
        for stride, cycles in by_stride.items():
            assert cycles["NHWC"] <= cycles["NCHW"] * 1.01

    def test_hwc_advantage_grows_with_stride(self, results):
        table = results["fig7"].table("Fig 7: tile-fill cost by DRAM layout")
        grouped = {}
        for row in table.rows:
            grouped.setdefault(row[0], {})[row[1]] = row[4]
        ratio_s1 = grouped[1]["NCHW"] / grouped[1]["NHWC"]
        ratio_s4 = grouped[4]["NCHW"] / grouped[4]["NHWC"]
        assert ratio_s4 > ratio_s1


class TestValidationErrors:
    """The headline validation numbers must land in the paper's band."""

    def test_fig13a_gemm(self, results):
        note = [n for n in results["fig13"].notes if n.startswith("GEMM")][0]
        error = float(note.split(":")[1].split("%")[0])
        assert error < 8.0  # paper: 4.42%

    def test_fig13b_conv(self, results):
        note = [n for n in results["fig13"].notes if n.startswith("CONV")][0]
        error = float(note.split(":")[1].split("%")[0])
        assert error < 8.0  # paper: 4.87%

    def test_fig14b_policy(self, results):
        note = [n for n in results["fig14"].notes if "Policy" in n][0]
        error = float(note.split(":")[1].split("%")[0])
        assert error < 9.0  # paper: 5.3%

    def test_fig15b_layerwise(self, results):
        table = results["fig15"].table("Fig 15b: layer-wise error distribution")
        mae = table.rows[0][1]
        assert mae < 10.0  # paper: 5.8%

    def test_fig15a_per_network(self, results):
        table = results["fig15"].table("Fig 15a: per-network conv latency (ms)")
        for error in table.column("error %"):
            assert error < 12.0


class TestFig14Shape:
    def test_workspace_linear_performance_plateau(self, results):
        table = results["fig14"].table("Fig 14a: tiles vs performance and workspace")
        tiles = table.column("tiles")
        speedups = table.column("speedup vs 1")
        workspaces = table.column("workspace (MB)")
        # workspace linear while merging is possible (row-aligned merging
        # caps at W_F = 3; see the experiment note / EXPERIMENTS.md)
        w_f = 3
        for t, w in zip(tiles, workspaces):
            assert w == pytest.approx(min(t, w_f) * workspaces[0], rel=0.01)
        # speedup rises to W_F=3 then plateaus
        assert speedups[1] > 1.2
        assert speedups[2] > speedups[1]
        assert speedups[2] > 1.5  # 3 tiles beat 1 substantially
        for later in speedups[3:]:
            assert later == pytest.approx(speedups[2], rel=0.05)


class TestFig16Shape:
    def test_array_size_tradeoff(self, results):
        table = results["fig16"].table("Fig 16a: array size sweep (VGG16)")
        tflops = table.column("TFLOPS")
        util = table.column("utilization")
        assert tflops == sorted(tflops)  # performance rises
        assert util == sorted(util, reverse=True)  # utilization falls
        by_size = dict(zip(table.column("array"), util))
        assert by_size[256] < 0.65 * by_size[128]  # roughly halves

    def test_word_size_area_knee(self, results):
        table = results["fig16"].table("Fig 16b: vector-memory word size (256 KB macro)")
        areas = table.column("area (mm^2)")
        idles = table.column("port idle ratio")
        assert areas == sorted(areas, reverse=True)
        assert idles == sorted(idles)
        by_word = dict(zip(table.column("word (elems)"), idles))
        assert by_word[8] == pytest.approx(0.75)
        ratios = dict(zip(table.column("word (elems)"), table.column("area vs word-32")))
        # word-1-element (4 B) vs word-8-element (32 B): the paper's 3.2x point
        assert 2.5 <= ratios[1] / ratios[8] <= 4.0


class TestFig17Shape:
    def test_near_parity(self, results):
        table = results["fig17"].table("Fig 17")
        ratios = table.column("ours (normalized)")
        average = sum(ratios) / len(ratios)
        assert average == pytest.approx(1.0, abs=0.05)  # paper: ~1.01
        assert all(0.85 <= r <= 1.15 for r in ratios)


class TestFig18Shape:
    def test_strided_wins(self, results):
        table = results["fig18"].table("Fig 18a: strided layers, ours vs cuDNN")
        speedups = table.column("speedup")
        mean = sum(speedups) / len(speedups)
        assert mean > 1.1  # paper: 1.2 average
        assert max(speedups) > 1.3  # paper: up to 1.4
        assert min(speedups) > 0.9  # never catastrophically worse

    def test_reuse_improvement_band(self, results):
        table = results["fig18"].table("Fig 18b: inter-tile reuse impact")
        gains = table.column("improvement %")
        mean = sum(gains) / len(gains)
        assert 8.0 <= mean <= 45.0  # paper: 16.7%
        assert all(g >= 0 for g in gains)


def test_quick_mode_runs_everything():
    for result in run_all(quick=True):
        assert result.tables
        assert result.render()
