"""HBM model: run-length stats, trace vs summary pricing, bandwidth."""

import pytest

from repro.memory import HBMConfig, HBMModel, TransferStats, run_length_stats


@pytest.fixture
def hbm():
    return HBMModel()


class TestRunLengthStats:
    def test_contiguous(self):
        stats = run_length_stats([0, 2, 4, 6], access_bytes=2)
        assert stats == TransferStats(bytes=8, runs=1)

    def test_fragmented(self):
        stats = run_length_stats([0, 2, 100, 102, 200], access_bytes=2)
        assert stats.runs == 3
        assert stats.bytes == 10

    def test_empty(self):
        assert run_length_stats([], 2) == TransferStats(bytes=0, runs=0)

    def test_order_sensitive(self):
        # 0,4,2 is not coalescible in issue order
        assert run_length_stats([0, 4, 2], access_bytes=2).runs == 3

    def test_invalid_access_bytes(self):
        with pytest.raises(ValueError):
            run_length_stats([0], 0)


class TestTransferStats:
    def test_mean_run(self):
        assert TransferStats(bytes=100, runs=4).mean_run_bytes == 25

    def test_span_validation(self):
        with pytest.raises(ValueError):
            TransferStats(bytes=100, runs=1, span_bytes=50)

    def test_zero_consistency(self):
        with pytest.raises(ValueError):
            TransferStats(bytes=0, runs=3)
        with pytest.raises(ValueError):
            TransferStats(bytes=3, runs=0)


class TestSummaryPricing:
    def test_zero_transfer_free(self, hbm):
        assert hbm.transfer_cycles(TransferStats(bytes=0, runs=0)) == 0.0

    def test_contiguous_near_peak(self, hbm):
        """A long stream must achieve >85% of peak bandwidth."""
        nbytes = 64 * 1024 * 1024
        cycles = hbm.contiguous_cycles(nbytes)
        ideal = nbytes / hbm.config.bytes_per_cycle
        assert cycles < ideal / 0.85

    def test_fragmented_slower_per_byte(self, hbm):
        nbytes = 1 << 20
        contiguous = hbm.contiguous_cycles(nbytes)
        scattered = hbm.transfer_cycles(TransferStats(bytes=nbytes, runs=nbytes // 64))
        assert scattered > 2 * contiguous

    def test_monotone_in_run_length(self, hbm):
        nbytes = 1 << 20
        costs = [
            hbm.transfer_cycles(TransferStats(bytes=nbytes, runs=nbytes // r))
            for r in (32, 128, 1024, 8192)
        ]
        assert costs == sorted(costs, reverse=True)

    def test_span_caps_row_misses(self, hbm):
        """Many short runs packed in a small span cost less than the same
        runs scattered across the whole address space."""
        dense = hbm.transfer_cycles(TransferStats(bytes=1 << 20, runs=16384, span_bytes=2 << 20))
        sparse = hbm.transfer_cycles(TransferStats(bytes=1 << 20, runs=16384))
        assert dense < sparse

    def test_sub_burst_runs_pay_burst_waste(self, hbm):
        """8-byte runs still move 64-byte bursts."""
        tiny = hbm.transfer_cycles(TransferStats(bytes=8 * 1000, runs=1000))
        # payload alone would be 8000/1000 = 8 cycles; burst waste forces >= 64x1000 bytes
        assert tiny >= 64 * 1000 / hbm.config.bytes_per_cycle

    def test_effective_bandwidth(self, hbm):
        stats = TransferStats(bytes=64 << 20, runs=1, span_bytes=64 << 20)
        bw = hbm.effective_bandwidth_gbps(stats)
        assert 0.8 * hbm.config.peak_bandwidth_gbps <= bw <= hbm.config.peak_bandwidth_gbps

    def test_negative_rejected(self, hbm):
        with pytest.raises(ValueError):
            hbm.contiguous_cycles(-1)
        with pytest.raises(ValueError):
            hbm.transfer_cycles(TransferStats(bytes=100, runs=-1))


class TestTracePricing:
    def test_empty_trace(self, hbm):
        assert hbm.trace_cycles([], 2) == 0.0

    def test_trace_contiguous_matches_summary(self, hbm):
        addresses = list(range(0, 1 << 16, 2))
        trace = hbm.trace_cycles(addresses, 2)
        summary = hbm.contiguous_cycles(1 << 16)
        assert trace == pytest.approx(summary, rel=0.5)

    def test_trace_scattered_matches_summary_order(self, hbm):
        """Scattered pattern: both paths agree a 4KB-strided read is several
        times more expensive per byte than a stream."""
        addresses = [i * 4096 for i in range(4096)]
        trace = hbm.trace_cycles(addresses, 64)
        stream = hbm.trace_cycles(list(range(0, 4096 * 64, 64)), 64)
        assert trace > 2 * stream

    def test_trace_dedups_bursts(self, hbm):
        """Two accesses inside one burst fetch it once."""
        single = hbm.trace_cycles([0], 8)
        double = hbm.trace_cycles([0, 8], 8)
        assert double == single


class TestConfig:
    def test_bytes_per_cycle(self):
        cfg = HBMConfig(peak_bandwidth_gbps=700.0, clock_ghz=0.7)
        assert cfg.bytes_per_cycle == pytest.approx(1000.0)

    def test_row_burst_divisibility(self):
        with pytest.raises(ValueError):
            HBMConfig(row_bytes=100, burst_bytes=64)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            HBMConfig(peak_bandwidth_gbps=0)
        with pytest.raises(ValueError):
            HBMConfig(channels=0)
