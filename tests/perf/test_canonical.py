"""Property suite for symmetry canonicalization (hypothesis).

``canonical_spec`` folds timing-equivalent ConvSpecs onto one
representative, and the folded result is *shared* through the simulation
cache — so every fold must be bit-exact under the reference scheduler, not
merely close.  These tests generate rectangular/dilated/strided specs well
outside the harness's own workloads and check:

- idempotence (a canonical spec is its own canonical form);
- timing invariance: the reference per-item scheduler prices the spec and
  its canonical form bit-identically in every cost field, across configs;
- a memo hit is re-labelled with the caller-visible layer name;
- layout folding maps exactly the channel-position pairs and nothing else.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.conv_spec import ConvSpec
from repro.core.layouts import Layout
from repro.perf.cache import canonical_layout, canonical_spec, spec_key
from repro.systolic.config import TPU_V2
from repro.systolic.scheduler import channel_first_schedule, execute_schedule

from .test_executor_equivalence import CONFIGS


@st.composite
def conv_specs(draw):
    """Valid ConvSpecs biased toward the canonicalization gates:
    rectangular inputs, square and non-square filters, 1x1 kernels with
    dilation, strided and unit-stride paths."""
    h_filter = draw(st.sampled_from([1, 1, 3, 5, 7]))
    square = draw(st.booleans())
    w_filter = h_filter if square else draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 1, 2, 3]))
    dilation = draw(st.sampled_from([1, 1, 2, 3]))
    h_in = draw(st.sampled_from([7, 9, 14, 21, 28, 56]))
    w_in = draw(st.sampled_from([7, 9, 14, 21, 28, 56]))
    padding = draw(st.sampled_from([0, 1, 2, 3]))
    eff_h = dilation * (h_filter - 1) + 1
    eff_w = dilation * (w_filter - 1) + 1
    if h_in + 2 * padding < eff_h or w_in + 2 * padding < eff_w:
        # Re-anchor invalid geometry instead of rejecting the draw.
        h_in = max(h_in, eff_h)
        w_in = max(w_in, eff_w)
    return ConvSpec(
        n=draw(st.sampled_from([1, 2, 8])),
        c_in=draw(st.sampled_from([3, 16, 64, 128])),
        h_in=h_in,
        w_in=w_in,
        c_out=draw(st.sampled_from([16, 64, 128])),
        h_filter=h_filter,
        w_filter=w_filter,
        stride=stride,
        padding=padding,
        dilation=dilation,
        name=draw(st.sampled_from(["", "layer", "conv3.2"])),
    )


@settings(max_examples=200, deadline=None)
@given(spec=conv_specs())
def test_canonical_spec_idempotent(spec):
    canon = canonical_spec(spec)
    again = canonical_spec(canon)
    assert again == canon
    assert spec_key(again) == spec_key(canon)


@settings(max_examples=120, deadline=None)
@given(spec=conv_specs())
def test_canonical_spec_preserves_workload_identity(spec):
    """The folds may permute geometry but never change the work itself."""
    canon = canonical_spec(spec)
    assert canon.macs == spec.macs
    assert canon.n == spec.n
    assert canon.c_in == spec.c_in
    assert canon.c_out == spec.c_out
    assert canon.h_out * canon.w_out == spec.h_out * spec.w_out


@settings(max_examples=60, deadline=None)
@given(spec=conv_specs())
def test_canonical_fold_is_bit_identical_under_reference_scheduler(spec):
    """The hard contract: a folded spec prices identically to the original
    through the *per-item reference* scheduler, to the last float bit."""
    canon = canonical_spec(spec)
    if spec_key(canon) == spec_key(spec):
        return  # no fold fired — nothing to prove
    for config in CONFIGS:
        ours = execute_schedule(channel_first_schedule(spec, config))
        folded = execute_schedule(channel_first_schedule(canon, config))
        assert ours.total_cycles == folded.total_cycles
        assert ours.compute_cycles == folded.compute_cycles
        assert ours.dma_cycles == folded.dma_cycles
        assert ours.exposed_dma_cycles == folded.exposed_dma_cycles
        assert ours.macs == folded.macs


@settings(max_examples=60, deadline=None)
@given(spec=conv_specs())
def test_relabel_restores_layer_name(spec):
    """A memo entry priced under someone else's label is served to the
    caller under its own name, with every other field equal."""
    from repro.perf.cache import SIM_CACHE, clear_cache
    from repro.systolic.simulator import TPUSim

    elsewhere = dataclasses.replace(canonical_spec(spec), name="someone-elses-label")
    folded = spec_key(elsewhere) != spec_key(spec)
    clear_cache()
    try:
        sim = TPUSim()
        cached = sim.simulate_conv(elsewhere)
        served = sim.simulate_conv(spec)
        # A fold makes it a canonical hit; otherwise only the name differs
        # and the exact key (which ignores names) serves it.
        assert SIM_CACHE.stats.canonical_hits == int(folded)
        assert SIM_CACHE.stats.hits == 1
        assert served.name == (spec.describe() or "conv")
        assert dataclasses.replace(served, name=cached.name) == cached
        # Serving an already-correctly-named entry is the identity.
        assert sim.simulate_conv(elsewhere) is cached
    finally:
        clear_cache()


def test_transpose_fold_requires_square_filter_and_noncontiguous_path():
    base = dict(n=1, c_in=16, h_in=28, w_in=14, c_out=16, padding=1)
    folds = ConvSpec(h_filter=3, w_filter=3, stride=2, **base)
    assert canonical_spec(folds).h_in == 14
    rect_filter = ConvSpec(h_filter=3, w_filter=1, stride=2, **base)
    assert canonical_spec(rect_filter).h_in == 28
    contiguous = ConvSpec(h_filter=3, w_filter=3, stride=1, **base)
    assert canonical_spec(contiguous).h_in == 28


def test_pointwise_dilation_fold_requires_stride_above_one():
    base = dict(n=1, c_in=16, h_in=28, w_in=28, c_out=16,
                h_filter=1, w_filter=1, padding=0)
    folds = ConvSpec(stride=2, dilation=2, **base)
    assert canonical_spec(folds).dilation == 1
    # stride == 1 flips the fill-contiguity flag, so the fold must not fire.
    unit_stride = ConvSpec(stride=1, dilation=2, **base)
    assert canonical_spec(unit_stride).dilation == 2


@pytest.mark.parametrize(
    "layout,expected",
    [
        (Layout.NHWC, "NHWC"),
        (Layout.HWCN, "NHWC"),
        (Layout.NCHW, "NCHW"),
        (Layout.CHWN, "NCHW"),
    ],
)
def test_canonical_layout_folds_priced_pairs(layout, expected):
    assert canonical_layout(layout) == expected


def test_canonical_layout_passes_unknown_values_through():
    assert canonical_layout("blocked-z") == "blocked-z"


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_canonical_hit_serves_bit_identical_layer_result(config):
    """End-to-end through TPUSim: a transposed twin must be served from the
    canonical entry with only the name differing."""
    from repro.perf.cache import clear_cache
    from repro.systolic.simulator import TPUSim

    spec = ConvSpec(n=2, c_in=64, h_in=14, w_in=28, c_out=64,
                    h_filter=3, w_filter=3, stride=2, padding=1, name="orig")
    twin = dataclasses.replace(spec, h_in=28, w_in=14, name="twin")
    clear_cache()
    try:
        sim = TPUSim(config)
        first = sim.simulate_conv(spec)
        served = sim.simulate_conv(twin)
        assert served.name == twin.describe()
        assert dataclasses.replace(served, name=first.name) == first
    finally:
        clear_cache()
