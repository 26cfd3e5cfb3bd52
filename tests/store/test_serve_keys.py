"""The serve daemon keys on the simulator's memo keys, built in one place.

In-flight dedup keys on ``Query.key``, the store-only rung probes
``Query.canonical_key()`` and circuit breakers key on ``spec_fingerprint``.
All three must equal what ``TPUSim`` stores under
(:func:`repro.perf.cache.conv_keys`), or they stop matching without error.
"""

import dataclasses

import pytest

from repro.core.conv_spec import ConvSpec
from repro.core.layouts import Layout
from repro.core.tiling import tpu_multi_tile_policy
from repro.perf.cache import conv_keys
from repro.store.serve import Query, spec_fingerprint
from repro.systolic.config import TPU_V2

BASE = dict(n=2, c_in=64, h_in=28, w_in=14, c_out=128,
            h_filter=3, w_filter=3, stride=2, padding=1)
POINTWISE = dict(n=1, c_in=32, h_in=28, w_in=28, c_out=64,
                 h_filter=1, w_filter=1, stride=2)

#: label -> (spec, the twin whose memo entry it must share)
TWINS = {
    "renamed": (ConvSpec(name="someone-else", **BASE), ConvSpec(**BASE)),
    "hw-transposed": (
        ConvSpec(**dict(BASE, h_in=14, w_in=28)), ConvSpec(**BASE)
    ),
    "dilation-folded": (
        ConvSpec(dilation=2, **POINTWISE), ConvSpec(dilation=1, **POINTWISE)
    ),
}


@pytest.mark.parametrize("layout", [Layout.NHWC, Layout.HWCN, Layout.NCHW])
@pytest.mark.parametrize("label", sorted(TWINS))
def test_query_keys_equal_the_simulators(label, layout):
    spec, twin = TWINS[label]
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    query = Query.parse({"spec": fields, "layout": layout.value})
    group = tpu_multi_tile_policy(spec, TPU_V2.array_rows)
    exact, canonical = conv_keys(TPU_V2, spec, group, layout)
    assert query.key == exact
    assert query.canonical_key() == canonical
    # The fold really fires: the twin's memo entry serves this query.
    assert canonical == conv_keys(TPU_V2, twin, group, layout)[1]
    assert query.fingerprint == spec_fingerprint(TPU_V2, twin, group, layout)


def test_spec_fingerprint_is_stable():
    """Quarantine journals written by older daemons key on this digest."""
    spec = ConvSpec(name="pinned", **BASE)
    assert spec_fingerprint(TPU_V2, spec, 2, Layout.HWCN) == "5b5f93b327e559f4"
