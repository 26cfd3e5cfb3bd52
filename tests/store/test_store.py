"""Unit contract of the persistent result store: codec, digests, records.

Everything the warm-start tier relies on: bit-exact round-trips of every
cached result type, cross-process-stable digests, exact + canonical
lookup with promotion, LRU compaction, and graceful refusal of values
the codec cannot persist.
"""

import dataclasses
import math

import pytest

from repro.core.conv_spec import ConvSpec
from repro.core.layouts import Layout
from repro.gpu.channel_first import channel_first_conv_time
from repro.gpu.config import V100
from repro.store import (
    CodecError,
    ResultStore,
    decode_value,
    encode_value,
    key_digest,
)
from repro.store.store import SHARD_PREFIX_CHARS
from repro.systolic.simulator import LayerResult

SPEC = ConvSpec(
    n=2, c_in=32, h_in=14, w_in=14, c_out=64, h_filter=3, w_filter=3,
    stride=1, padding=1, name="unit",
)

RESULT = LayerResult(
    name="conv3x3",
    cycles=12345.678901234567,  # a float that exposes rounding bugs
    tflops=1.2345678901234567,
    utilization=0.87654321,
    compute_cycles=10000.0,
    dma_cycles=4000.25,
    exposed_dma_cycles=2345.678901234567,
    macs=123456789,
    group_size=3,
)


# ------------------------------------------------------------------- codec
def test_layer_result_round_trips_bit_exactly():
    decoded = decode_value(encode_value(RESULT))
    assert decoded == RESULT
    assert isinstance(decoded, LayerResult)
    for field in dataclasses.fields(LayerResult):
        original = getattr(RESULT, field.name)
        restored = getattr(decoded, field.name)
        assert type(restored) is type(original)
        if isinstance(original, float):
            # Bit-exact, not approximately equal: served results feed the
            # same renderers as fresh ones.
            assert math.isclose(restored, original, rel_tol=0, abs_tol=0)


def test_gpu_result_round_trips():
    """Nested dataclasses (GPU result wrapping a KernelTime) survive."""
    result = channel_first_conv_time(SPEC, V100)
    decoded = decode_value(encode_value(result))
    assert decoded == result
    assert type(decoded) is type(result)
    assert decoded.kernel == result.kernel


def test_codec_handles_tuples_enums_and_scalars():
    value = (Layout.HWCN, 3, 2.5, "x", None, True, (1, 2))
    decoded = decode_value(encode_value(value))
    assert decoded == value
    assert isinstance(decoded, tuple)
    assert decoded[0] is Layout.HWCN
    assert isinstance(decoded[6], tuple)


def test_codec_rejects_unknown_module():
    class Rogue:
        pass

    with pytest.raises(CodecError):
        encode_value(Rogue())
    # A forged record naming a non-whitelisted module must not import it.
    with pytest.raises(CodecError):
        decode_value({"__dc__": ["os.path", "join"], "fields": {}})
    with pytest.raises(CodecError):
        decode_value({"__dc__": ["repro.systolic.simulator", "Nope"], "fields": {}})


def test_codec_rejects_unknown_dataclass_fields():
    encoded = encode_value(RESULT)
    encoded["fields"]["bogus"] = 1
    with pytest.raises(CodecError):
        decode_value(encoded)


# ----------------------------------------------------------------- digests
def test_key_digest_is_stable_across_processes():
    """repr-of-tuple digests must not depend on hash randomization."""
    import subprocess
    import sys

    key = ("tpu-conv", ("TPUConfig", 128, 0.7), 3, "NHWC")
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src');"
         "from repro.store import key_digest;"
         f"print(key_digest({key!r}))"],
        capture_output=True, text=True, check=True,
        env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
    )
    assert child.stdout.strip() == key_digest(key)


# ------------------------------------------------------------ record store
def test_save_load_exact(tmp_path):
    store = ResultStore(tmp_path / "store")
    key = ("k", 1, 2.5)
    assert store.save(key, RESULT)
    found, value, via_canonical = store.load(key)
    assert found and value == RESULT and not via_canonical
    assert store.stats.hits == 1 and store.stats.misses == 0
    found, _, _ = store.load(("other", 9))
    assert not found
    assert store.stats.misses == 1


def test_canonical_lookup_promotes_exact_record(tmp_path):
    store = ResultStore(tmp_path / "store")
    exact = ("k", "variant-a")
    canonical = ("k@c", "folded")
    # A different process stored the value under its own exact key plus the
    # shared canonical key.
    store.save(("k", "variant-b"), RESULT, canonical_key=canonical)
    found, value, via_canonical = store.load(exact, canonical_key=canonical)
    assert found and value == RESULT and via_canonical
    assert store.stats.canonical_hits == 1
    # Promotion: the exact digest now answers directly.
    assert store.record_path(key_digest(exact)).exists()
    store2 = ResultStore(tmp_path / "store")
    found, _, via_canonical = store2.load(exact, canonical_key=canonical)
    assert found and not via_canonical


def test_tentative_lookup_counts_hits_only_and_writes_nothing(tmp_path):
    """The serve daemon's admission lookup: a miss is left to the counted
    lookup that follows it, and a canonical hit is not promoted (no write,
    so no fsync on the daemon's event loop)."""
    store = ResultStore(tmp_path / "store")
    exact, canonical = ("k", "variant-a"), ("k@c", "folded")
    assert store.load(("other",), tentative=True) == (False, None, False)
    assert store.stats.misses == 0
    store.save(("k", "variant-b"), RESULT, canonical_key=canonical)
    writes = store.stats.writes
    found, value, via_canonical = store.load(exact, canonical, tentative=True)
    assert found and value == RESULT and via_canonical
    assert (store.stats.hits, store.stats.canonical_hits) == (1, 1)
    assert store.stats.writes == writes
    assert not store.record_path(key_digest(exact)).exists()


def test_shard_layout(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.save(("a",), RESULT)
    digest = key_digest(("a",))
    path = store.record_path(digest)
    assert path.exists()
    assert path.parent.name == digest[:SHARD_PREFIX_CHARS]
    assert path.parent.parent == store.shard_root


def test_unsupported_value_is_skipped_not_fatal(tmp_path):
    import numpy as np

    store = ResultStore(tmp_path / "store")
    assert not store.save(("k",), np.arange(3))  # arrays are not persistable
    assert store.stats.unsupported == 1
    assert len(store) == 0
    found, _, _ = store.load(("k",))
    assert not found


def test_compact_lru_keeps_newest(tmp_path):
    import os

    store = ResultStore(tmp_path / "store")
    for i in range(6):
        store.save(("k", i), RESULT)
        # Distinct mtimes without sleeping: stamp them explicitly.
        path = store.record_path(key_digest(("k", i)))
        os.utime(path, (1000 + i, 1000 + i))
    report = store.compact(max_entries=2)
    assert report.scanned == 6 and report.removed == 4 and report.kept == 2
    kept = {i for i in range(6) if store.record_path(key_digest(("k", i))).exists()}
    assert kept == {4, 5}  # newest two survive
    assert store.verify().clean


def test_compact_byte_cap(tmp_path):
    store = ResultStore(tmp_path / "store")
    for i in range(4):
        store.save(("k", i), RESULT)
    size = store.total_bytes() // 4
    report = store.compact(max_bytes=2 * size + 4)
    assert report.kept == 2 and report.removed == 2
    assert store.total_bytes() <= 2 * size + 4


def test_verify_clean_and_describe(tmp_path):
    store = ResultStore(tmp_path / "store")
    for i in range(3):
        store.save(("k", i), RESULT)
    report = store.verify()
    assert report.clean and report.scanned == 3 and report.ok == 3
    info = store.describe()
    assert info["entries"] == 3 and info["bytes"] > 0 and info["schema"] == 1
