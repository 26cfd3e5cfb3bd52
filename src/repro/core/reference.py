"""Numerical references: direct convolution and plain GEMM.

These are the ground truth every lowering path and both simulators' functional
modes are validated against.  They are written for clarity and obvious
correctness, not speed: the direct convolution loops over filter taps and lets
numpy handle the batched channel contraction for each tap.
"""

from __future__ import annotations

import numpy as np

from .conv_spec import ConvSpec

__all__ = [
    "direct_conv2d",
    "gemm",
    "pad_ifmap",
    "random_conv_operands",
    "random_conv_weights",
]


def gemm(a: np.ndarray, b: np.ndarray, accumulate_into: np.ndarray = None) -> np.ndarray:
    """``C (+)= A @ B`` in float64 accumulation, mirroring accelerator MACs.

    Accelerators accumulate in wider precision than their inputs (FP16 inputs,
    FP32 accumulators on both TPU and tensor cores); accumulating in float64
    here keeps the reference strictly more precise than any modelled engine.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"gemm expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dims disagree: {a.shape} @ {b.shape}")
    product = a.astype(np.float64) @ b.astype(np.float64)
    if accumulate_into is None:
        return product
    if accumulate_into.shape != product.shape:
        raise ValueError(
            f"accumulator shape {accumulate_into.shape} != product shape {product.shape}"
        )
    accumulate_into += product
    return accumulate_into


def pad_ifmap(ifmap: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW tensor."""
    if padding == 0:
        return ifmap
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    return np.pad(ifmap, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def direct_conv2d(ifmap: np.ndarray, weights: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Direct 2-D convolution (cross-correlation, the DNN convention).

    ``ifmap`` is NCHW, ``weights`` is (C_O, C_I, H_F, W_F); the result is the
    NCHW OFMap.  Implemented as a sum over the ``H_F * W_F`` filter taps: each
    tap contributes a strided-slice x weight contraction.  This tap-by-tap
    structure is *exactly* the decomposed-1x1-CONV view that underpins the
    channel-first algorithm (Sec. III-B), so the reference doubles as an
    executable statement of the paper's correctness argument.
    """
    if ifmap.shape != spec.ifmap_shape:
        raise ValueError(f"ifmap shape {ifmap.shape} != spec {spec.ifmap_shape}")
    if weights.shape != spec.filter_shape:
        raise ValueError(f"weights shape {weights.shape} != spec {spec.filter_shape}")

    padded = pad_ifmap(ifmap, spec.padding).astype(np.float64)
    out = np.zeros(spec.ofmap_shape, dtype=np.float64)
    h_span = (spec.h_out - 1) * spec.stride + 1
    w_span = (spec.w_out - 1) * spec.stride + 1
    for r, s in spec.filter_positions():
        y0 = r * spec.dilation
        x0 = s * spec.dilation
        # (N, C_I, H_O, W_O) slab of the taps this decomposed filter reads.
        taps = padded[:, :, y0 : y0 + h_span : spec.stride, x0 : x0 + w_span : spec.stride]
        # Contract channels against the (C_O, C_I) slice of the weights.
        out += np.einsum("nchw,oc->nohw", taps, weights[:, :, r, s].astype(np.float64))
    return out


def random_conv_operands(spec: ConvSpec, seed: int = 0, dtype=np.float32):
    """Deterministic random (ifmap, weights) for tests and examples.

    Values are small integers cast to ``dtype`` so FP16 paths stay exact and
    comparisons can demand bit equality rather than tolerances.
    """
    rng = np.random.default_rng(seed)
    ifmap = rng.integers(-4, 5, size=spec.ifmap_shape).astype(dtype)
    weights = rng.integers(-4, 5, size=spec.filter_shape).astype(dtype)
    return ifmap, weights


def random_conv_weights(spec: ConvSpec, seed: int = 0, dtype=np.float32) -> np.ndarray:
    """Exactly ``random_conv_operands(spec, seed)[1]``, without drawing the IFMap.

    The weights' values depend on where the IFMap's draw leaves the
    generator, so it is advanced past that draw instead of making it.
    ``integers(-4, 5)`` takes one 32-bit half of a 64-bit PCG64 output per
    value and keeps an unused upper half for the next draw, so the first
    ``n - 1`` (``n`` even: all ``n``) values of an ``n``-value IFMap are
    ``n // 2`` outputs, and an odd last value is drawn for real.  The skip is
    exact while Lemire rejection, which for a range of 9 hits 4 values in
    2^32, rejects none of the skipped halves; ``tests/core/test_reference.py``
    pins it against the full draw for every (spec, seed) pair the sparsity
    study uses.
    """
    rng = np.random.default_rng(seed)
    n = spec.ifmap_elements()
    rng.bit_generator.advance(n // 2)
    if n % 2:
        rng.integers(-4, 5)
    return rng.integers(-4, 5, size=spec.filter_shape).astype(dtype)
