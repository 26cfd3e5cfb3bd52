"""Convolution and GEMM shape descriptors.

Every component in this library — the pure-algorithm lowering paths, the
systolic-array simulator and the tensor-core timing model — consumes
convolution problems through :class:`ConvSpec`.  The class owns all of the
output-shape geometry, FLOP accounting and lowered-matrix size math so the
numbers used by Table I, the TFLOPS reports and the simulators are computed
in exactly one place.

Terminology follows the paper:

- IFMap: input feature map, shape ``(N, C_I, H_I, W_I)`` in NCHW terms.
- Filter: ``(C_O, C_I, H_F, W_F)``.
- OFMap: output feature map, ``(N, C_O, H_O, W_O)``.
- Lowered IFMap: the ``(N * H_O * W_O, H_F * W_F * C_I)`` matrix produced by
  im2col (explicitly, or conceptually by the implicit algorithms).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Tuple

from ..errors import ConfigError

__all__ = ["ConvSpec", "GemmShape", "output_extent"]


def output_extent(in_extent: int, filt: int, stride: int, pad: int, dilation: int = 1) -> int:
    """Return the output spatial extent of a convolution along one axis.

    Uses the standard floor convention::

        out = floor((in + 2*pad - dilation*(filt-1) - 1) / stride) + 1

    Raises :class:`~repro.errors.ConfigError` (a ``ValueError``) if the
    result would be non-positive, which means the filter does not fit
    inside the (padded) input even once.
    """
    if in_extent <= 0 or filt <= 0:
        raise ConfigError(
            f"extents must be positive, got in={in_extent}, filter={filt}"
        )
    if stride <= 0:
        raise ConfigError("stride must be positive", field="stride", value=stride)
    if dilation <= 0:
        raise ConfigError(
            "dilation must be positive", field="dilation", value=dilation
        )
    if pad < 0:
        raise ConfigError("padding must be non-negative", field="padding", value=pad)
    effective = dilation * (filt - 1) + 1
    out = (in_extent + 2 * pad - effective) // stride + 1
    if out <= 0:
        raise ConfigError(
            f"filter (effective {effective}) does not fit input {in_extent} with pad {pad}"
        )
    return out


@dataclasses.dataclass(frozen=True)
class GemmShape:
    """A plain ``C[M,N] += A[M,K] @ B[K,N]`` problem shape.

    The systolic and tensor-core engines consume conv work as a sequence of
    GEMMs of this shape; the shape also carries the FLOP/byte accounting.
    """

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for field in ("m", "n", "k"):
            value = getattr(self, field)
            if value <= 0:
                raise ConfigError(
                    "GEMM dims must be positive", field=field, value=value
                )

    @property
    def flops(self) -> int:
        """Multiply-accumulate counted as 2 FLOPs, the paper's convention."""
        return 2 * self.m * self.n * self.k

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k

    def bytes_moved(self, elem_bytes: int = 2) -> int:
        """Minimum off-chip traffic assuming each operand is touched once."""
        return elem_bytes * (self.m * self.k + self.k * self.n + self.m * self.n)

    def arithmetic_intensity(self, elem_bytes: int = 2) -> float:
        """FLOPs per byte of compulsory traffic (roofline x-coordinate)."""
        return self.flops / self.bytes_moved(elem_bytes)


@dataclasses.dataclass(frozen=True)
class ConvSpec:
    """A complete 2-D convolution problem.

    Parameters mirror the paper's notation.  ``stride``/``padding``/
    ``dilation`` apply to both spatial axes (the paper only evaluates square
    cases, but the geometry here is exact for rectangular inputs/filters).

    The output extents ``h_out``/``w_out`` are plain attributes set once at
    construction, not dataclass fields: equality, hashing, ``repr``, cache
    fingerprints and the store codec see only the fields above.
    """

    n: int  # batch
    c_in: int  # C_I
    h_in: int  # H_I
    w_in: int  # W_I
    c_out: int  # C_O
    h_filter: int  # H_F
    w_filter: int  # W_F
    stride: int = 1
    padding: int = 0
    dilation: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        for field in ("n", "c_in", "h_in", "w_in", "c_out", "h_filter", "w_filter"):
            value = getattr(self, field)
            if value <= 0:
                raise ConfigError("must be positive", field=field, value=value)
        # Sets h_out/w_out.  Raises if the filter does not fit; validates
        # stride/pad/dilation too.  Non-fit errors are re-raised naming the
        # offending output axis, its (non-positive) derived extent, and the
        # full derived OFMap shape.
        for axis_field, in_extent, filt in (
            ("h_out", self.h_in, self.h_filter),
            ("w_out", self.w_in, self.w_filter),
        ):
            try:
                extent = output_extent(
                    in_extent, filt, self.stride, self.padding, self.dilation
                )
            except ConfigError as err:
                if err.field is not None:
                    raise  # stride/padding/dilation already carry their field
                effective = self.dilation * (filt - 1) + 1
                derived = (
                    in_extent + 2 * self.padding - effective
                ) // self.stride + 1
                shape = (self.n, self.c_out) + tuple(
                    (ext + 2 * self.padding - (self.dilation * (f - 1) + 1))
                    // self.stride + 1
                    for ext, f in (
                        (self.h_in, self.h_filter), (self.w_in, self.w_filter)
                    )
                )
                raise ConfigError(
                    f"non-positive output extent: effective filter {effective} "
                    f"does not fit input {in_extent} with pad {self.padding} "
                    f"(derived OFMap shape {shape})",
                    field=axis_field,
                    value=derived,
                ) from None
            object.__setattr__(self, axis_field, extent)

    # ---------------------------------------------------------------- shapes
    @property
    def ifmap_shape(self) -> Tuple[int, int, int, int]:
        """NCHW shape of the input."""
        return (self.n, self.c_in, self.h_in, self.w_in)

    @property
    def filter_shape(self) -> Tuple[int, int, int, int]:
        """(C_O, C_I, H_F, W_F) shape of the weights."""
        return (self.c_out, self.c_in, self.h_filter, self.w_filter)

    @property
    def ofmap_shape(self) -> Tuple[int, int, int, int]:
        """NCHW shape of the output."""
        return (self.n, self.c_out, self.h_out, self.w_out)

    @property
    def positions(self) -> int:
        """Number of decomposed 1x1 filters, i.e. H_F * W_F."""
        return self.h_filter * self.w_filter

    # ------------------------------------------------------------- accounting
    @property
    def macs(self) -> int:
        return self.n * self.c_out * self.h_out * self.w_out * self.c_in * self.positions

    @property
    def flops(self) -> int:
        return 2 * self.macs

    def ifmap_elements(self) -> int:
        return self.n * self.c_in * self.h_in * self.w_in

    def filter_elements(self) -> int:
        return self.c_out * self.c_in * self.positions

    def ofmap_elements(self) -> int:
        return self.n * self.c_out * self.h_out * self.w_out

    def ifmap_bytes(self, elem_bytes: int = 2) -> int:
        return elem_bytes * self.ifmap_elements()

    def filter_bytes(self, elem_bytes: int = 2) -> int:
        return elem_bytes * self.filter_elements()

    def ofmap_bytes(self, elem_bytes: int = 2) -> int:
        return elem_bytes * self.ofmap_elements()

    def lowered_rows(self) -> int:
        """M dimension of the lowered-IFMap matrix: N * H_O * W_O."""
        return self.n * self.h_out * self.w_out

    def lowered_cols(self) -> int:
        """K dimension of the lowered-IFMap matrix: H_F * W_F * C_I."""
        return self.positions * self.c_in

    def lowered_elements(self) -> int:
        return self.lowered_rows() * self.lowered_cols()

    def lowered_bytes(self, elem_bytes: int = 2) -> int:
        """Size of the explicit lowered matrix — Table I's second row."""
        return elem_bytes * self.lowered_elements()

    def lowering_expansion(self) -> float:
        """How much larger the lowered IFMap is than the IFMap itself.

        Equals ``H_F*W_F`` for stride 1 without padding edge effects; the paper
        reports 1.5x-10x across real networks.
        """
        return self.lowered_elements() / self.ifmap_elements()

    def gemm_shape(self) -> GemmShape:
        """The single equivalent GEMM: [N*H_O*W_O, HWC] x [HWC, C_O]."""
        return GemmShape(m=self.lowered_rows(), n=self.c_out, k=self.lowered_cols())

    # ------------------------------------------------------------- utilities
    def is_pointwise(self) -> bool:
        return self.h_filter == 1 and self.w_filter == 1

    def with_batch(self, n: int) -> "ConvSpec":
        return dataclasses.replace(self, n=n)

    def with_stride(self, stride: int) -> "ConvSpec":
        return dataclasses.replace(self, stride=stride)

    def filter_positions(self) -> Iterator[Tuple[int, int]]:
        """Iterate decomposed-filter positions ``(r, s)`` in row-major order."""
        for r in range(self.h_filter):
            for s in range(self.w_filter):
                yield (r, s)

    def receptive_origin(self, oy: int, ox: int) -> Tuple[int, int]:
        """Top-left IFMap coordinate (may be negative under padding) of the
        receptive field for output pixel ``(oy, ox)``."""
        return (oy * self.stride - self.padding, ox * self.stride - self.padding)

    def tap_coordinate(self, oy: int, ox: int, r: int, s: int) -> Tuple[int, int]:
        """IFMap coordinate read by decomposed filter ``(r, s)`` for output
        pixel ``(oy, ox)``; may fall outside the IFMap under padding."""
        y0, x0 = self.receptive_origin(oy, ox)
        return (y0 + r * self.dilation, x0 + s * self.dilation)

    def describe(self) -> str:
        """Compact human-readable identifier, e.g. for experiment x-axis labels."""
        tag = self.name or "conv"
        return (
            f"{tag}[N{self.n} {self.c_in}x{self.h_in}x{self.w_in} -> "
            f"{self.c_out}, f{self.h_filter}x{self.w_filter} s{self.stride} "
            f"p{self.padding} d{self.dilation}]"
        )


def _check_module_sanity() -> None:
    # Cheap import-time self-check of the geometry conventions (kept trivial
    # so importing the package stays fast).
    assert output_extent(5, 3, 1, 0) == 3
    assert output_extent(5, 3, 2, 0) == 2
    assert output_extent(224, 7, 2, 3) == 112
    assert math.isclose(GemmShape(2, 2, 2).arithmetic_intensity(2), 16 / 24)


_check_module_sanity()
