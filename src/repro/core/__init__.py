"""Core algorithms: convolution geometry, lowering, and the channel-first
implicit im2col contribution of the paper (Sec. III), hardware-independent."""

from .conv_spec import ConvSpec, GemmShape, output_extent
from .layouts import Layout, nchw_to, to_nchw
from .reference import direct_conv2d, gemm, random_conv_operands
from .lowering import (
    ColumnOrder,
    im2col,
    col2im,
    flatten_filters,
    unflatten_filters,
    column_permutation,
    ofmap_from_gemm,
    ifmap_mb,
    lowered_matrix_mb,
)
from .channel_first import (
    DecomposedFilter,
    conv2d_channel_first,
    decompose,
    decomposed_tile_view,
    decomposed_weight_slice,
)
from .tiling import (
    MultiTileGroup,
    RowTile,
    array_k_utilization,
    merged_gemm_operands,
    plan_multi_tile,
    plan_row_tiles,
    tpu_multi_tile_policy,
    workspace_elements,
)
from .backward import conv2d_backward_data, conv2d_backward_weights
from .grouped import GroupedConvSpec, depthwise_spec, grouped_conv2d
from .sparsity import (
    PositionMask,
    apply_mask_to_weights,
    conv2d_channel_first_sparse,
    prune_positions,
)
from .deformable import (
    deformable_conv2d,
    deformable_tile_gather,
    gather_traffic_elements,
    zero_offsets,
)
from .reordering import (
    greedy_reuse_order,
    order_reuse_fraction,
    overlap_fraction,
    tile_working_set,
)

__all__ = [
    "ConvSpec",
    "GemmShape",
    "output_extent",
    "Layout",
    "nchw_to",
    "to_nchw",
    "direct_conv2d",
    "gemm",
    "random_conv_operands",
    "ColumnOrder",
    "im2col",
    "col2im",
    "flatten_filters",
    "unflatten_filters",
    "column_permutation",
    "ofmap_from_gemm",
    "ifmap_mb",
    "lowered_matrix_mb",
    "DecomposedFilter",
    "conv2d_channel_first",
    "decompose",
    "decomposed_tile_view",
    "decomposed_weight_slice",
    "MultiTileGroup",
    "RowTile",
    "array_k_utilization",
    "merged_gemm_operands",
    "plan_multi_tile",
    "plan_row_tiles",
    "tpu_multi_tile_policy",
    "workspace_elements",
    "greedy_reuse_order",
    "order_reuse_fraction",
    "overlap_fraction",
    "tile_working_set",
    "conv2d_backward_data",
    "conv2d_backward_weights",
    "deformable_conv2d",
    "deformable_tile_gather",
    "gather_traffic_elements",
    "zero_offsets",
    "GroupedConvSpec",
    "depthwise_spec",
    "grouped_conv2d",
    "PositionMask",
    "apply_mask_to_weights",
    "conv2d_channel_first_sparse",
    "prune_positions",
]
