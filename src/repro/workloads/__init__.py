"""Workloads: conv-layer tables for the seven benchmark CNNs plus the
synthetic microbenchmarks used by the validation and ablation figures."""

from .networks import (
    NETWORKS,
    alexnet,
    densenet121,
    googlenet,
    network,
    network_names,
    resnet50,
    vgg16,
    yolov2,
    zfnet,
)
from .mobilenet import mobilenet_v1
from .synthetic import (
    conv_validation_layers,
    fig4_layers,
    fig14_layer,
    gemm_sweep,
    memory_bound_layers,
    small_channel_sweep,
    strided_layers,
)

__all__ = [
    "NETWORKS",
    "alexnet",
    "densenet121",
    "googlenet",
    "network",
    "network_names",
    "resnet50",
    "vgg16",
    "yolov2",
    "zfnet",
    "conv_validation_layers",
    "fig4_layers",
    "fig14_layer",
    "gemm_sweep",
    "memory_bound_layers",
    "small_channel_sweep",
    "strided_layers",
    "mobilenet_v1",
]
