"""Activeness propagation for small convolutional networks.

Forward inference caches every layer's response; an unsupervised
likelihood over the top of the network is backpropagated to weight each
neuron by how much the network output depends on it.  The weighted
responses give spatially reweighted features and exportable heatmaps,
all verifiable against finite-difference and enumeration oracles.
"""

from .activeness import (
    ActivenessRequest,
    ActivenessResult,
    backprop_score,
    connection_activeness,
    layer_score,
    log_likelihood,
    neuron_activeness,
)
from .image import RasterImage, resize_to_area, read_image, to_input_tensor, write_image
from .model_io import ARCHITECTURES, generate_model, load_model, save_model
from .net import (
    ConvLayer,
    NetworkSpec,
    PoolLayer,
    forward,
    receptive_sets,
)
from .oracle import enumerate_gamma, fd_connection_check
from .tensor import ShapeError, Tensor3

__version__ = "0.1.0"

__all__ = [
    "ActivenessRequest",
    "ActivenessResult",
    "ARCHITECTURES",
    "ConvLayer",
    "NetworkSpec",
    "PoolLayer",
    "RasterImage",
    "ShapeError",
    "Tensor3",
    "backprop_score",
    "connection_activeness",
    "enumerate_gamma",
    "fd_connection_check",
    "forward",
    "generate_model",
    "layer_score",
    "load_model",
    "log_likelihood",
    "neuron_activeness",
    "resize_to_area",
    "read_image",
    "receptive_sets",
    "save_model",
    "to_input_tensor",
    "write_image",
]
