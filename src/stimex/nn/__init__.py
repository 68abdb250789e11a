"""Small float64 autodiff engine and the layers built on it."""

from stimex.nn.tensor import Parameter, Tensor, as_tensor, concat
from stimex.nn.layers import (
    BiLstm,
    Linear,
    attention,
    cross_entropy,
    dropout,
    glorot_uniform,
    segment_mean,
)
from stimex.nn.optim import Adam

__all__ = [
    "Adam",
    "BiLstm",
    "Linear",
    "Parameter",
    "Tensor",
    "as_tensor",
    "attention",
    "concat",
    "cross_entropy",
    "dropout",
    "glorot_uniform",
    "segment_mean",
]
