"""``repro.nn`` — a from-scratch deep-learning substrate on numpy.

The APOTS paper assumes a mainstream deep-learning framework; none is
available offline, so this subpackage implements the pieces the paper's
models need: a reverse-mode autograd Tensor, dense / convolutional /
recurrent layers, optimisers, losses, initialisation, serialisation and
finite-difference gradient checking.
"""

from . import init, ops
from .gradcheck import check_gradients, numerical_gradient
from .layers import (
    ELU,
    LSTM,
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    LayerNorm,
    LeakyReLU,
    Linear,
    LSTMCell,
    MaxPool2d,
    ModuleList,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import BCELoss, BCEWithLogitsLoss, HuberLoss, L1Loss, MSELoss
from .module import Module, Parameter, load_state, save_state
from .optim import SGD, Adam, ExponentialLR, Optimizer, RMSprop, StepLR, clip_grad_norm
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "init",
    "ops",
    "check_gradients",
    "numerical_gradient",
    "ELU",
    "LSTM",
    "AvgPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "LayerNorm",
    "LeakyReLU",
    "Linear",
    "LSTMCell",
    "MaxPool2d",
    "ModuleList",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "BCELoss",
    "BCEWithLogitsLoss",
    "HuberLoss",
    "L1Loss",
    "MSELoss",
    "Module",
    "Parameter",
    "load_state",
    "save_state",
    "SGD",
    "Adam",
    "ExponentialLR",
    "Optimizer",
    "RMSprop",
    "StepLR",
    "clip_grad_norm",
    "Tensor",
    "as_tensor",
    "is_grad_enabled",
    "no_grad",
]
