"""Neural network layers for the from-scratch substrate."""

from .activation import ELU, LeakyReLU, ReLU, Sigmoid, Tanh
from .container import ModuleList, Sequential
from .conv import AvgPool2d, Conv2d, Flatten, MaxPool2d
from .dropout import Dropout
from .linear import Linear
from .normalization import BatchNorm1d, BatchNorm2d, LayerNorm
from .recurrent import LSTM, LSTMCell

__all__ = [
    "ELU",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "ModuleList",
    "Sequential",
    "AvgPool2d",
    "Conv2d",
    "Flatten",
    "MaxPool2d",
    "Dropout",
    "Linear",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "LSTM",
    "LSTMCell",
]
