"""Reverse-mode autograd engine on numpy (the reproduction's PyTorch stand-in).

Forward execution is delegated to :mod:`repro.engine`, which runs each
op's numpy reference kernel immediately.
"""

from .tensor import (
    Tensor,
    concat,
    grad_enabled,
    no_grad,
    ones,
    stack,
    unbroadcast,
    zeros,
)
from .ops import (
    batch_norm,
    conv2d,
    cross_entropy,
    dropout,
    im2col,
    col2im,
    log_softmax,
    max_pool2d,
    nll_loss,
    softmax,
)
from .gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "zeros",
    "ones",
    "unbroadcast",
    "no_grad",
    "grad_enabled",
    "conv2d",
    "max_pool2d",
    "batch_norm",
    "log_softmax",
    "softmax",
    "nll_loss",
    "cross_entropy",
    "dropout",
    "im2col",
    "col2im",
    "check_gradients",
    "numerical_gradient",
]
