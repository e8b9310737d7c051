"""Tensor arithmetic with reverse-mode autodiff."""
from .tensor import (
    Tensor,
    add,
    broadcast_to,
    concat,
    matmul,
    mul,
    narrow,
    no_grad,
    rearrange,
    reshape,
    select,
    stack,
    sub,
    take,
    transpose,
    tsum,
)
from .functional import (
    cross_entropy,
    gelu,
    layer_norm,
    log_softmax,
    softmax,
)
