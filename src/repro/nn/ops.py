"""Structural and convolutional differentiable operations.

These are free functions over :class:`repro.nn.tensor.Tensor` that do not
fit naturally as methods: concatenation/stacking, padding, im2col-based 2-D
convolution and pooling, and a few composite helpers (softmax, where).

The convolution forward/backward pair is implemented as a single primitive
(rather than composed from indexing ops) because the im2col/col2im
formulation is orders of magnitude faster in numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "concat",
    "stack",
    "pad2d",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "where",
    "maximum",
    "softmax",
    "log_softmax",
    "im2col",
    "col2im",
]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, boundaries, axis=axis))

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(p.squeeze(axis) for p in pieces)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward, "stack")


def pad2d(x: Tensor, padding: int | tuple[int, int]) -> Tensor:
    """Zero-pad the last two axes of a (N, C, H, W) tensor."""
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    if ph == 0 and pw == 0:
        return x
    pads = [(0, 0)] * (x.ndim - 2) + [(ph, ph), (pw, pw)]

    def backward(grad):
        slicer = tuple(
            slice(p[0], grad.shape[i] - p[1] if p[1] else None) for i, p in enumerate(pads)
        )
        return (grad[slicer],)

    return Tensor._make(np.pad(x.data, pads), (x,), backward, "pad2d")


# ---------------------------------------------------------------------------
# im2col / col2im machinery
# ---------------------------------------------------------------------------
def im2col(
    x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]
) -> tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N, C*kh*kw, out_h*out_w) patches."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2],
        x.strides[3],
        x.strides[2] * sh,
        x.strides[3] * sw,
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
) -> np.ndarray:
    """Fold patch gradients back into an image gradient (inverse of im2col)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    grad_x = np.zeros(x_shape, dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            grad_x[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols[:, :, i, j]
    return grad_x


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D cross-correlation over a (N, C_in, H, W) input.

    ``weight`` has shape (C_out, C_in, kh, kw), ``bias`` shape (C_out,).
    """
    stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
    if padding != 0 and padding != (0, 0):
        x = pad2d(x, padding)

    x_data = x.data
    w_data = weight.data
    n, c_in, h, w = x_data.shape
    c_out, c_in_w, kh, kw = w_data.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")

    cols, out_h, out_w = im2col(x_data, (kh, kw), stride)  # (N, C*kh*kw, L)
    k_dim = cols.shape[1]
    length = cols.shape[2]
    w_mat = w_data.reshape(c_out, -1)  # (C_out, C*kh*kw)
    # (N*L, K) @ (K, C_out) keeps everything in BLAS.
    cols_flat = cols.transpose(0, 2, 1).reshape(n * length, k_dim)
    out = (cols_flat @ w_mat.T).reshape(n, length, c_out).transpose(0, 2, 1)
    out = np.ascontiguousarray(out).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_flat = grad.reshape(n, c_out, length)  # (N, C_out, L)
        grad_2d = np.ascontiguousarray(grad_flat.transpose(0, 2, 1)).reshape(n * length, c_out)
        grad_w = (grad_2d.T @ cols_flat).reshape(w_data.shape)
        grad_cols = (grad_2d @ w_mat).reshape(n, length, k_dim).transpose(0, 2, 1)
        grad_x = col2im(np.ascontiguousarray(grad_cols), x_data.shape, (kh, kw), stride)
        if bias is None:
            return grad_x, grad_w
        grad_b = grad_2d.sum(axis=0)
        return grad_x, grad_w, grad_b

    return Tensor._make(out, parents, backward, "conv2d")


def max_pool2d(x: Tensor, kernel: int | tuple[int, int], stride: int | tuple[int, int] | None = None) -> Tensor:
    """Max pooling over the last two axes of (N, C, H, W)."""
    kernel = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
    stride = kernel if stride is None else ((stride, stride) if isinstance(stride, int) else tuple(stride))
    x_data = x.data
    n, c, h, w = x_data.shape
    cols, out_h, out_w = im2col(x_data, kernel, stride)
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    arg = cols.argmax(axis=2)  # (N, C, L)
    out = np.take_along_axis(cols, arg[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def backward(grad):
        grad_flat = grad.reshape(n, c, -1)
        grad_cols = np.zeros((n, c, kernel[0] * kernel[1], out_h * out_w), dtype=np.float64)
        np.put_along_axis(grad_cols, arg[:, :, None, :], grad_flat[:, :, None, :], axis=2)
        grad_cols = grad_cols.reshape(n, c * kernel[0] * kernel[1], out_h * out_w)
        return (col2im(grad_cols, x_data.shape, kernel, stride),)

    return Tensor._make(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int | tuple[int, int], stride: int | tuple[int, int] | None = None) -> Tensor:
    """Average pooling over the last two axes of (N, C, H, W)."""
    kernel = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
    stride = kernel if stride is None else ((stride, stride) if isinstance(stride, int) else tuple(stride))
    x_data = x.data
    n, c, h, w = x_data.shape
    area = kernel[0] * kernel[1]
    cols, out_h, out_w = im2col(x_data, kernel, stride)
    out = cols.reshape(n, c, area, out_h * out_w).mean(axis=2).reshape(n, c, out_h, out_w)

    def backward(grad):
        grad_flat = grad.reshape(n, c, 1, -1) / area
        grad_cols = np.broadcast_to(grad_flat, (n, c, area, out_h * out_w))
        grad_cols = grad_cols.reshape(n, c * area, out_h * out_w)
        return (col2im(np.ascontiguousarray(grad_cols), x_data.shape, kernel, stride),)

    return Tensor._make(out, (x,), backward, "avg_pool2d")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: ``condition`` is a plain boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)

    def backward(grad):
        return grad * cond, grad * ~cond

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward, "where")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties route gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    mask = a.data >= b.data

    def backward(grad):
        return grad * mask, grad * ~mask

    return Tensor._make(np.maximum(a.data, b.data), (a, b), backward, "maximum")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``.

    Composite (not a primitive): the shift constant is a detached Tensor
    of the input's max, which leaves the gradient unchanged because
    softmax is shift-invariant.
    """
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably (same detached shift as softmax)."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()
