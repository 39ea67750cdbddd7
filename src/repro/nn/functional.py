"""Stateless tensor operations: im2col/col2im, softmax, losses."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def im2col(
    x: np.ndarray, kernel: int, pad: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Unfold NCHW input into convolution columns (stride 1).

    Returns shape (N, C·k·k, H·W): each output column holds the receptive
    field of one spatial position, so convolution becomes a single matmul.

    *out* optionally supplies a reusable scratch array of the exact return
    shape and dtype (a previous return value): the unfold writes into it
    instead of allocating, which is what makes repeated same-shape
    inference calls allocation-free.  A mismatched *out* is ignored.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    shape = (n, c * kernel * kernel, h * w)
    if out is not None and out.shape == shape and out.dtype == x.dtype:
        cols = out.reshape(n, c, kernel, kernel, h, w)
    else:
        cols = np.empty((n, c, kernel, kernel, h, w), dtype=x.dtype)
    # The k*k shifted (h, w) windows of the padded input, copied at once;
    # stride-1 same-size output.
    windows = sliding_window_view(xp, (h, w), axis=(2, 3))
    cols[...] = windows[:, :, :kernel, :kernel]
    return cols.reshape(*shape)


def col2im(cols: np.ndarray, x_shape: tuple, kernel: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`im2col` — scatter-adds columns back to NCHW."""
    n, c, h, w = x_shape
    cols = cols.reshape(n, c, kernel, kernel, h, w)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            xp[:, :, i : i + h, j : j + w] += cols[:, :, i, j]
    if pad == 0:
        return xp
    return xp[:, :, pad : pad + h, pad : pad + w]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def masked_softmax(logits: np.ndarray, mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax restricted to positive-mask entries, renormalized.

    This realizes the paper's policy head: the FC output is "multiplied by
    available placing area s_a" before the softmax, so grids with zero
    availability receive zero probability.  If *every* entry is masked out
    the distribution falls back to uniform (the environment treats that as
    "place anywhere and accept the overflow").
    """
    p = softmax(logits, axis=axis) * mask
    total = p.sum(axis=axis, keepdims=True)
    uniform = np.ones_like(p) / p.shape[axis]
    return np.where(total > 0, p / np.where(total > 0, total, 1.0), uniform)
