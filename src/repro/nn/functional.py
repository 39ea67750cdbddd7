"""Stateless tensor operations: im2col/col2im, softmax, losses."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def tap_windows(xp: np.ndarray, h: int, w: int) -> np.ndarray:
    """The k×k shifted (h, w) windows of a zero-bordered NCHW buffer.

    A read-only (N, C, k, k, h, w) view of *xp* (k = padded size − h + 1),
    i.e. the stride-1 same-size receptive fields; copying it into a
    (N, C, k, k, h, w) array is the whole im2col.
    """
    return sliding_window_view(xp, (h, w), axis=(2, 3))


def im2col(x: np.ndarray, kernel: int, pad: int) -> np.ndarray:
    """Unfold NCHW input into convolution columns (stride 1).

    Returns shape (N, C·k·k, H·W): each output column holds the receptive
    field of one spatial position, so convolution becomes a single matmul.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    cols = np.empty((n, c, kernel, kernel, h, w), dtype=x.dtype)
    cols[...] = tap_windows(xp, h, w)
    return cols.reshape(n, c * kernel * kernel, h * w)


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


def col2im_padded(cols: np.ndarray, out: np.ndarray, kernel: int) -> np.ndarray:
    """:func:`col2im` for columns computed over padded-width rows.

    *cols* is (N, C·k·k, H·Wp) with Wp = W + k − 1: the column gradient
    ``W.T @ dy`` of a *dy* zero-padded on the right to width Wp.  *out*, a
    C-contiguous (N, C, H + k − 1, Wp) array, is overwritten with the
    gradient of the zero-bordered input and returned; its interior is the
    input gradient.

    In this layout each kernel tap lands on one contiguous run per
    (sample, channel) instead of H runs of W.  The runs also carry the
    padding columns, whose zeros (for finite weights) leave every sum
    unchanged: each sum starts from +0.0, so it never holds −0.0, and
    adding ±0.0 to it is exact.  Where the real columns equal the
    unpadded gemm's (a gemm computes each column on its own; the tests
    check it for this BLAS), the result is byte-identical to
    :func:`col2im`, tap order included.
    """
    n, c, hp, wp = out.shape
    h, w = hp - kernel + 1, wp - kernel + 1
    run = (h - 1) * wp + w
    flat = out.reshape(n, c, hp * wp)
    taps = cols.reshape(n, c, kernel, kernel, h * wp)
    flat.fill(0)
    for i in range(kernel):
        for j in range(kernel):
            start = i * wp + j
            flat[:, :, start : start + run] += taps[:, :, i, j, :run]
    return out


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
