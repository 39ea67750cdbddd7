"""Trainable layers with manual backpropagation (NCHW).

Every layer caches what its backward pass needs during ``forward`` and
accumulates parameter gradients into :class:`Parameter.grad` during
``backward`` (call :meth:`Layer.zero_grad` between optimizer steps).
Shapes follow the paper's Table I blocks.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.nn.dtype import resolve_dtype
from repro.nn.functional import col2im, col2im_padded, im2col, tap_windows
from repro.utils.rng import ensure_rng


class Program:
    """One pass of an execution plan: a flat list of bound numpy calls.

    The ``emit_*`` methods of the layers below append the calls of their
    forward or backward pass with every operand already resolved: the
    buffers, the views into them, the parameter arrays.  Running the
    program is then a loop over those calls, with no layer dispatch, shape
    logic or allocation left per call.  A plan holds views of parameters
    and BN statistics, so those are only ever updated in place (as
    ``Adam``, ``load_params`` and the trainers' ``restore`` do).

    :meth:`scratch` hands every caller asking for the same tag, shape and
    dtype the same buffer: emitters use it for temporaries whose lifetimes
    do not overlap (the passes run layer after layer).
    """

    def __init__(self) -> None:
        self.ops: list = []
        self._scratch: dict[tuple, np.ndarray] = {}

    def emit(self, fn, *args, **kwargs) -> None:
        self.ops.append(functools.partial(fn, *args, **kwargs))

    def scratch(self, tag: str, shape: tuple, dtype, zeros: bool = False) -> np.ndarray:
        key = (tag, tuple(shape), np.dtype(dtype).str)
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = (np.zeros if zeros else np.empty)(shape, dtype)
        return buf

    def run(self) -> None:
        for op in self.ops:
            op()


class Parameter:
    """A trainable array plus its accumulated gradient.

    Allocated in the library's default dtype (float32 unless
    :func:`repro.nn.dtype.set_default_dtype` says otherwise); pass *dtype*
    to pin a specific precision.
    """

    def __init__(
        self,
        data: np.ndarray,
        name: str = "",
        dtype: str | type | np.dtype | None = None,
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=resolve_dtype(dtype))
        self.grad = np.zeros_like(self.data)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Layer:
    """Base class: forward/backward plus parameter enumeration."""

    training: bool = True

    def parameters(self) -> list[Parameter]:
        return []

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> None:
        self.training = mode
        for child in self.children():
            child.train(mode)

    def eval(self) -> None:
        self.train(False)

    def children(self) -> list["Layer"]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Conv2D(Layer):
    """Stride-1, 'same'-padded 2-D convolution (the only kind Table I uses)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        bias: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if kernel % 2 != 1:
            raise ValueError("same-padding requires an odd kernel")
        g = ensure_rng(rng)
        fan_in = in_channels * kernel * kernel
        scale = np.sqrt(2.0 / fan_in)  # He init (ReLU networks)
        self.kernel = kernel
        self.pad = kernel // 2
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(
            g.normal(0.0, scale, size=(out_channels, fan_in)), name="conv.weight"
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv.bias") if bias else None
        self._cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        cols = im2col(x, self.kernel, self.pad)  # (N, C*k*k, H*W)
        # (O, F) @ (N, F, S) broadcasts to one BLAS gemm per sample — far
        # faster than an un-optimized einsum, and each sample's result is
        # independent of what else is in the batch.
        y = np.matmul(self.weight.data, cols)  # (N, O, S)
        if self.bias is not None:
            y += self.bias.data[None, :, None]
        self._cache = (x.shape, cols)
        return y.reshape(n, self.out_channels, h, w)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_shape, cols = self._cache
        n, _, h, w = x_shape
        dy2 = dy.reshape(n, self.out_channels, h * w)
        self.weight.grad += np.matmul(dy2, cols.transpose(0, 2, 1)).sum(axis=0)
        if self.bias is not None:
            self.bias.grad += dy2.sum(axis=(0, 2))
        dcols = np.matmul(self.weight.data.T, dy2)
        return col2im(dcols, x_shape, self.kernel, self.pad)

    # -- plan twins of forward/backward (see Program) ---------------------------
    def emit_forward(
        self,
        prog: Program,
        src: np.ndarray,
        out: np.ndarray,
        cols: np.ndarray | None = None,
    ) -> None:
        """Append ``out ← W @ im2col(x) (+ b)`` with *out* (N, O, H·W).

        A k×k kernel reads *src*, the zero-bordered (N, C, H+2p, W+2p)
        buffer whose interior holds x, through its precomputed tap
        windows, and unfolds them into *cols* (N, C·k·k, H·W) -- the
        columns :meth:`emit_backward` reads.  A 1×1 kernel needs no
        unfolding: *src* is x as (N, C, H·W) and serves as its own columns.
        """
        if self.kernel > 1:
            n, c, hp, wp = src.shape
            h, w = hp - 2 * self.pad, wp - 2 * self.pad
            taps = cols.reshape(n, c, self.kernel, self.kernel, h, w)
            prog.emit(np.copyto, taps, tap_windows(src, h, w))
            src = cols
        prog.emit(np.matmul, self.weight.data, src, out=out)
        if self.bias is not None:
            prog.emit(np.add, out, self.bias.data[None, :, None], out=out)

    def emit_backward(
        self,
        prog: Program,
        dy: np.ndarray,
        cols: np.ndarray,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """Append the gradient accumulation from *dy* (N, O, H, W,
        C-contiguous) and the forward's *cols*; return the input gradient.

        The input gradient is a view into a scratch buffer, valid until
        the next conv backward whose input has the same shape.  A k×k
        kernel computes it in the padded-width layout of
        :func:`col2im_padded`.  ``input_grad=False`` skips it.
        """
        n, o, h, w = dy.shape
        dy2 = dy.reshape(n, o, h * w)
        w_shape = self.weight.data.shape
        prod = prog.scratch("conv.dw", (n,) + w_shape, np.result_type(dy, cols))
        dw = prog.scratch("conv.dw.sum", w_shape, prod.dtype)
        prog.emit(np.matmul, dy2, cols.transpose(0, 2, 1), out=prod)
        prog.emit(np.sum, prod, axis=0, out=dw)
        prog.emit(np.add, self.weight.grad, dw, out=self.weight.grad)
        if self.bias is not None:
            db = prog.scratch("conv.db", (o,), dy.dtype)
            prog.emit(np.sum, dy2, axis=(0, 2), out=db)
            prog.emit(np.add, self.bias.grad, db, out=self.bias.grad)
        if not input_grad:
            return None
        wt = self.weight.data.T
        dtype = np.result_type(wt, dy)
        c, p = self.in_channels, self.pad
        if self.kernel == 1:
            # The columns are the gradient: col2im would only add them onto
            # zeros, and a gemm (its sums start from +0.0) yields no −0.0
            # for that to turn into +0.0.
            dx = prog.scratch("conv.dx", (n, c, h, w), dtype)
            prog.emit(np.matmul, wt, dy2, out=dx.reshape(n, c, h * w))
            return dx
        wp = w + 2 * p
        dy_pad = prog.scratch("conv.dy_pad", (n, o, h, wp), dy.dtype, zeros=True)
        dcols = prog.scratch("conv.dcols", (n, wt.shape[0], h * wp), dtype)
        grad = prog.scratch("conv.dx", (n, c, h + 2 * p, wp), dtype)
        prog.emit(np.copyto, dy_pad[..., :w], dy)
        prog.emit(np.matmul, wt, dy_pad.reshape(n, o, h * wp), out=dcols)
        prog.emit(col2im_padded, dcols, grad, self.kernel)
        return grad[:, :, p : p + h, p : p + w]


class BatchNorm2D(Layer):
    """Per-channel batch normalization with running statistics."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels), name="bn.gamma")
        self.beta = Parameter(np.zeros(channels), name="bn.beta")
        self.running_mean = np.zeros(channels, dtype=self.gamma.data.dtype)
        self.running_var = np.ones(channels, dtype=self.gamma.data.dtype)
        self._cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def _moments(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean, var) to normalize *x* with; batch moments in training
        mode, which also advance the running statistics."""
        if not self.training:
            return self.running_mean, self.running_var
        # Moments accumulate in float64 (stable for large N·H·W even
        # under float32 activations), then drop back to the layer dtype.
        mean = x.mean(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
        var = x.var(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
        self.running_mean += self.momentum * (mean - self.running_mean)
        self.running_var += self.momentum * (var - self.running_var)
        return mean, var

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean, var = self._moments(x)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, x.shape)
        return self.gamma.data[None, :, None, None] * x_hat + self.beta.data[
            None, :, None, None
        ]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_hat, inv_std, shape = self._cache
        n, _, h, w = shape
        m = n * h * w
        self.gamma.grad += (dy * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        if not self.training:
            return dy * (self.gamma.data * inv_std)[None, :, None, None]
        dxhat = dy * self.gamma.data[None, :, None, None]
        term1 = dxhat
        term2 = dxhat.mean(axis=(0, 2, 3), keepdims=True)
        term3 = x_hat * (dxhat * x_hat).sum(axis=(0, 2, 3), keepdims=True) / m
        return (term1 - term2 - term3) * inv_std[None, :, None, None]

    # -- plan twins of forward/backward (see Program) ---------------------------
    def emit_eval(self, prog: Program, y: np.ndarray, inv_std: np.ndarray) -> None:
        """Append the eval-mode forward, in place on *y* (N, C, H, W):
        ``y ← γ·((y − μ)·inv_std) + β`` with the running mean μ.

        *inv_std* is ``1 / sqrt(running_var + eps)``, which the plan
        recomputes before each run: the running statistics change in place
        between runs.
        """
        mean, gamma, beta = (
            a[None, :, None, None]
            for a in (self.running_mean, self.gamma.data, self.beta.data)
        )
        prog.emit(np.subtract, y, mean, out=y)
        prog.emit(np.multiply, y, inv_std[None, :, None, None], out=y)
        prog.emit(np.multiply, gamma, y, out=y)
        prog.emit(np.add, y, beta, out=y)

    def forward_into(
        self, x: np.ndarray, x_hat: np.ndarray, out: np.ndarray, cache: dict
    ) -> None:
        """:meth:`forward` into preallocated *x_hat* and *out* (which may be
        *x*); *cache* receives what :meth:`backward_into` needs."""
        mean, var = self._moments(x)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        np.subtract(x, mean[None, :, None, None], out=x_hat)
        np.multiply(x_hat, inv_std[None, :, None, None], out=x_hat)
        np.multiply(self.gamma.data[None, :, None, None], x_hat, out=out)
        np.add(out, self.beta.data[None, :, None, None], out=out)
        cache["inv_std"], cache["training"] = inv_std, self.training

    def backward_into(
        self,
        dy: np.ndarray,
        x_hat: np.ndarray,
        cache: dict,
        tmp: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """:meth:`backward` with scratch *tmp* and the input gradient
        written to *out*; *dy* is C-contiguous, like every array the
        reference reduces over."""
        inv_std = cache["inv_std"]
        n, _, h, w = dy.shape
        m = n * h * w
        np.multiply(dy, x_hat, out=tmp)
        self.gamma.grad += tmp.sum(axis=(0, 2, 3))
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        if not cache["training"]:
            np.multiply(dy, (self.gamma.data * inv_std)[None, :, None, None], out=out)
            return
        np.multiply(dy, self.gamma.data[None, :, None, None], out=out)  # dxhat
        term2 = out.mean(axis=(0, 2, 3), keepdims=True)
        np.multiply(out, x_hat, out=tmp)
        np.multiply(x_hat, tmp.sum(axis=(0, 2, 3), keepdims=True), out=tmp)
        np.divide(tmp, m, out=tmp)  # term3
        np.subtract(out, term2, out=out)
        np.subtract(out, tmp, out=out)
        np.multiply(out, inv_std[None, :, None, None], out=out)


class ReLU(Layer):
    """Elementwise max(x, 0)."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask

    # -- plan twins of forward/backward (see Program) ---------------------------
    @staticmethod
    def emit_forward(
        prog: Program, x: np.ndarray, mask: np.ndarray, out: np.ndarray
    ) -> None:
        """Append ``out ← x * (x > 0)`` (which keeps −0.0), recording the
        mask the backward reads."""
        prog.emit(np.greater, x, 0, out=mask)
        prog.emit(np.multiply, x, mask, out=out)

    @staticmethod
    def emit_backward(
        prog: Program, dy: np.ndarray, mask: np.ndarray, out: np.ndarray
    ) -> None:
        prog.emit(np.multiply, dy, mask, out=out)


class Linear(Layer):
    """Fully connected layer over the trailing dimension."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        g = ensure_rng(rng)
        scale = np.sqrt(2.0 / in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            g.normal(0.0, scale, size=(out_features, in_features)), name="fc.weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="fc.bias")
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.weight.grad += dy.T @ self._x
        self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.data

    # -- plan twins of forward/backward (see Program) ---------------------------
    def emit_forward(self, prog: Program, x: np.ndarray, out: np.ndarray) -> None:
        prog.emit(np.matmul, x, self.weight.data.T, out=out)
        prog.emit(np.add, out, self.bias.data, out=out)

    def emit_backward(
        self, prog: Program, dy: np.ndarray, x: np.ndarray, dx: np.ndarray
    ) -> None:
        """Append the gradient accumulation from *dy* and the forward's
        input *x*, and ``dx ← dy @ W``."""
        dw = np.empty(self.weight.data.shape, np.result_type(dy, x))
        db = np.empty(self.bias.data.shape, dy.dtype)
        prog.emit(np.matmul, dy.T, x, out=dw)
        prog.emit(np.add, self.weight.grad, dw, out=self.weight.grad)
        prog.emit(np.sum, dy, axis=0, out=db)
        prog.emit(np.add, self.bias.grad, db, out=self.bias.grad)
        prog.emit(np.matmul, dy, self.weight.data, out=dx)


class Flatten(Layer):
    """(N, C, H, W) -> (N, C·H·W)."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._shape)


class Sequential(Layer):
    """Chain of layers applied in order."""

    def __init__(self, *layers: Layer) -> None:
        self.layers = list(layers)

    def children(self) -> list[Layer]:
        return self.layers

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy
