"""Policy/value network (Fig. 2, Table I).

Shared trunk: Conv3×3+BN+ReLU over the input planes, then a residual tower.
Policy head: Conv1×1(→2)+BN+ReLU, flatten, Linear → ζ² logits, which the
caller masks with s_a and softmaxes (see
:func:`repro.nn.functional.masked_softmax`).
Value head: the trunk output is combined with the current placement s_p and
the sequence-number plane t (the paper's position embedding), then
Conv1×1(→1)+BN+ReLU, Linear+ReLU → 16, Linear+ReLU → ζ², Linear → 1
(linear output by default; ``NetworkConfig.value_tanh`` selects a bounded
tanh variant for ablation).

Adaptations from the paper (documented in DESIGN.md):

- the paper feeds t through a learned position embedding; here t/T enters
  as a constant input plane to both trunk and value head — the same
  information through a simpler (still learnable downstream) channel;
- paper scale is ζ=16, 128 channels, 10 ResBlocks (``NetworkConfig.paper()``);
  the default is CPU-sized.

The layers above define the math; the passes run through a per-shape
execution plan (:class:`_Plan`) that issues the same numpy operations
without the per-layer interpreter overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.nn.blocks import ResTower
from repro.nn.dtype import default_dtype, resolve_dtype
from repro.nn.layers import (
    BatchNorm2D,
    Conv2D,
    Flatten,
    Layer,
    Linear,
    Parameter,
    Program,
    ReLU,
    Sequential,
)
from repro.nn.serialization import _batchnorms
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class NetworkConfig:
    """Topology knobs for :class:`PolicyValueNet`."""

    zeta: int = 8
    channels: int = 16
    res_blocks: int = 2
    value_hidden: int = 16
    #: squash the value through tanh (bounded (−1,1)).  The Eq. 9 reward with
    #: α ∈ [0.5, 1] routinely exceeds 1, which a tanh head cannot represent,
    #: so the default is an unbounded linear head; the tanh variant is kept
    #: for ablation.
    value_tanh: bool = False
    #: parameter/activation dtype ("float32"/"float64"); ``None`` uses the
    #: library default from :mod:`repro.nn.dtype` (float32).
    dtype: str | None = None
    seed: int = 0

    @classmethod
    def paper(cls) -> "NetworkConfig":
        """The full Table I configuration (ζ=16, 128 channels, 10 blocks)."""
        return cls(zeta=16, channels=128, res_blocks=10, value_hidden=16)


class PlaneView(NamedTuple):
    """Minimal state view the packing/evaluation batch APIs accept."""

    s_p: np.ndarray
    s_a: np.ndarray
    t: int
    total_steps: int


class PolicyValueNet(Layer):
    """Two-headed network mapping state planes to (policy logits, value)."""

    #: input planes: s_p, s_a, t/T
    IN_PLANES = 3

    def __init__(self, config: NetworkConfig = NetworkConfig()) -> None:
        self.config = config
        self.dtype = resolve_dtype(config.dtype)
        g = ensure_rng(config.seed)
        zeta = config.zeta
        ch = config.channels

        # All layers allocate their parameters in this network's dtype.
        with default_dtype(self.dtype):
            self.trunk = Sequential(
                Conv2D(self.IN_PLANES, ch, kernel=3, bias=False, rng=g),
                BatchNorm2D(ch),
                ReLU(),
                ResTower(ch, config.res_blocks, rng=g),
            )
            self.policy_head = Sequential(
                Conv2D(ch, 2, kernel=1, bias=False, rng=g),
                BatchNorm2D(2),
                ReLU(),
                Flatten(),
                Linear(2 * zeta * zeta, zeta * zeta, rng=g),
            )
            # Value head consumes trunk output ++ s_p ++ t-plane.
            self.value_conv = Sequential(
                Conv2D(ch + 2, 1, kernel=1, bias=False, rng=g),
                BatchNorm2D(1),
                ReLU(),
                Flatten(),
            )
            self.value_mlp = Sequential(
                Linear(zeta * zeta, config.value_hidden, rng=g),
                ReLU(),
                Linear(config.value_hidden, zeta * zeta, rng=g),
                ReLU(),
                Linear(zeta * zeta, 1, rng=g),
            )
        self._cache: tuple | None = None

    def children(self) -> list[Layer]:
        return [self.trunk, self.policy_head, self.value_conv, self.value_mlp]

    def parameters(self) -> list[Parameter]:
        return [p for c in self.children() for p in c.parameters()]

    # -- plane packing -----------------------------------------------------------
    def pack_planes(
        self, s_p: np.ndarray, s_a: np.ndarray, t: int, total_steps: int
    ) -> np.ndarray:
        """Stack one state into a (1, 3, ζ, ζ) input tensor (network dtype)."""
        return self.pack_planes_batch([PlaneView(s_p, s_a, t, total_steps)])

    def pack_planes_batch(self, states) -> np.ndarray:
        """Pack B states into one (B, 3, ζ, ζ) NCHW tensor.

        *states* is any sequence of objects carrying ``s_p``, ``s_a``,
        ``t`` and ``total_steps`` (:class:`repro.agent.state.EnvState`,
        :class:`PlaneView`, ...).  The tensor is allocated in the network
        dtype so one forward serves the whole batch without upcasting.
        """
        zeta = self.config.zeta
        x = np.empty((len(states), self.IN_PLANES, zeta, zeta), dtype=self.dtype)
        for i, s in enumerate(states):
            if s.s_p.shape != (zeta, zeta) or s.s_a.shape != (zeta, zeta):
                raise ValueError(
                    f"state planes must be {zeta}x{zeta}, "
                    f"got {s.s_p.shape}/{s.s_a.shape}"
                )
            x[i, 0] = s.s_p
            x[i, 1] = s.s_a
            x[i, 2] = s.t / max(s.total_steps, 1)
        return x

    # -- forward / backward ---------------------------------------------------------
    #: execution plans (:class:`_Plan`) of the shapes in use: the last
    #: forward_eval input and the last training batch
    _eval_plan: "_Plan | None" = None
    _train_plan: "_Plan | None" = None

    def __getstate__(self) -> dict:
        # Plans hold views of this network's arrays; a copy builds its own.
        return {**self.__dict__, "_eval_plan": None, "_train_plan": None, "_cache": None}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (logits (N, ζ²), value (N,)), keeping what
        :meth:`backward` needs.

        BN layers normalize with batch moments in training mode and with
        their running statistics in eval mode.  The value head is linear by
        default (``config.value_tanh`` enables a bounded tanh variant for
        ablation).
        """
        plan = self._train_plan
        if plan is None or plan.key != (x.shape, x.dtype):
            self._train_plan = self._cache = None  # free it before the next
            plan = self._train_plan = _Plan(self, x.shape, x.dtype, backprop=True)
        logits, v = plan.run(x)
        self._cache = (plan, v)
        return logits, v

    def backward(self, dlogits: np.ndarray, dvalue: np.ndarray) -> None:
        """Accumulate every parameter gradient of the last :meth:`forward`
        from both heads; *dvalue* has shape (N,).

        The gradient with respect to the input planes is not computed: no
        caller needs it.
        """
        if self._cache is None:
            raise RuntimeError("backward() needs a forward() first")
        plan, v = self._cache
        if self.config.value_tanh:
            dvalue = dvalue * (1.0 - v**2)  # through tanh
        plan.backward(dlogits, dvalue)

    # -- convenience -------------------------------------------------------------
    def evaluate(
        self, s_p: np.ndarray, s_a: np.ndarray, t: int, total_steps: int
    ) -> tuple[np.ndarray, float]:
        """Inference for one state: (masked probabilities (ζ²,), value).

        Uses eval-mode batch-norm statistics (:meth:`forward_eval`).
        Delegates to :meth:`evaluate_batch` with B=1, so the single-state
        and batched paths cannot drift apart.
        """
        probs, values = self.evaluate_batch([PlaneView(s_p, s_a, t, total_steps)])
        return probs[0], float(values[0])

    def evaluate_batch(self, states) -> tuple[np.ndarray, np.ndarray]:
        """Batched inference: (masked probabilities (B, ζ²), values (B,)).

        Packs *states* (see :meth:`pack_planes_batch`) into one NCHW tensor
        and runs a single eval-mode forward — the im2col matmuls amortize
        across the batch instead of re-dispatching per state.  Each row's
        policy is softmaxed under that state's availability mask
        (``s_a > 0``; an all-masked row falls back to the plain softmax,
        matching the single-state path).
        """
        from repro.nn.functional import masked_softmax

        zeta = self.config.zeta
        if len(states) == 0:
            return np.zeros((0, zeta * zeta)), np.zeros(0)
        logits, v = self.forward_eval(self.pack_planes_batch(states))
        probs = masked_softmax(logits, self.policy_masks(states), axis=1)
        return probs, np.asarray(v, dtype=np.float64)

    def policy_masks(self, states) -> np.ndarray:
        """Per-state availability masks for the policy softmax (B, ζ²)."""
        zeta = self.config.zeta
        masks = np.empty((len(states), zeta * zeta))
        for i, s in enumerate(states):
            mask = (s.s_a > 0).ravel().astype(float)
            if not mask.any():
                mask = np.ones_like(mask)
            masks[i] = mask
        return masks

    def forward_eval(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One eval-mode forward: BN layers use their running statistics,
        whatever the network's train/eval mode, which stays untouched."""
        plan = self._eval_plan
        if plan is None or plan.key != (x.shape, x.dtype):
            self._eval_plan = None  # free it before the next
            plan = self._eval_plan = _Plan(self, x.shape, x.dtype, backprop=False)
        return plan.run(x)

    def forward_eval_tiled(
        self, x: np.ndarray, tile: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode forward in fixed-size zero-padded chunks of *tile* rows.

        BLAS picks different GEMM kernels/blockings for different batch-row
        counts, so a row's result is *not* bitwise stable across batch
        sizes — but at a fixed row count it is bitwise independent of both
        its position and the other rows' content (zero padding included).
        Running every forward as exact *tile*-row chunks therefore makes
        each state's (logits, value) invariant to how rows were batched.

        Nothing in the placer calls this: every evaluation runs the
        untiled :meth:`forward_eval`, on which all recorded HPWLs rest.  It
        stays because the repository benchmark's layer tracer
        (``perfbench/spans.py``) wraps it by name and fails to install
        without it; it goes together with that binding.
        """
        n = len(x)
        if n == 0:
            zeta = self.config.zeta
            return np.zeros((0, zeta * zeta), dtype=x.dtype), np.zeros(0)
        out_logits, out_v = [], []
        for start in range(0, n, tile):
            chunk = x[start : start + tile]
            rows = len(chunk)
            if rows < tile:
                pad = np.zeros((tile - rows,) + chunk.shape[1:], dtype=chunk.dtype)
                chunk = np.concatenate([chunk, pad], axis=0)
            logits, v = self.forward_eval(chunk)
            out_logits.append(logits[:rows])
            out_v.append(v[:rows])
        return np.concatenate(out_logits), np.concatenate(out_v)


class _Plan:
    """The network's passes for one input shape and dtype, built once.

    Every activation lives in a buffer allocated here, and each pass is a
    :class:`~repro.nn.layers.Program` of the layers' ``emit_*`` calls:
    the same floating-point operations, in the same order, on operands of
    the same dtype and memory layout as the layers' own
    ``forward``/``backward``, so results are byte-identical (the tests
    hold the two side by side).  What a plan saves is the interpreter
    work around them:

    - each 3×3 conv reads a zero-bordered buffer through tap windows taken
      once, and the ReLU before it writes straight into that buffer;
    - the 1×1 head convs read the trunk output in place, which also is the
      value head's input (trunk ++ s_p ++ t, no concatenation);
    - the backward's col2im uses the padded-width layout
      (:func:`~repro.nn.functional.col2im_padded`) and skips the gradient
      of the input planes.

    An eval plan (``backprop=False``) normalizes with the BN running
    statistics and shares its scratch between layers.  A training plan
    keeps each layer's columns, normalized activations and ReLU masks for
    :meth:`backward`, and normalizes the way each BN layer's mode says.
    """

    def __init__(self, net: PolicyValueNet, shape: tuple, dtype, backprop: bool) -> None:
        n, planes, h, w = shape
        c, s = net.config.channels, h * w
        act = np.result_type(dtype, net.dtype)
        self.key = (shape, dtype)
        self.net, self.backprop, self.dims = net, backprop, (n, c, h, w)
        self.act = act
        #: what each layer's backward reads, by layer
        self.saved: dict[Layer, object] = {}
        self.bwd: Program | None = None
        prog = self.fwd = Program()
        if not backprop:
            self._inv_std = self._emit_inv_std(prog, net)

        stem, stem_bn, stem_relu, tower = net.trunk.layers
        pconv, pbn, prelu, _, self.policy_fc = net.policy_head.layers
        vconv, vbn, vrelu, _ = net.value_conv.layers
        fc1, relu1, fc2, relu2, self.value_fc = net.value_mlp.layers

        # Inputs of the 3×3 convs: zero-bordered buffers whose border is
        # never written.  a holds a block's input and output, b the
        # activation between its two convs.
        x_pad = np.zeros((n, planes, h + 2, w + 2), dtype)
        a = np.zeros((n, c, h + 2, w + 2), act)
        b = np.zeros((n, c, h + 2, w + 2), act)
        # trunk output ++ s_p ++ t: the value conv's input; its first c
        # channels are the policy conv's input
        self.value_in = np.empty((n, c + 2, s), act)
        self.x = x_pad[:, :, 1:-1, 1:-1]
        self.side_planes = self.value_in[:, c:].reshape(n, 2, h, w)
        trunk_out = self.value_in[:, :c]
        y = np.empty((n, c, s), act)  # every trunk conv's output
        y4 = y.reshape(n, c, h, w)

        blocks = tower.blocks
        last = trunk_out.reshape(n, c, h, w)
        self._conv(stem, x_pad, y)
        self._norm(stem_bn, y4)
        self._relu(stem_relu, y4, _interior(a) if blocks else last)
        for i, block in enumerate(blocks):
            self._conv(block.conv1, a, y)
            self._norm(block.bn1, y4)
            self._relu(block.relu1, y4, _interior(b))
            self._conv(block.conv2, b, y)
            self._norm(block.bn2, y4)
            prog.emit(np.add, y4, _interior(a), out=y4)  # skip connection
            self._relu(block.relu_out, y4, last if i == len(blocks) - 1 else _interior(a))

        self.policy = np.empty((n, 2, s), act)
        p4 = self.policy.reshape(n, 2, h, w)
        self._conv(pconv, trunk_out, self.policy)
        self._norm(pbn, p4)
        self._relu(prelu, p4, p4)
        self.value = np.empty((n, 1, s), act)
        v4 = self.value.reshape(n, 1, h, w)
        self._conv(vconv, self.value_in, self.value)
        self._norm(vbn, v4)
        self._relu(vrelu, v4, v4)
        self.hidden = np.empty((n, fc1.out_features), act)
        fc1.emit_forward(prog, self.value.reshape(n, s), self.hidden)
        self._relu(relu1, self.hidden, self.hidden)
        self.hidden2 = np.empty((n, fc2.out_features), act)
        fc2.emit_forward(prog, self.hidden, self.hidden2)
        self._relu(relu2, self.hidden2, self.hidden2)

    @staticmethod
    def _emit_inv_std(prog: Program, net: PolicyValueNet) -> dict:
        """``1 / sqrt(running_var + eps)`` of every BN layer, recomputed at
        the start of each run in four calls over one concatenated array."""
        bns = _batchnorms(net)
        sizes = [bn.channels for bn in bns]
        inv = np.empty(sum(sizes), net.dtype)
        eps = np.concatenate([np.full(bn.channels, bn.eps, net.dtype) for bn in bns])
        prog.emit(np.concatenate, [bn.running_var for bn in bns], out=inv)
        prog.emit(np.add, inv, eps, out=inv)
        prog.emit(np.sqrt, inv, out=inv)
        prog.emit(np.divide, 1.0, inv, out=inv)
        ends = np.cumsum(sizes)
        return {bn: inv[end - size : end] for bn, size, end in zip(bns, sizes, ends)}

    # -- forward --------------------------------------------------------------
    def _conv(self, conv: Conv2D, src: np.ndarray, out: np.ndarray) -> None:
        cols = None
        if conv.kernel > 1:
            n, c = src.shape[:2]
            shape = (n, c * conv.kernel**2, out.shape[2])
            if self.backprop:
                cols = np.empty(shape, src.dtype)
            else:
                cols = self.fwd.scratch("cols", shape, src.dtype)
        conv.emit_forward(self.fwd, src, out, cols)
        self.saved[conv] = src if cols is None else cols

    def _norm(self, bn: BatchNorm2D, y: np.ndarray) -> None:
        if not self.backprop:
            bn.emit_eval(self.fwd, y, self._inv_std[bn])
            return
        x_hat, cache = np.empty_like(y), {}
        self.fwd.emit(bn.forward_into, y, x_hat, y, cache)
        self.saved[bn] = (x_hat, cache)

    def _relu(self, relu: ReLU, src: np.ndarray, out: np.ndarray) -> None:
        if self.backprop:
            mask = np.empty(src.shape, bool)
        else:
            mask = self.fwd.scratch("mask", src.shape, bool)
        relu.emit_forward(self.fwd, src, mask, out)
        self.saved[relu] = mask

    def run(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        np.copyto(self.x, x)
        np.copyto(self.side_planes, x[:, 0::2])  # s_p and the t-plane
        self.fwd.run()
        n, _, h, w = self.dims
        # The last layer of each head writes fresh arrays: callers keep them.
        fc = self.policy_fc
        logits = self.policy.reshape(n, 2 * h * w) @ fc.weight.data.T
        logits += fc.bias.data
        fc = self.value_fc
        v = self.hidden2 @ fc.weight.data.T
        v += fc.bias.data
        v = v[:, 0]
        return logits, np.tanh(v) if self.net.config.value_tanh else v

    # -- backward -------------------------------------------------------------
    def backward(self, dlogits: np.ndarray, dvalue: np.ndarray) -> None:
        """Backprop the last :meth:`run` (*dvalue* already through tanh).

        The pass runs in the dtype of the incoming gradients and the
        activations, whichever is wider: the dtype the layers' own
        backward computes in when both gradients have one dtype at least
        as wide as the activations' (as every trainer passes them).
        """
        dtype = np.result_type(dlogits, dvalue, self.act)
        if self.bwd is None or self.dlogits.dtype != dtype:
            self.bwd = None  # free it before the next
            self._build_backward(dtype)
        np.copyto(self.dlogits, dlogits)
        np.copyto(self.dvalue, dvalue)
        self.bwd.run()

    def _build_backward(self, dtype) -> None:
        net, saved = self.net, self.saved
        n, c, h, w = self.dims
        s = h * w
        prog = Program()
        stem, stem_bn, stem_relu, tower = net.trunk.layers
        pconv, pbn, prelu, _, pfc = net.policy_head.layers
        vconv, vbn, vrelu, _ = net.value_conv.layers
        fc1, relu1, fc2, relu2, fc3 = net.value_mlp.layers

        def norm(bn: BatchNorm2D, dy: np.ndarray) -> np.ndarray:
            tmp = prog.scratch("bn.tmp", dy.shape, dtype)
            out = prog.scratch("bn.out", dy.shape, dtype)
            x_hat, cache = saved[bn]
            prog.emit(bn.backward_into, dy, x_hat, cache, tmp, out)
            return out

        self.dlogits = np.empty((n, s), dtype)
        self.dvalue = np.empty(n, dtype)
        # value head
        g2 = np.empty((n, fc2.out_features), dtype)
        fc3.emit_backward(prog, self.dvalue[:, None], self.hidden2, g2)
        relu2.emit_backward(prog, g2, saved[relu2], g2)
        g1 = np.empty((n, fc1.out_features), dtype)
        fc2.emit_backward(prog, g2, self.hidden, g1)
        relu1.emit_backward(prog, g1, saved[relu1], g1)
        gv = np.empty((n, 1, h, w), dtype)
        fc1.emit_backward(prog, g1, self.value.reshape(n, s), gv.reshape(n, s))
        vrelu.emit_backward(prog, gv, saved[vrelu], gv)
        d_value_in = vconv.emit_backward(prog, norm(vbn, gv), saved[vconv])
        # policy head
        gp = np.empty((n, 2, h, w), dtype)
        pfc.emit_backward(prog, self.dlogits, self.policy.reshape(n, 2 * s), gp.reshape(n, 2 * s))
        prelu.emit_backward(prog, gp, saved[prelu], gp)
        # (c input channels here, c + 2 for the value conv: distinct scratch)
        d_trunk_out = pconv.emit_backward(prog, norm(pbn, gp), saved[pconv])
        grad = np.empty((n, c, h, w), dtype)
        prog.emit(np.add, d_trunk_out, d_value_in[:, :c], out=grad)
        # trunk, last block first
        between = np.empty((n, c, h, w), dtype)
        for block in reversed(tower.blocks):
            block.relu_out.emit_backward(prog, grad, saved[block.relu_out], grad)
            dx = block.conv2.emit_backward(prog, norm(block.bn2, grad), saved[block.conv2])
            block.relu1.emit_backward(prog, dx, saved[block.relu1], between)
            dx = block.conv1.emit_backward(prog, norm(block.bn1, between), saved[block.conv1])
            prog.emit(np.add, dx, grad, out=grad)  # skip connection
        stem_relu.emit_backward(prog, grad, saved[stem_relu], grad)
        stem.emit_backward(prog, norm(stem_bn, grad), saved[stem], input_grad=False)
        self.bwd = prog


def _interior(padded: np.ndarray) -> np.ndarray:
    """The activation inside a 3×3 conv's zero-bordered input buffer."""
    return padded[:, :, 1:-1, 1:-1]
