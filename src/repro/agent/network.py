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
    ReLU,
    Sequential,
)
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
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (logits (N, ζ²), value (N,)).

        The value head is linear by default (``config.value_tanh`` enables a
        bounded tanh variant for ablation).
        """
        trunk_out = self.trunk(x)
        logits = self.policy_head(trunk_out)
        value_in = np.concatenate([trunk_out, x[:, 0:1], x[:, 2:3]], axis=1)
        v_feat = self.value_conv(value_in)
        v_raw = self.value_mlp(v_feat)[:, 0]
        v = np.tanh(v_raw) if self.config.value_tanh else v_raw
        self._cache = (x.shape, v)
        return logits, v

    def backward(
        self, dlogits: np.ndarray, dvalue: np.ndarray
    ) -> np.ndarray:
        """Backprop both heads; *dvalue* has shape (N,)."""
        x_shape, v = self._cache
        if self.config.value_tanh:
            dv_raw = dvalue * (1.0 - v**2)  # through tanh
        else:
            dv_raw = dvalue
        d_vfeat = self.value_mlp.backward(dv_raw[:, None])
        d_value_in = self.value_conv.backward(d_vfeat)
        ch = self.config.channels
        d_trunk_from_value = d_value_in[:, :ch]
        d_trunk_from_policy = self.policy_head.backward(dlogits)
        return self.trunk.backward(d_trunk_from_policy + d_trunk_from_value)

    # -- convenience -------------------------------------------------------------
    def evaluate(
        self, s_p: np.ndarray, s_a: np.ndarray, t: int, total_steps: int
    ) -> tuple[np.ndarray, float]:
        """Inference for one state: (masked probabilities (ζ²,), value).

        Uses eval-mode batch-norm statistics and restores the previous mode.
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
        matching the single-state path).  The previous train/eval mode is
        restored on exit.
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
        """One eval-mode forward, restoring the previous train/eval mode."""
        was_training = self.training
        if was_training:  # avoid two full layer-tree walks per call when
            self.eval()  # the network already sits in eval mode
        try:
            return self.forward(x)
        finally:
            if was_training:
                self.train(True)

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
        was_training = self.training
        if was_training:
            self.eval()
        try:
            for start in range(0, n, tile):
                chunk = x[start : start + tile]
                rows = len(chunk)
                if rows < tile:
                    pad = np.zeros(
                        (tile - rows,) + chunk.shape[1:], dtype=chunk.dtype
                    )
                    chunk = np.concatenate([chunk, pad], axis=0)
                logits, v = self.forward(chunk)
                out_logits.append(logits[:rows])
                out_v.append(v[:rows])
        finally:
            if was_training:
                self.train(True)
        return np.concatenate(out_logits), np.concatenate(out_v)
