"""Weight (de)serialization for checkpointing agents.

Checkpoints matter to the Fig. 5 experiment: MCTS is launched from agents
captured at successive training stages.  Weights are stored as an ``.npz``
archive keyed ``p{i}`` in :meth:`Layer.parameters` order; batch-norm running
statistics are included when the object exposes them via ``bn_state()``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import BatchNorm2D, Layer


def _batchnorms(layer: Layer) -> list[BatchNorm2D]:
    found: list[BatchNorm2D] = []
    if isinstance(layer, BatchNorm2D):
        found.append(layer)
    for child in layer.children():
        found.extend(_batchnorms(child))
    return found


def save_params(layer: Layer, path) -> None:
    """Write all parameters and BN running stats of *layer* to *path* (an
    ``.npz`` file name or a writable binary file object)."""
    arrays: dict[str, np.ndarray] = {}
    for i, p in enumerate(layer.parameters()):
        arrays[f"p{i}"] = p.data
    for j, bn in enumerate(_batchnorms(layer)):
        arrays[f"bn{j}_mean"] = bn.running_mean
        arrays[f"bn{j}_var"] = bn.running_var
    np.savez(path, **arrays)


def load_params(layer: Layer, path: str) -> None:
    """Restore parameters saved by :func:`save_params` (shapes must match).

    Checkpoints are dtype-portable: arrays saved from a float64 network
    load into a float32 one and vice versa — values are cast into each
    parameter's existing buffer, so the live network keeps the precision
    it was constructed with (see :mod:`repro.nn.dtype`).
    """
    with np.load(path) as data:
        for i, p in enumerate(layer.parameters()):
            arr = data[f"p{i}"]
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"parameter {i} shape mismatch: saved {arr.shape}, "
                    f"expected {p.data.shape}"
                )
            p.data[...] = arr
        for j, bn in enumerate(_batchnorms(layer)):
            bn.running_mean[...] = data[f"bn{j}_mean"]
            bn.running_var[...] = data[f"bn{j}_var"]


def optimizer_state(opt) -> dict:
    """Snapshot an optimizer's moment estimates for checkpoint/resume.

    Supports the Adam/SGD classes of :mod:`repro.nn.optim`; returns deep
    copies so later steps cannot mutate a stored snapshot.
    """
    state: dict = {}
    if hasattr(opt, "_m"):
        state["m"] = [m.copy() for m in opt._m]
        state["v"] = [v.copy() for v in opt._v]
        state["t"] = opt._t
    if hasattr(opt, "_velocity"):
        state["velocity"] = [v.copy() for v in opt._velocity]
    return state


def restore_optimizer(opt, state: dict) -> None:
    """Restore a snapshot from :func:`optimizer_state` (same topology)."""
    if "m" in state:
        for dst, src in zip(opt._m, state["m"]):
            dst[...] = src
        for dst, src in zip(opt._v, state["v"]):
            dst[...] = src
        opt._t = state["t"]
    if "velocity" in state:
        for dst, src in zip(opt._velocity, state["velocity"]):
            dst[...] = src


def copy_params(src: Layer, dst: Layer) -> None:
    """Copy parameters and BN stats from *src* into *dst* (same topology)."""
    src_params = src.parameters()
    dst_params = dst.parameters()
    if len(src_params) != len(dst_params):
        raise ValueError("layer topologies differ")
    for ps, pd in zip(src_params, dst_params):
        pd.data[...] = ps.data
    for bs, bd in zip(_batchnorms(src), _batchnorms(dst)):
        bd.running_mean[...] = bs.running_mean
        bd.running_var[...] = bs.running_var
