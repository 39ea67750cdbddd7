"""The network's execution plans against the layer path they replace.

``PolicyValueNet`` runs every pass through a plan built once per input
shape (``agent/network.py``).  The layer classes keep their own
``forward``/``backward``; composed here the way the network composed them
before the plans, they are the oracle: logits, values, every parameter
gradient and the BN running statistics must match byte for byte.
"""

import numpy as np
import pytest

from repro.agent.actorcritic import ActorCriticTrainer, Snapshot
from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.nn.optim import Adam
from repro.nn.serialization import _batchnorms, load_params, save_params


def _layer_forward(net, x):
    """The layer path: trunk, both heads, value input = trunk ++ s_p ++ t."""
    trunk_out = net.trunk(x)
    logits = net.policy_head(trunk_out)
    value_in = np.concatenate([trunk_out, x[:, 0:1], x[:, 2:3]], axis=1)
    v_raw = net.value_mlp(net.value_conv(value_in))[:, 0]
    v = np.tanh(v_raw) if net.config.value_tanh else v_raw
    return logits, v


def _layer_backward(net, v, dlogits, dvalue):
    dv_raw = dvalue * (1.0 - v**2) if net.config.value_tanh else dvalue
    d_value_in = net.value_conv.backward(net.value_mlp.backward(dv_raw[:, None]))
    d_trunk = net.policy_head.backward(dlogits) + d_value_in[:, : net.config.channels]
    net.trunk.backward(d_trunk)


def _layer_eval(net, x):
    was_training = net.training
    net.eval()
    try:
        return _layer_forward(net, x)
    finally:
        net.train(was_training)


def _pair(config):
    """Two identical networks: one runs the plans, one the layer path."""
    return PolicyValueNet(config), PolicyValueNet(config)


def _assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _assert_same_state(plan_net, ref_net):
    for p, q in zip(plan_net.parameters(), ref_net.parameters()):
        _assert_same_bytes(p.data, q.data, p.name)
        _assert_same_bytes(p.grad, q.grad, p.name + ".grad")
    for a, b in zip(_batchnorms(plan_net), _batchnorms(ref_net)):
        _assert_same_bytes(a.running_mean, b.running_mean, "running_mean")
        _assert_same_bytes(a.running_var, b.running_var, "running_var")


def _inputs(rng, n, zeta, dtype):
    x = rng.random((n, 3, zeta, zeta)).astype(dtype)
    x[:, 0][x[:, 0] < 0.2] = 0.0  # empty grid cells, as real s_p planes have
    return x


def _train_steps(plan_net, ref_net, rng, batches, grad_dtype=None):
    """Forward, backward and an Adam step on both networks per batch size,
    checking outputs, gradients, parameters and BN statistics."""
    opts = Adam(plan_net.parameters(), lr=1e-2), Adam(ref_net.parameters(), lr=1e-2)
    zeta = plan_net.config.zeta
    for n in batches:
        x = _inputs(rng, n, zeta, plan_net.dtype)
        logits, v = plan_net.forward(x)
        ref_logits, ref_v = _layer_forward(ref_net, x)
        _assert_same_bytes(logits, ref_logits, "logits")
        _assert_same_bytes(v, ref_v, "value")
        dtype = grad_dtype or plan_net.dtype
        dlogits = (rng.normal(size=logits.shape) / n).astype(dtype)
        dlogits[:, ::5] = -0.0  # signed zeros flow through unchanged
        dvalue = (rng.normal(size=n) / n).astype(dtype)
        for opt in opts:
            opt.zero_grad()
        plan_net.backward(dlogits, dvalue)
        _layer_backward(ref_net, ref_v, dlogits, dvalue)
        _assert_same_state(plan_net, ref_net)
        for opt in opts:
            opt.step()
        _assert_same_state(plan_net, ref_net)


TOPOLOGIES = {
    "fast": NetworkConfig(zeta=8, channels=8, res_blocks=1, seed=1),
    "benchmark": NetworkConfig(zeta=8, channels=16, res_blocks=2, seed=2),
    "odd": NetworkConfig(zeta=5, channels=3, res_blocks=3, value_hidden=7, seed=3),
}


class TestTrainingPlan:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("value_tanh", [False, True])
    def test_steps_match_layer_path(self, topology, dtype, value_tanh):
        from dataclasses import replace

        config = replace(TOPOLOGIES[topology], dtype=dtype, value_tanh=value_tanh)
        plan_net, ref_net = _pair(config)
        rng = np.random.default_rng(7)
        # same batch for several steps (one plan), then new shapes
        _train_steps(plan_net, ref_net, rng, [147, 147, 147, 5, 1, 5])

    def test_float64_gradients_into_float32_network(self):
        """The iterative trainer backprops float64 gradients through a
        float32 network; the whole pass then runs in float64."""
        plan_net, ref_net = _pair(TOPOLOGIES["benchmark"])
        _train_steps(plan_net, ref_net, np.random.default_rng(3), [12, 12, 4], "float64")

    def test_float64_input_into_float32_network(self):
        plan_net, ref_net = _pair(TOPOLOGIES["fast"])
        rng = np.random.default_rng(4)
        x = rng.random((6, 3, 8, 8))  # float64
        logits, v = plan_net.forward(x)
        ref_logits, ref_v = _layer_forward(ref_net, x)
        _assert_same_bytes(logits, ref_logits, "logits")
        _assert_same_bytes(v, ref_v, "value")
        dlogits, dvalue = rng.normal(size=logits.shape), rng.normal(size=6)
        plan_net.zero_grad(), ref_net.zero_grad()
        plan_net.backward(dlogits, dvalue)
        _layer_backward(ref_net, ref_v, dlogits, dvalue)
        _assert_same_state(plan_net, ref_net)

    def test_eval_mode_forward_and_backward(self):
        """In eval mode forward normalizes with the running statistics and
        backward takes the frozen-statistics BN gradient."""
        plan_net, ref_net = _pair(TOPOLOGIES["benchmark"])
        rng = np.random.default_rng(5)
        _train_steps(plan_net, ref_net, rng, [16])
        plan_net.eval(), ref_net.eval()
        _train_steps(plan_net, ref_net, rng, [16, 16, 3])

    def test_backward_needs_a_forward(self):
        net = PolicyValueNet(TOPOLOGIES["fast"])
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 64)), np.zeros(1))

    def test_paper_topology(self):
        """ζ=16, 128 channels, 10 blocks: one training step and an eval."""
        plan_net, ref_net = _pair(NetworkConfig.paper())
        rng = np.random.default_rng(6)
        _train_steps(plan_net, ref_net, rng, [2])
        x = _inputs(rng, 1, 16, plan_net.dtype)
        for got, want in zip(plan_net.forward_eval(x), _layer_eval(ref_net, x)):
            _assert_same_bytes(got, want, "eval")


class TestEvalPlan:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("value_tanh", [False, True])
    def test_matches_layer_path(self, topology, dtype, value_tanh):
        from dataclasses import replace

        config = replace(TOPOLOGIES[topology], dtype=dtype, value_tanh=value_tanh)
        plan_net, ref_net = _pair(config)
        rng = np.random.default_rng(8)
        _train_steps(plan_net, ref_net, rng, [20, 20])  # meaningful BN stats
        for training in (True, False):  # forward_eval ignores the mode
            plan_net.train(training), ref_net.train(training)
            for n in (1, 1, 3, 1):
                for _ in range(5):
                    x = _inputs(rng, n, config.zeta, plan_net.dtype)
                    logits, v = plan_net.forward_eval(x)
                    ref_logits, ref_v = _layer_eval(ref_net, x)
                    _assert_same_bytes(logits, ref_logits, "logits")
                    _assert_same_bytes(v, ref_v, "value")
                assert plan_net.training == training

    def test_outputs_are_not_plan_buffers(self):
        """Callers keep returned arrays; the next run must not touch them."""
        net = PolicyValueNet(TOPOLOGIES["fast"])
        rng = np.random.default_rng(9)
        logits, v = net.forward_eval(_inputs(rng, 1, 8, net.dtype))
        kept = logits.copy(), v.copy()
        net.forward_eval(_inputs(rng, 1, 8, net.dtype))
        assert logits.tobytes() == kept[0].tobytes() and v.tobytes() == kept[1].tobytes()

    def test_sees_in_place_weight_updates(self, tmp_path):
        """load_params, copy-in restores and optimizer steps write the
        arrays a plan holds views of: a plan built before them sees them."""
        plan_net, ref_net = _pair(TOPOLOGIES["benchmark"])
        rng = np.random.default_rng(10)
        x = _inputs(rng, 1, 8, plan_net.dtype)
        plan_net.forward_eval(x)
        plan_net.forward(_inputs(rng, 8, 8, plan_net.dtype))

        donor = PolicyValueNet(NetworkConfig(zeta=8, channels=16, res_blocks=2, seed=11))
        donor.forward(_inputs(rng, 8, 8, donor.dtype))  # non-trivial BN stats
        path = str(tmp_path / "w.npz")
        save_params(donor, path)
        load_params(plan_net, path)
        load_params(ref_net, path)
        for got, want in zip(plan_net.forward_eval(x), _layer_eval(ref_net, x)):
            _assert_same_bytes(got, want, "after load_params")

        snap = Snapshot(
            episode=0,
            params=[p.data.copy() for p in donor.parameters()],
            bn_stats=[
                (bn.running_mean.copy(), bn.running_var.copy())
                for bn in _batchnorms(donor)
            ],
        )
        _train_steps(plan_net, ref_net, rng, [8])
        ActorCriticTrainer.restore(plan_net, snap)
        ActorCriticTrainer.restore(ref_net, snap)
        for got, want in zip(plan_net.forward_eval(x), _layer_eval(ref_net, x)):
            _assert_same_bytes(got, want, "after restore")
        _train_steps(plan_net, ref_net, rng, [8, 8])

    def test_copies_build_their_own_plans(self):
        import copy
        import pickle

        net = PolicyValueNet(TOPOLOGIES["fast"])
        rng = np.random.default_rng(12)
        x = _inputs(rng, 1, 8, net.dtype)
        net.forward_eval(x)
        for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert twin._eval_plan is None
            twin.parameters()[0].data[...] = 0.0
            for got, want in zip(twin.forward_eval(x), _layer_eval(twin, x)):
                _assert_same_bytes(got, want, "copy")
        for got, want in zip(net.forward_eval(x), _layer_eval(net, x)):
            _assert_same_bytes(got, want, "original")
