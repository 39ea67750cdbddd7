"""Batched inference engine: evaluate_batch equivalence, the fixed-tile
forward's batch-size invariance, deterministic sequential training, the
MCTS search against its reference loop, the transposition eval cache
under fault injection, and the configurable-dtype substrate."""

import numpy as np
import pytest

from repro.agent.actorcritic import ActorCriticTrainer
from repro.agent.network import NetworkConfig, PlaneView, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.agent.state import StateBuilder
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.mcts.node import Node
from repro.mcts.search import MCTSConfig, MCTSPlacer
from repro.nn.dtype import default_dtype, get_default_dtype
from repro.runtime.errors import FaultInjected
from repro.runtime.faults import Fault, FaultPlan, inject

REWARD = NormalizedReward(w_max=2000.0, w_min=500.0, w_avg=1200.0)


def _random_states(zeta, n, seed=0):
    rng = np.random.default_rng(seed)
    states = []
    for i in range(n):
        s_a = rng.random((zeta, zeta))
        s_a[s_a < 0.3] = 0.0  # some masked anchors
        states.append(PlaneView(rng.random((zeta, zeta)), s_a, i, n))
    return states


def _net(zeta=4, seed=0, dtype=None):
    net = PolicyValueNet(
        NetworkConfig(zeta=zeta, channels=4, res_blocks=1, seed=seed, dtype=dtype)
    )
    # Populate BN running stats so eval mode is meaningful.
    net.train(True)
    net.forward(np.random.default_rng(9).random((8, 3, zeta, zeta)).astype(net.dtype))
    return net


class TestEvaluateBatch:
    @pytest.mark.parametrize("was_training", [True, False])
    def test_batch_matches_sequential(self, was_training):
        """One batched forward == B single-state evaluates, from either
        train or eval mode (both run eval-mode BN and restore the mode)."""
        net = _net()
        net.train(was_training)
        states = _random_states(4, 6)
        probs_b, values_b = net.evaluate_batch(states)
        assert net.training == was_training
        for i, s in enumerate(states):
            p, v = net.evaluate(s.s_p, s.s_a, s.t, s.total_steps)
            # float32 forward: batched einsum reduction order differs from
            # B=1, so agreement is to single precision, not bitwise.
            np.testing.assert_allclose(probs_b[i], p, rtol=1e-4, atol=1e-7)
            assert values_b[i] == pytest.approx(v, rel=1e-3, abs=1e-6)

    def test_rows_sum_to_one_under_mask(self):
        net = _net()
        states = _random_states(4, 5, seed=3)
        probs, _ = net.evaluate_batch(states)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-9)
        for i, s in enumerate(states):
            masked = (s.s_a <= 0).ravel()
            assert probs[i][masked].sum() == 0.0

    def test_empty_batch(self):
        net = _net()
        probs, values = net.evaluate_batch([])
        assert probs.shape == (0, 16)
        assert values.shape == (0,)

    def test_single_element_batch_is_evaluate(self):
        """B=1 goes through the identical code path as evaluate()."""
        net = _net()
        (s,) = _random_states(4, 1, seed=5)
        p1, v1 = net.evaluate(s.s_p, s.s_a, s.t, s.total_steps)
        pb, vb = net.evaluate_batch([s])
        np.testing.assert_array_equal(p1, pb[0])
        assert float(vb[0]) == v1

    def test_tiled_forward_invariant_to_batch_size(self):
        """At a fixed tile a state's (logits, value) is identical whether
        it is forwarded alone or inside a larger batch."""
        net = _net()
        states = _random_states(4, 7, seed=4)
        logits_all, values_all = net.forward_eval_tiled(
            net.pack_planes_batch(states), 32
        )
        for i, s in enumerate(states):
            logits, v = net.forward_eval_tiled(net.pack_planes_batch([s]), 32)
            np.testing.assert_array_equal(logits_all[i], logits[0])
            assert values_all[i] == v[0]


class TestVectorizedRollouts:
    def _trainer(self, coarse, seed=0):
        env = MacroGroupPlacementEnv(coarse, cell_place_iters=1)
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=1))
        return ActorCriticTrainer(
            env, net, REWARD, lr=1e-3, update_every=2, rng=seed
        )

    def test_train_n1_bitwise_matches_across_instances(self, coarse_small):
        """Full train() is deterministic: equal to another trainer with the
        same seed, bit for bit."""
        import copy

        a = self._trainer(copy.deepcopy(coarse_small), seed=3)
        b = self._trainer(copy.deepcopy(coarse_small), seed=3)
        ha = a.train(4)
        hb = b.train(4)
        assert ha.rewards == hb.rewards
        assert ha.wirelengths == hb.wirelengths
        assert ha.losses == hb.losses
        for pa, pb in zip(a.network.parameters(), b.network.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


def _mcts_env_net(coarse):
    env = MacroGroupPlacementEnv(coarse, cell_place_iters=1)
    net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
    return env, net


def _reference_sequential_search(env, network, reward_fn, config):
    """The plain MCTS loop (no eval cache), kept here as the ground truth
    the search must reproduce."""
    placer = MCTSPlacer(env, network, reward_fn, config)
    root = Node(depth=0)
    builder = StateBuilder(env.coarse)
    placer._expand(root, builder, [])
    placer._eval_cache.clear()  # reference path never caches
    committed, committed_path = [], []
    current = root
    for _step in range(env.n_steps):
        if not current.expanded:
            b = StateBuilder(env.coarse)
            for a in committed:
                b.apply(a)
            placer._expand(current, b, list(committed))
            placer._eval_cache.clear()
        for _ in range(config.explorations):
            placer._explore(root, committed, committed_path, current)
            placer._eval_cache.clear()
        idx = current.most_visited_index()
        committed_path.append((current, idx))
        committed.append(int(current.actions[idx]))
        current = current.child_for(idx)
    return committed


class TestMCTSLeafBatching:
    def test_k1_reproduces_reference_path(self, coarse_small):
        import copy

        cfg = MCTSConfig(explorations=8, seed=0)
        env1, net = _mcts_env_net(copy.deepcopy(coarse_small))
        reference = _reference_sequential_search(env1, net, REWARD, cfg)
        env2, _ = _mcts_env_net(copy.deepcopy(coarse_small))
        result = MCTSPlacer(env2, net, REWARD, cfg).run()
        assert result.assignment == reference

    def test_search_stats_event_emitted(self, coarse_small):
        env, net = _mcts_env_net(coarse_small)
        placer = MCTSPlacer(env, net, REWARD, MCTSConfig(explorations=6, seed=0))
        result = placer.run()
        [stats] = placer.events.of("search_stats")
        assert stats.data["network_evaluations"] == result.n_network_evaluations
        assert stats.data["eval_cache_hits"] == result.n_eval_cache_hits
        assert stats.data["seconds_evaluation"] >= 0.0

    def test_eval_cache_survives_kill_and_resume(self, coarse_small):
        """mcts.kill mid-search: resuming from the last commit snapshot
        must finish with the same assignment as an uninterrupted run (eval
        cache included in the snapshot)."""
        import copy

        cfg = MCTSConfig(explorations=6, seed=0)
        env1, net = _mcts_env_net(copy.deepcopy(coarse_small))
        baseline = MCTSPlacer(env1, net, REWARD, cfg).run()

        snapshots = []
        env2, _ = _mcts_env_net(copy.deepcopy(coarse_small))
        placer = MCTSPlacer(
            env2, net, REWARD, cfg, on_commit=lambda s: snapshots.append(s)
        )
        with inject(FaultPlan(Fault("mcts.kill", at=3))):
            with pytest.raises(FaultInjected):
                placer.run()
        assert snapshots  # died after at least one commit

        env3, _ = _mcts_env_net(copy.deepcopy(coarse_small))
        resumed = MCTSPlacer(env3, net, REWARD, cfg).run(
            resume_state=snapshots[-1]
        )
        assert resumed.assignment == baseline.assignment
        assert resumed.wirelength == baseline.wirelength

    def test_old_snapshot_without_cache_keys_loads(self, coarse_small):
        """Snapshots from before the batching engine lack the eval-cache and
        counter keys; _restore_state must default them."""
        import copy

        cfg = MCTSConfig(explorations=4, seed=0)
        env1, net = _mcts_env_net(copy.deepcopy(coarse_small))
        snapshots = []
        MCTSPlacer(
            env1, net, REWARD, cfg, on_commit=lambda s: snapshots.append(s)
        ).run()
        legacy = dict(snapshots[0])
        for key in (
            "eval_cache", "n_eval_cache_hits",
            "seconds_selection", "seconds_evaluation", "seconds_terminal",
        ):
            legacy.pop(key, None)
        env2, _ = _mcts_env_net(copy.deepcopy(coarse_small))
        result = MCTSPlacer(env2, net, REWARD, cfg).run(resume_state=legacy)
        assert len(result.assignment) == env2.n_steps


class TestStateBuilderCaching:
    def test_observe_cached_until_mutation(self, coarse_small):
        builder = StateBuilder(coarse_small)
        s1 = builder.observe()
        assert builder.observe() is s1  # cache hit
        builder.apply(int(np.flatnonzero(s1.action_mask)[0]))
        s2 = builder.observe()
        assert s2 is not s1 and s2.t == 1

    def test_clone_matches_replay(self, coarse_small):
        builder = StateBuilder(coarse_small)
        actions = []
        for _ in range(min(2, builder.n_steps)):
            s = builder.observe()
            a = int(np.flatnonzero(s.action_mask)[0])
            actions.append(a)
            builder.apply(a)
        twin = builder.clone()
        replay = StateBuilder(coarse_small)
        for a in actions:
            replay.apply(a)
        np.testing.assert_array_equal(twin.occupancy, replay.occupancy)
        assert twin.t == replay.t
        if not twin.done():
            sa_twin = twin.observe()
            sa_replay = replay.observe()
            np.testing.assert_array_equal(sa_twin.s_a, sa_replay.s_a)
        # mutating the clone leaves the original untouched
        if not twin.done():
            twin.apply(int(np.flatnonzero(twin.observe().action_mask)[0]))
            assert builder.t == len(actions)

    def test_vectorized_availability_matches_reference_loop(self, coarse_small):
        """The sliding-window availability equals the per-anchor loop it
        replaced, bitwise (same reduction order)."""
        builder = StateBuilder(coarse_small)
        rng = np.random.default_rng(0)
        builder.occupancy = rng.random(builder.occupancy.shape) * 1.5
        builder._version += 1
        zeta = builder.plan.zeta
        for index in range(builder.n_steps):
            s_p = builder.s_p()
            s_m = builder._footprints[index]
            rows, cols = s_m.shape
            n = rows * cols
            expected = np.zeros((zeta, zeta))
            for r in range(zeta - rows + 1):
                for c in range(zeta - cols + 1):
                    window = s_p[r : r + rows, c : c + cols]
                    terms = (1.0 - s_m) * (1.0 - window)
                    prod = float(np.prod(np.clip(terms, 0.0, None)))
                    expected[r, c] = prod ** (1.0 / n) if prod > 0 else 0.0
            got = builder.availability(index)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


class TestDtypeSubstrate:
    def test_default_is_float32(self):
        assert get_default_dtype() == np.float32
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1))
        assert all(p.data.dtype == np.float32 for p in net.parameters())

    def test_context_manager_scopes_float64(self):
        with default_dtype("float64"):
            net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1))
            assert all(p.data.dtype == np.float64 for p in net.parameters())
        assert get_default_dtype() == np.float32

    def test_network_config_dtype_override(self):
        net = PolicyValueNet(
            NetworkConfig(zeta=4, channels=4, res_blocks=1, dtype="float64")
        )
        assert net.dtype == np.float64
        assert all(p.data.dtype == np.float64 for p in net.parameters())

    def test_checkpoint_loads_across_dtypes(self, tmp_path):
        """float64-trained weights load into a float32 network (and back),
        with outputs agreeing to float32 precision."""
        from repro.nn.serialization import load_params, save_params

        cfg64 = NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=2, dtype="float64")
        cfg32 = NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=5, dtype="float32")
        net64 = PolicyValueNet(cfg64)
        x = np.random.default_rng(0).random((2, 3, 4, 4))
        net64.forward(x)  # populate BN stats
        path = str(tmp_path / "w.npz")
        save_params(net64, path)

        net32 = PolicyValueNet(cfg32)
        load_params(net32, path)
        assert all(p.data.dtype == np.float32 for p in net32.parameters())
        net64.eval(), net32.eval()
        l64, v64 = net64.forward(x)
        l32, v32 = net32.forward(x.astype(np.float32))
        np.testing.assert_allclose(l32, l64, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(v32, v64, rtol=1e-3, atol=1e-4)

    def test_float32_conv_scratch_reused_in_eval(self):
        from repro.nn.layers import Conv2D

        conv = Conv2D(2, 3, kernel=3, rng=0)
        conv.eval()
        x = np.random.default_rng(1).random((2, 2, 4, 4)).astype(np.float32)
        conv(x)
        [first] = conv._scratch.values()
        conv(x)
        [second] = conv._scratch.values()
        assert np.shares_memory(first, second)  # same buffer, no realloc
