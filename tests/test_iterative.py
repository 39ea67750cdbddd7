"""Tests for the AlphaZero-style iterative extension."""

import numpy as np
import pytest

from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.mcts.iterative import IterativeMCTSTrainer
from repro.mcts.search import MCTSConfig


@pytest.fixture
def trainer(coarse_small):
    env = MacroGroupPlacementEnv(coarse_small, cell_place_iters=1)
    net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
    reward_fn = NormalizedReward(w_max=2000.0, w_min=500.0, w_avg=1200.0)
    return IterativeMCTSTrainer(
        env, net, reward_fn, MCTSConfig(explorations=4), train_epochs=1
    )


class TestIterativeLoop:
    def test_history_lengths(self, trainer):
        history = trainer.train(2)
        assert len(history.wirelengths) == 2
        assert len(history.losses) == 2
        assert len(history.terminal_evaluations) == 2

    def test_rewards_match_reward_fn(self, trainer):
        history = trainer.train(1)
        assert history.rewards[0] == pytest.approx(
            trainer.reward_fn(history.wirelengths[0])
        )

    def test_parameters_change(self, trainer):
        before = [p.data.copy() for p in trainer.network.parameters()]
        trainer.train(1)
        assert any(
            not np.allclose(b, p.data)
            for b, p in zip(before, trainer.network.parameters())
        )

    def test_each_round_does_terminal_work(self, trainer):
        """The cost asymmetry the paper argues: every iterative round needs
        at least one real legalize-and-place evaluation."""
        history = trainer.train(2)
        assert all(n >= 1 for n in history.terminal_evaluations)

    def test_samples_have_visit_distributions(self, trainer):
        samples, wirelength, _ = trainer._collect_round(seed=0)
        assert len(samples) == trainer.env.n_steps
        for s in samples:
            assert s.pi.sum() == pytest.approx(1.0)
            assert (s.pi >= 0).all()
            assert s.z == pytest.approx(
                trainer.reward_fn(wirelength)
            )

    def test_best_wirelength(self, trainer):
        history = trainer.train(2)
        assert history.best_wirelength() == min(history.wirelengths)

    def test_fixed_seed_history_pinned(self, trainer):
        """Two rounds from fixed seeds give these exact values; the samples
        are read inside ``MCTSPlacer.run``'s commit callback, at commit
        time, so later explorations cannot change their visit counts."""
        history = trainer.train(2)
        assert history.wirelengths == [507.97636849304706, 532.5558073270221]
        assert history.rewards == [1.211349087671302, 1.1949627951153186]
        assert history.losses == [4.103902458990147, 2.677595308778561]
        assert history.terminal_evaluations == [1, 1]
        assert history.exact_evaluations == [1, 1]
