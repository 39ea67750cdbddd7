"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.reward import NormalizedReward
from repro.agent.state import group_utilization
from repro.grid.plan import GridPlan
from repro.legalize.lp_spread import pack_longest_path
from repro.legalize.sequence_pair import extract_sequence_pair
from repro.mcts.node import Node
from repro.netlist.model import PlacementRegion
from repro.nn.functional import masked_softmax, softmax


class TestRewardProperties:
    @given(
        st.floats(1.0, 1e6),
        st.floats(0.0, 1e6),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60)
    def test_monotone_decreasing_in_wirelength(self, w_min, spread, frac, alpha):
        """Shorter wirelength never yields a smaller reward."""
        w_max = w_min + spread + 1e-6
        w_avg = w_min + frac * (w_max - w_min)
        r = NormalizedReward(w_max=w_max, w_min=w_min, w_avg=w_avg, alpha=alpha)
        assert r(w_min) >= r(w_max)
        mid = (w_min + w_max) / 2
        assert r(w_min) >= r(mid) >= r(w_max)

    @given(st.floats(0.5, 1.0))
    @settings(max_examples=30)
    def test_alpha_band_keeps_sampled_range_nonnegative(self, alpha):
        """Paper claim: with α ∈ [0.5, 1], rewards for wirelengths inside the
        calibration band stay above zero-ish (≥ α − 1 ≥ −0.5, and the
        average maps exactly to α > 0)."""
        r = NormalizedReward(w_max=300.0, w_min=100.0, w_avg=200.0, alpha=alpha)
        assert r(200.0) == pytest.approx(alpha)
        assert r(300.0) >= alpha - 1.0


class TestStateProperties:
    @given(st.floats(0.5, 120.0), st.floats(0.5, 120.0))
    @settings(max_examples=50, deadline=None)
    def test_footprint_conserves_area(self, w, h):
        """Σ s_m · grid_area equals the rectangle's area (capped at 1/grid)."""
        plan = GridPlan(PlacementRegion(0, 0, 160, 160), zeta=16)
        u = group_utilization(plan, w, h)
        w_c = min(w, plan.zeta * plan.cell_width)
        h_c = min(h, plan.zeta * plan.cell_height)
        assert u.sum() * plan.cell_area == pytest.approx(w_c * h_c, rel=1e-9)
        assert (u <= 1.0 + 1e-12).all()
        assert (u >= 0.0).all()


class TestSequencePairProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 10_000))
    def test_packing_respects_all_edges(self, n, seed):
        """Longest-path packing satisfies every constraint edge."""
        rng = np.random.default_rng(seed)
        xs, ys = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
        ws, hs = rng.uniform(1, 10, n), rng.uniform(1, 10, n)
        sp = extract_sequence_pair(xs, ys, ws, hs)
        h_edges, v_edges = sp.relations()
        px = pack_longest_path(ws, h_edges, lo=0.0)
        for a, b in h_edges:
            assert px[a] + ws[a] <= px[b] + 1e-9
        py = pack_longest_path(hs, v_edges, lo=0.0)
        for a, b in v_edges:
            assert py[a] + hs[a] <= py[b] + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 10_000))
    def test_packed_layout_is_overlap_free(self, n, seed):
        """Packing x and y from one sequence pair removes all overlap —
        the guarantee Sec. II-B's step 3 relies on."""
        rng = np.random.default_rng(seed)
        xs, ys = rng.uniform(0, 20, n), rng.uniform(0, 20, n)  # overlapping
        ws, hs = rng.uniform(1, 10, n), rng.uniform(1, 10, n)
        sp = extract_sequence_pair(xs, ys, ws, hs)
        h_edges, v_edges = sp.relations()
        px = pack_longest_path(ws, h_edges, lo=0.0)
        py = pack_longest_path(hs, v_edges, lo=0.0)
        for i in range(n):
            for j in range(i + 1, n):
                sep_x = px[i] + ws[i] <= px[j] + 1e-9 or px[j] + ws[j] <= px[i] + 1e-9
                sep_y = py[i] + hs[i] <= py[j] + 1e-9 or py[j] + hs[j] <= py[i] + 1e-9
                assert sep_x or sep_y, f"rectangles {i},{j} overlap"


class TestSoftmaxProperties:
    @given(
        st.lists(st.floats(-20, 20), min_size=2, max_size=12),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_masked_softmax_is_distribution(self, logits, mask_bits):
        logits = np.asarray(logits)
        mask = np.array(
            [(mask_bits >> i) & 1 for i in range(len(logits))], dtype=float
        )
        p = masked_softmax(logits, mask)
        assert p.sum() == pytest.approx(1.0)
        assert (p >= 0).all()
        if mask.any():
            assert (p[mask == 0] == 0).all()

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=12))
    @settings(max_examples=40)
    def test_full_mask_equals_plain_softmax(self, logits):
        logits = np.asarray(logits)
        np.testing.assert_allclose(
            masked_softmax(logits, np.ones_like(logits)),
            softmax(logits),
            rtol=1e-9,
        )


class TestPUCTProperties:
    def _node(self, rng, n):
        node = Node(depth=0)
        node.actions = np.arange(n, dtype=np.int64)
        prior = rng.random(n) + 1e-6
        node.prior = prior / prior.sum()
        node.visit = rng.integers(0, 20, n).astype(float)
        node.total_value = rng.normal(size=n) * node.visit
        node.expanded = True
        return node

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 10_000))
    def test_q_between_min_max_observed(self, n, seed):
        rng = np.random.default_rng(seed)
        node = self._node(rng, n)
        q = node.q_values()
        visited = node.visit > 0
        if visited.any():
            mean_values = node.total_value[visited] / node.visit[visited]
            np.testing.assert_allclose(q[visited], mean_values)
        assert (q[~visited] == 0).all()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 24),
        st.lists(
            st.tuples(
                st.sampled_from(["record", "record", "select", "noise", "replace"]),
                st.integers(0, 2**32 - 1),
            ),
            max_size=80,
        ),
    )
    def test_incremental_puct_equals_from_scratch(self, n, ops):
        """Selection reads Q, 1 + N, ΣN and c·P kept in step with record():
        after any run of records, root noise and array replacements,
        select_child_index, puct_scores and q_values equal the from-scratch
        Eq. 10–12 formulas byte for byte."""

        def from_scratch(node, c):
            with np.errstate(invalid="ignore", divide="ignore"):
                q = np.where(
                    node.visit > 0, node.total_value / np.maximum(node.visit, 1), 0.0
                )
            sqrt_total = np.sqrt(max(node.visit.sum(), 1e-12))
            return q, q + c * node.prior * sqrt_total / (1.0 + node.visit)

        node = self._node(np.random.default_rng(n), n)
        c = 1.05
        for op, seed in ops + [("select", 0)]:
            rng = np.random.default_rng(seed)
            if op == "record":
                node.record(int(rng.integers(0, n)), float(rng.normal()))
            elif op == "noise":  # MCTSPlacer._apply_root_noise
                node.prior = 0.75 * node.prior + 0.25 * rng.dirichlet(np.full(n, 0.3))
            elif op == "replace":  # MCTSPlacer._attach, or a restored tree
                node.visit = rng.integers(0, 20, n).astype(float)
                node.total_value = rng.normal(size=n) * node.visit
            else:
                c = float(rng.choice([1.05, 1e-3, 4.0]))
                q, scores = from_scratch(node, c)
                assert node.select_child_index(c) == int(np.argmax(scores))
                assert node.puct_scores(c).tobytes() == scores.tobytes()
                assert node.q_values().tobytes() == q.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 10_000))
    def test_recording_increases_visit_mass(self, n, seed):
        rng = np.random.default_rng(seed)
        node = self._node(rng, n)
        before = node.visit.sum()
        node.record(int(rng.integers(0, n)), 0.5)
        assert node.visit.sum() == before + 1
