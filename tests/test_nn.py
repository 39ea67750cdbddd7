"""Neural-network substrate tests: functional ops, layers (with numerical
gradient checks), blocks, optimizers, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.blocks import ResBlock, ResTower
from repro.nn.dtype import default_dtype
from repro.nn.functional import col2im, col2im_padded, im2col, masked_softmax, softmax
from repro.nn.layers import (
    BatchNorm2D,
    Conv2D,
    Flatten,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.optim import SGD, Adam, clip_gradients
from repro.nn.serialization import copy_params, load_params, save_params

RNG = np.random.default_rng(42)


@pytest.fixture(autouse=True, scope="module")
def _float64_substrate():
    """Numeric grad checks (eps=1e-6) and the 1e-9-tight optimizer
    assertions need float64 parameters; the library default is float32."""
    with default_dtype("float64"):
        yield


def numeric_grad_check(net, x, n_param_probes=4, eps=1e-6, tol=1e-4):
    """Compare analytic grads against central differences on random entries.

    Returns the max relative error over probed parameter entries and input
    entries.  Parameters whose analytic gradient is ~0 are skipped (e.g. a
    conv bias feeding a BatchNorm — mathematically zero-effect).
    """
    dy = RNG.normal(size=net(x).shape)

    def loss():
        return float((net(x) * dy).sum())

    net.zero_grad()
    net(x)
    dx = net.backward(dy)
    max_err = 0.0
    for p in net.parameters():
        flat, gflat = p.data.ravel(), p.grad.ravel()
        for k in RNG.choice(len(flat), size=min(n_param_probes, len(flat)), replace=False):
            if abs(gflat[k]) < 1e-8:
                continue
            orig = flat[k]
            flat[k] = orig + eps
            lp = loss()
            flat[k] = orig - eps
            lm = loss()
            flat[k] = orig
            num = (lp - lm) / (2 * eps)
            max_err = max(
                max_err, abs(num - gflat[k]) / (abs(num) + abs(gflat[k]) + 1e-8)
            )
    xf, dxf = x.ravel(), dx.ravel()
    for k in RNG.choice(len(xf), size=min(4, len(xf)), replace=False):
        if abs(dxf[k]) < 1e-8:
            continue
        orig = xf[k]
        xf[k] = orig + eps
        lp = loss()
        xf[k] = orig - eps
        lm = loss()
        xf[k] = orig
        num = (lp - lm) / (2 * eps)
        max_err = max(max_err, abs(num - dxf[k]) / (abs(num) + abs(dxf[k]) + 1e-8))
    assert max_err < tol, f"gradient mismatch: {max_err:.2e}"


def _reference_im2col(x, kernel, pad):
    """``im2col`` as ``np.pad`` plus one slice copy per kernel tap: the oracle."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    shape = (n, c * kernel * kernel, h * w)
    cols = np.empty((n, c, kernel, kernel, h, w), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = xp[:, :, i : i + h, j : j + w]
    return cols.reshape(*shape)


class TestFunctional:
    def test_im2col_shape(self):
        x = RNG.normal(size=(2, 3, 5, 5))
        cols = im2col(x, kernel=3, pad=1)
        assert cols.shape == (2, 27, 25)

    def test_im2col_center_tap_identity(self):
        x = RNG.normal(size=(1, 1, 4, 4))
        cols = im2col(x, kernel=3, pad=1)
        center = cols[:, 4, :].reshape(1, 1, 4, 4)  # middle of 3x3 window
        np.testing.assert_allclose(center, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1, 1), (2, 3, 5, 7), (4, 16, 8, 8), (3, 2, 1, 9)]
    )
    def test_im2col_matches_reference_bytes(self, shape, kernel, dtype):
        x = np.random.default_rng(kernel).normal(size=shape).astype(dtype)
        x[..., 0, 0] = -0.0  # signed zeros survive the copy
        pad = kernel // 2
        want = _reference_im2col(x, kernel, pad)
        got = im2col(x, kernel, pad)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_im2col_non_contiguous_input(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 8))[:, :, ::2, 1::2]
        assert im2col(x, 3, 1).tobytes() == _reference_im2col(x, 3, 1).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1, 1), (2, 3, 5, 7), (4, 16, 8, 8), (3, 2, 1, 9)]
    )
    def test_col2im_padded_matches_col2im_bytes(self, shape, kernel, dtype):
        """The padded-width layout -- the column gemm over dy padded on the
        right to width W+k−1, then one contiguous run per tap -- gives
        col2im's bytes, gemm included."""
        rng = np.random.default_rng(kernel)
        n, c, h, w = shape
        o, pad, wp = 4, kernel // 2, w + kernel - 1
        weight = rng.normal(size=(o, c * kernel * kernel)).astype(dtype)
        dy = rng.normal(size=(n, o, h, w)).astype(dtype)
        dy[dy < -0.5] = -0.0
        want = col2im(weight.T @ dy.reshape(n, o, h * w), shape, kernel, pad)
        dy_pad = np.zeros((n, o, h, wp), dtype)
        dy_pad[..., :w] = dy
        cols = weight.T @ dy_pad.reshape(n, o, h * wp)
        out = np.full((n, c, h + kernel - 1, wp), np.nan, dtype)
        got = col2im_padded(cols, out, kernel)[:, :, pad : pad + h, pad : pad + w]
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        x = RNG.normal(size=(2, 3, 6, 6))
        y = RNG.normal(size=(2, 27, 36))
        lhs = float((im2col(x, 3, 1) * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_softmax_normalizes(self):
        p = softmax(RNG.normal(size=(4, 10)))
        np.testing.assert_allclose(p.sum(axis=-1), 1.0)
        assert (p > 0).all()

    def test_softmax_stability_large_logits(self):
        p = softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.isfinite(p).all()

    def test_masked_softmax_zeroes_masked(self):
        logits = np.array([1.0, 2.0, 3.0])
        mask = np.array([1.0, 0.0, 1.0])
        p = masked_softmax(logits, mask)
        assert p[1] == 0.0
        assert p.sum() == pytest.approx(1.0)

    def test_masked_softmax_all_masked_uniform(self):
        p = masked_softmax(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(p, [0.5, 0.5])

    def test_masked_softmax_proportional_to_mask(self):
        logits = np.zeros(3)
        mask = np.array([1.0, 2.0, 1.0])
        p = masked_softmax(logits, mask)
        assert p[1] == pytest.approx(0.5)


class TestLayerGradients:
    def test_conv2d(self):
        numeric_grad_check(
            Sequential(Conv2D(2, 3, kernel=3, rng=1)), RNG.normal(size=(2, 2, 5, 5))
        )

    def test_conv2d_1x1(self):
        numeric_grad_check(
            Sequential(Conv2D(4, 2, kernel=1, rng=2)), RNG.normal(size=(2, 4, 4, 4))
        )

    def test_batchnorm(self):
        numeric_grad_check(
            Sequential(Conv2D(2, 3, rng=3), BatchNorm2D(3)),
            RNG.normal(size=(3, 2, 4, 4)),
        )

    def test_linear(self):
        numeric_grad_check(
            Sequential(Flatten(), Linear(18, 4, rng=4)), RNG.normal(size=(3, 2, 3, 3))
        )

    def test_relu_chain(self):
        numeric_grad_check(
            Sequential(Conv2D(2, 2, rng=5), ReLU(), Conv2D(2, 1, rng=6)),
            RNG.normal(size=(2, 2, 4, 4)),
        )

    def test_resblock(self):
        numeric_grad_check(
            Sequential(ResBlock(3, rng=7)), RNG.normal(size=(2, 3, 5, 5))
        )

    def test_restower(self):
        numeric_grad_check(
            Sequential(ResTower(2, n_blocks=2, rng=8)), RNG.normal(size=(2, 2, 4, 4))
        )


class TestLayerBehaviour:
    def test_conv_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel=2)

    def test_conv_rejects_wrong_channels(self):
        conv = Conv2D(3, 4)
        with pytest.raises(ValueError):
            conv(RNG.normal(size=(1, 2, 4, 4)))

    def test_conv_preserves_spatial_dims(self):
        y = Conv2D(2, 5, kernel=3, rng=0)(RNG.normal(size=(1, 2, 7, 9)))
        assert y.shape == (1, 5, 7, 9)

    def test_batchnorm_normalizes_in_training(self):
        bn = BatchNorm2D(3)
        y = bn(RNG.normal(loc=5.0, scale=2.0, size=(8, 3, 6, 6)))
        assert abs(y.mean()) < 1e-6
        assert y.std() == pytest.approx(1.0, abs=0.05)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm2D(2)
        for _ in range(200):
            bn(RNG.normal(loc=3.0, size=(4, 2, 4, 4)))
        bn.eval()
        y = bn(np.full((1, 2, 2, 2), 3.0))
        assert abs(y).max() < 0.5  # ~(3-3)/std

    def test_relu_zeroes_negatives(self):
        y = ReLU()(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(y, [[0.0, 2.0]])

    def test_flatten_roundtrip(self):
        f = Flatten()
        x = RNG.normal(size=(2, 3, 4, 5))
        y = f(x)
        assert y.shape == (2, 60)
        assert f.backward(y).shape == x.shape

    def test_train_eval_propagates(self):
        net = Sequential(Conv2D(1, 2), BatchNorm2D(2), ResBlock(2))
        net.eval()
        assert not net.layers[1].training
        assert not net.layers[2].bn1.training
        net.train()
        assert net.layers[1].training

    def test_zero_grad(self):
        lin = Linear(3, 2, rng=0)
        lin(RNG.normal(size=(2, 3)))
        lin.backward(RNG.normal(size=(2, 2)))
        assert np.abs(lin.weight.grad).sum() > 0
        lin.zero_grad()
        assert np.abs(lin.weight.grad).sum() == 0


class TestOptimizers:
    def _quadratic_problem(self):
        """min ||Wx - b||² for a fixed x, b — optimizers should descend."""
        lin = Linear(4, 3, rng=9)
        x = RNG.normal(size=(8, 4))
        b = RNG.normal(size=(8, 3))

        def loss_and_grads():
            y = lin(x)
            r = y - b
            lin.zero_grad()
            lin.backward(2 * r / len(x))
            return float((r**2).mean())

        return lin, loss_and_grads

    def test_sgd_descends(self):
        lin, step = self._quadratic_problem()
        opt = SGD(lin.parameters(), lr=0.05)
        first = step()
        for _ in range(50):
            opt.step()
            last = step()
        assert last < first * 0.5

    def test_sgd_momentum_descends(self):
        lin, step = self._quadratic_problem()
        opt = SGD(lin.parameters(), lr=0.02, momentum=0.9)
        first = step()
        for _ in range(50):
            opt.step()
            last = step()
        assert last < first * 0.5

    def test_adam_descends(self):
        lin, step = self._quadratic_problem()
        opt = Adam(lin.parameters(), lr=0.05)
        first = step()
        for _ in range(300):
            opt.step()
            last = step()
        assert last < first * 0.2

    def test_adam_weight_decay_shrinks_weights(self):
        lin = Linear(4, 4, rng=10)
        opt = Adam(lin.parameters(), lr=0.01, weight_decay=10.0)
        norm0 = float(np.abs(lin.weight.data).sum())
        for _ in range(50):
            lin.zero_grad()
            opt.step()
        assert float(np.abs(lin.weight.data).sum()) < norm0

    def test_clip_gradients(self):
        lin = Linear(2, 2, rng=11)
        lin.weight.grad[...] = 100.0
        lin.bias.grad[...] = 100.0
        norm = clip_gradients(lin.parameters(), max_norm=1.0)
        assert norm > 1.0
        total = sum(float((p.grad**2).sum()) for p in lin.parameters())
        assert np.sqrt(total) == pytest.approx(1.0, rel=1e-9)

    def test_clip_noop_below_threshold(self):
        lin = Linear(2, 2, rng=12)
        lin.weight.grad[...] = 0.01
        before = lin.weight.grad.copy()
        clip_gradients(lin.parameters(), max_norm=1e9)
        np.testing.assert_allclose(lin.weight.grad, before)


class TestSerialization:
    def _net(self, seed=0):
        return Sequential(Conv2D(1, 2, rng=seed), BatchNorm2D(2), Flatten(),
                          Linear(2 * 16, 3, rng=seed + 1))

    def test_save_load_roundtrip(self, tmp_path):
        net = self._net(0)
        x = RNG.normal(size=(2, 1, 4, 4))
        net(x)  # populate BN running stats
        net.eval()
        y_before = net(x)
        path = str(tmp_path / "w.npz")
        save_params(net, path)
        net2 = self._net(99)
        load_params(net2, path)
        net2.eval()
        np.testing.assert_allclose(net2(x), y_before)

    def test_load_shape_mismatch_rejected(self, tmp_path):
        net = self._net(0)
        path = str(tmp_path / "w.npz")
        save_params(net, path)
        other = Sequential(Conv2D(1, 3, rng=0))
        with pytest.raises((ValueError, KeyError)):
            load_params(other, path)

    def test_copy_params(self):
        a, b = self._net(0), self._net(5)
        x = RNG.normal(size=(1, 1, 4, 4))
        a(x)
        copy_params(a, b)
        a.eval(), b.eval()
        np.testing.assert_allclose(a(x), b(x))

    def test_copy_params_topology_mismatch(self):
        with pytest.raises(ValueError):
            copy_params(self._net(0), Sequential(Linear(2, 2)))


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(3, 6))
    def test_conv_linearity(self, n, c, hw):
        """Convolution is linear: f(ax) = a f(x) (bias removed)."""
        conv = Conv2D(c, 2, kernel=3, bias=False, rng=0)
        x = np.random.default_rng(0).normal(size=(n, c, hw, hw))
        np.testing.assert_allclose(conv(3.0 * x), 3.0 * conv(x), rtol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100))
    def test_softmax_invariant_to_shift(self, seed):
        logits = np.random.default_rng(seed).normal(size=7)
        np.testing.assert_allclose(
            softmax(logits), softmax(logits + 123.0), rtol=1e-9
        )


class TestPlanEmitters:
    """Each layer's ``emit_*`` program against its own forward/backward."""

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("bias", [False, True])
    def test_conv_matches_layer(self, kernel, bias):
        from repro.nn.layers import Program

        rng = np.random.default_rng(kernel + 2 * bias)
        n, c, o, h, w = 3, 4, 5, 6, 7
        conv, ref = (Conv2D(c, o, kernel=kernel, bias=bias, rng=1) for _ in range(2))
        for layer in (conv, ref):
            layer.weight.data[0] = -np.abs(layer.weight.data[0])  # −0.0 products
        x = rng.normal(size=(n, c, h, w))
        p = kernel // 2
        src = np.zeros((n, c, h + 2 * p, w + 2 * p))
        src[:, :, p : p + h, p : p + w] = x
        if kernel == 1:
            src = src.reshape(n, c, h * w)
        cols = np.empty((n, c * kernel**2, h * w)) if kernel > 1 else None
        out = np.empty((n, o, h * w))
        fwd = Program()
        conv.emit_forward(fwd, src, out, cols)
        fwd.run()
        assert out.reshape(n, o, h, w).tobytes() == ref.forward(x).tobytes()

        dy = rng.normal(size=(n, o, h, w))
        dy[dy < 0.3] = 0.0
        dy[:, :, 0] = -0.0
        bwd = Program()
        dx = conv.emit_backward(bwd, dy, src if cols is None else cols)
        bwd.run()
        want = ref.backward(dy)
        assert dx.tobytes() == want.tobytes()
        for a, b in zip(conv.parameters(), ref.parameters()):
            assert a.grad.tobytes() == b.grad.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_matches_layer(self, training):
        rng = np.random.default_rng(int(training))
        bn, ref = BatchNorm2D(3), BatchNorm2D(3)
        for layer in (bn, ref):
            layer.running_mean[...] = [0.1, -0.2, 0.3]
            layer.running_var[...] = [1.5, 0.5, 2.0]
            layer.gamma.data[...] = [1.2, -0.7, 0.9]
            layer.train(training)
        x = rng.normal(size=(4, 3, 5, 5))
        y, x_hat, cache = x.copy(), np.empty_like(x), {}
        bn.forward_into(y, x_hat, y, cache)
        assert y.tobytes() == ref.forward(x).tobytes()
        assert bn.running_var.tobytes() == ref.running_var.tobytes()
        dy = rng.normal(size=x.shape)
        out = np.empty_like(dy)
        bn.backward_into(dy, x_hat, cache, np.empty_like(dy), out)
        assert out.tobytes() == ref.backward(dy).tobytes()
        for a, b in zip(bn.parameters(), ref.parameters()):
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_relu_and_linear_match_layer(self):
        from repro.nn.layers import Program

        rng = np.random.default_rng(3)
        relu, fc, ref_fc = ReLU(), Linear(6, 4, rng=2), Linear(6, 4, rng=2)
        x = rng.normal(size=(5, 6))
        x[0] = -0.0
        act, mask, out = np.empty_like(x), np.empty(x.shape, bool), np.empty((5, 4))
        fwd = Program()
        relu.emit_forward(fwd, x, mask, act)  # keeps −0.0 where x < 0
        fc.emit_forward(fwd, act, out)
        fwd.run()
        ref_act = ReLU().forward(x)
        assert act.tobytes() == ref_act.tobytes()
        assert out.tobytes() == ref_fc.forward(ref_act).tobytes()
        dy = rng.normal(size=(5, 4))
        dx = np.empty((5, 6))
        bwd = Program()
        fc.emit_backward(bwd, dy, act, dx)
        bwd.run()
        assert dx.tobytes() == ref_fc.backward(dy).tobytes()
        for a, b in zip(fc.parameters(), ref_fc.parameters()):
            assert a.grad.tobytes() == b.grad.tobytes()
