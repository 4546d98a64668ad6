"""Tests for the autograd Tensor: ops, gradients, graph mechanics."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import _unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = nn.Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_int_promoted_to_float(self):
        t = nn.Tensor([1, 2, 3])
        assert t.dtype == np.float64

    def test_bool_promoted_to_float(self):
        t = nn.Tensor(np.array([True, False]))
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not nn.Tensor([1.0]).requires_grad

    def test_len_and_size(self):
        t = nn.Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(nn.Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(nn.Tensor([1.0]))

    def test_item_scalar(self):
        assert nn.Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_rejects_vector(self):
        with pytest.raises(ValueError):
            nn.Tensor([1.0, 2.0]).item()

    def test_as_tensor_passthrough(self):
        t = nn.Tensor([1.0])
        assert nn.as_tensor(t) is t

    def test_as_tensor_coerces_scalar(self):
        t = nn.as_tensor(2.0)
        assert isinstance(t, nn.Tensor)
        assert t.item() == 2.0


class TestArithmeticForward:
    def test_add(self):
        out = nn.Tensor([1.0, 2.0]) + nn.Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        out = 1.0 + nn.Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((nn.Tensor([5.0]) - 2.0).data, [3.0])
        np.testing.assert_allclose((10.0 - nn.Tensor([4.0])).data, [6.0])

    def test_mul_div(self):
        np.testing.assert_allclose((nn.Tensor([3.0]) * 4.0).data, [12.0])
        np.testing.assert_allclose((nn.Tensor([8.0]) / 2.0).data, [4.0])
        np.testing.assert_allclose((8.0 / nn.Tensor([2.0])).data, [4.0])

    def test_neg_pow(self):
        np.testing.assert_allclose((-nn.Tensor([2.0])).data, [-2.0])
        np.testing.assert_allclose((nn.Tensor([3.0]) ** 2).data, [9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            nn.Tensor([2.0]) ** nn.Tensor([2.0])

    def test_matmul_2d(self):
        a = nn.Tensor(np.eye(2) * 2.0)
        b = nn.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).data, [[2.0, 4.0], [6.0, 8.0]])


class TestBackward:
    def test_simple_chain(self):
        x = nn.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_grad_accumulates_over_backward_calls(self):
        x = nn.Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_grad_accumulates_through_mlp_graph(self):
        # Two backward passes over one MLP graph double the input and
        # every parameter gradient, bit for bit.
        def grads(passes):
            net = nn.Sequential(
                nn.Linear(4, 5, rng=np.random.default_rng(11)),
                nn.ReLU(),
                nn.Linear(5, 1, rng=np.random.default_rng(12)),
            )
            x = nn.Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
            out = net(x).sum()
            for _ in range(passes):
                out.backward()
            return [x.grad] + [p.grad for p in net.parameters()]

        for once, twice in zip(grads(1), grads(2)):
            assert np.array_equal(twice, 2.0 * once)

    def test_zero_grad(self):
        x = nn.Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # f = (x + x) * x -> df/dx = 4x at x=3 -> 12... f = 2x^2, f' = 4x
        x = nn.Tensor(3.0, requires_grad=True)
        f = (x + x) * x
        f.backward()
        np.testing.assert_allclose(x.grad, 12.0)

    def test_shared_subexpression(self):
        x = nn.Tensor(2.0, requires_grad=True)
        y = x * x  # used twice below
        f = y + y
        f.backward()
        np.testing.assert_allclose(x.grad, 8.0)  # d(2x^2)/dx = 4x

    def test_backward_requires_scalar_or_grad(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_backward_rejects_mis_shaped_seed(self):
        # A transposed or broadcastable-but-wrong seed must raise, not
        # silently propagate wrong gradients.
        x = nn.Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match="seed gradient shape"):
            (x * 2.0).backward(np.ones((3, 2)))
        with pytest.raises(ValueError, match="seed gradient shape"):
            (x * 2.0).backward(np.ones(3))

    def test_backward_broadcasts_zero_dim_seed(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).backward(np.float64(2.0))
        np.testing.assert_allclose(x.grad, [6.0, 6.0])

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            nn.Tensor([1.0]).backward()

    def test_broadcast_add_gradient(self):
        x = nn.Tensor(np.ones((3, 4)), requires_grad=True)
        b = nn.Tensor(np.ones(4), requires_grad=True)
        ((x + b) * 1.0).sum().backward()
        assert x.grad.shape == (3, 4)
        np.testing.assert_allclose(b.grad, [3.0, 3.0, 3.0, 3.0])

    def test_broadcast_mul_gradient(self):
        x = nn.Tensor(np.full((2, 3), 2.0), requires_grad=True)
        s = nn.Tensor(5.0, requires_grad=True)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 12.0)

    def test_div_gradients(self):
        a = nn.Tensor(6.0, requires_grad=True)
        b = nn.Tensor(3.0, requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, 1.0 / 3.0)
        np.testing.assert_allclose(b.grad, -6.0 / 9.0)

    def test_matmul_gradients(self):
        rng = np.random.default_rng(0)
        a = nn.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = nn.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        nn.check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])

    def test_matmul_vector_cases(self):
        rng = np.random.default_rng(1)
        v = nn.Tensor(rng.normal(size=4), requires_grad=True)
        m = nn.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        nn.check_gradients(lambda: ((v @ m) ** 2).sum(), [v, m])
        w = nn.Tensor(rng.normal(size=3), requires_grad=True)
        nn.check_gradients(lambda: ((m @ w) ** 2).sum(), [m, w])
        u = nn.Tensor(rng.normal(size=4), requires_grad=True)
        nn.check_gradients(lambda: (v @ u) * (v @ u), [v, u])


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "func_name", ["exp", "tanh", "sigmoid", "relu", "abs", "leaky_relu", "sqrt"]
    )
    def test_gradcheck(self, func_name):
        rng = np.random.default_rng(7)
        data = rng.uniform(0.2, 2.0, size=(3, 3))  # positive: safe for sqrt
        x = nn.Tensor(data, requires_grad=True)
        nn.check_gradients(lambda: getattr(x, func_name)().sum(), [x])

    def test_log_gradcheck(self):
        x = nn.Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
        nn.check_gradients(lambda: x.log().sum(), [x])

    def test_clip_gradient_masks_outside(self):
        x = nn.Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_sigmoid_stable_at_extremes(self):
        x = nn.Tensor([-1000.0, 1000.0])
        out = x.sigmoid().data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = nn.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_axis_gradient(self):
        x = nn.Tensor(np.ones((2, 4)), requires_grad=True)
        x.mean(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 0.25))

    def test_mean_axis_tuple(self):
        x = nn.Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = x.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 12.0))

    def test_max_gradient_routes_to_argmax(self):
        x = nn.Tensor([1.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_splits_ties(self):
        x = nn.Tensor([5.0, 5.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_max_axis(self):
        x = nn.Tensor(np.array([[1.0, 2.0], [4.0, 3.0]]), requires_grad=True)
        out = x.max(axis=1)
        np.testing.assert_allclose(out.data, [2.0, 4.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        x = nn.Tensor(np.arange(6.0), requires_grad=True)
        (x.reshape(2, 3) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(6, 2.0))

    def test_reshape_accepts_tuple(self):
        x = nn.Tensor(np.arange(6.0))
        assert x.reshape((3, 2)).shape == (3, 2)

    def test_transpose_default_reverses(self):
        x = nn.Tensor(np.zeros((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)
        assert x.T.shape == (4, 3, 2)

    def test_transpose_gradient(self):
        x = nn.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (x.transpose(1, 0) * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 3.0))

    def test_getitem_gradient_scatters(self):
        x = nn.Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0, 0.0, 0.0])

    def test_getitem_repeated_index_accumulates(self):
        x = nn.Tensor(np.arange(3.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_squeeze_unsqueeze_gradients(self):
        x = nn.Tensor(np.ones((2, 1, 3)), requires_grad=True)
        x.squeeze(1).unsqueeze(0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 1, 3)))


class TestGraphModes:
    def test_no_grad_blocks_graph(self):
        x = nn.Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with nn.no_grad():
                raise RuntimeError("boom")
        assert nn.is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = nn.Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad
        assert y.data is (x * 2.0).data or np.allclose(y.data, [2.0])

    def test_comparisons_return_arrays(self):
        x = nn.Tensor([1.0, 3.0])
        assert (x > 2.0).tolist() == [False, True]
        assert (x < 2.0).tolist() == [True, False]
        assert (x >= 3.0).tolist() == [False, True]
        assert (x <= 1.0).tolist() == [True, False]

    def test_comparison_with_tensor(self):
        a = nn.Tensor([1.0, 5.0])
        b = nn.Tensor([2.0, 2.0])
        assert (a > b).tolist() == [False, True]


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_sum_prepended_axes(self):
        g = np.ones((5, 2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 3)), np.full((2, 3), 5.0))

    def test_sum_stretched_axes(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_combined(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (1, 3)), np.full((1, 3), 8.0))
