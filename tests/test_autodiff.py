"""Differentiation tests: the library's `backward` over closed-form nodes, and
the tests' reference tape in `_oracles` op by op.

The reference tape's ops (`affine`, `relu`, `tanh`, `sum_all`, ...) and its
`backward` are the tests' own; the library's nodes are `autodiff.Tensor`s
whose gradients come from one function each, and its `backward` returns
arrays.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc.models import DecoderModel, EncoderModel
from fisherjscc.rng import CounterRng
from fisherjscc.robustness import fisher_trace_node

from _oracles import (Tensor, add, affine, backward, exp, finite_diff_grad, gather_labels,
                      log_softmax, matmul, max_rel_err, mul, neg, relu, reshape, scale, square,
                      sub, sum_all, sum_axis, tanh, tile_rows, transpose, weighted_sum)


class TestAffine:
    def test_identity_weight(self):
        out = affine(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_zero_weight_passes_bias(self):
        out = affine(np.array([[1.0, 2.0]]), np.zeros((2, 2)), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            affine(np.ones((1, 3)), np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            affine(np.ones((1, 2)), np.ones((2, 2)), np.zeros(3))

    def test_weight_gradient_matches_finite_differences(self):
        rng = CounterRng(41)
        x = Tensor(rng.normals(6).reshape(3, 2))
        w = Tensor(rng.normals(4).reshape(2, 2))
        b = Tensor(rng.normals(2))

        def value():
            return sum_all(affine(x, w, b)).item()

        grad = backward(sum_all(affine(x, w, b)), [w])[w].data
        assert max_rel_err(grad, finite_diff_grad(value, w.data)) <= 1e-6


class TestActivations:
    def test_relu_values(self):
        out = relu(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_tanh_at_zero(self):
        assert tanh(np.array([0.0])).data[0] == 0.0

    def test_tanh_gradient_matches_finite_differences(self):
        x = Tensor(np.array([0.5]))

        def value():
            return sum_all(tanh(x)).item()

        grad = backward(sum_all(tanh(x)), [x])[x].data
        assert max_rel_err(grad, finite_diff_grad(value, x.data)) <= 1e-8

    def test_relu_derivative_zero_at_kink(self):
        x = Tensor(np.array([0.0]))
        grad = backward(sum_all(relu(x)), [x])[x].data
        assert grad[0] == 0.0


class TestLogSoftmax:
    def test_symmetric_two_classes(self):
        out = log_softmax(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[-math.log(2.0)] * 2], rtol=0, atol=1e-15)

    def test_extreme_logits_stable(self):
        out = log_softmax(np.array([[1000.0, 0.0]])).data
        assert np.all(np.isfinite(out))
        assert abs(out[0, 0]) < 1e-12
        assert abs(out[0, 1] + 1000.0) < 1e-9

    def test_rows_exponentiate_to_one(self):
        rng = CounterRng(17)
        logits = (rng.uniforms(500).reshape(100, 5) * 2.0 - 1.0) * 1e3
        rows = np.exp(log_softmax(logits).data).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, rtol=0, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            log_softmax(np.ones((2, 1)))

    def test_pick_entry_gradient_matches_finite_differences(self):
        rng = CounterRng(23)
        x = Tensor(rng.normals(8).reshape(2, 4))
        labels = np.array([1, 3])

        def value():
            return sum_all(gather_labels(log_softmax(x), labels)).item()

        root = sum_all(gather_labels(log_softmax(x), labels))
        grad = backward(root, [x])[x].data
        assert max_rel_err(grad, finite_diff_grad(value, x.data)) <= 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        grad = backward(sum_all(x), [x])[x].data
        np.testing.assert_array_equal(grad, [1.0, 1.0, 1.0])

    def test_zero_times_function_gives_zero_gradient(self):
        x = Tensor(np.array([1.0, -2.0]))
        root = scale(sum_all(tanh(x)), 0.0)
        grad = backward(root, [x])[x].data
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_non_scalar_root_rejected(self):
        x = ad.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            ad.backward(x, [x])

    def test_unreachable_leaf_rejected(self):
        x = ad.Tensor(np.ones(2))
        other = ad.Tensor(np.ones(2))
        with pytest.raises(ValueError):
            ad.backward(weighted_sum(x), [other])

    def test_repeated_backward_is_idempotent(self):
        x = Tensor(np.array([0.3, -0.8]))
        root = sum_all(mul(tanh(x), x))
        first = backward(root, [x])[x].data
        second = backward(root, [x])[x].data
        np.testing.assert_array_equal(first, second)

    def test_two_layer_network_gradients(self):
        """All parameter and input gradients of a random 2-layer net vs FD."""
        rng = CounterRng(7)
        x = Tensor(rng.normals(6).reshape(2, 3))
        w1 = Tensor(rng.normals(12).reshape(3, 4) * 0.7)
        b1 = Tensor(rng.normals(4) * 0.1)
        w2 = Tensor(rng.normals(8).reshape(4, 2) * 0.7)
        b2 = Tensor(rng.normals(2) * 0.1)

        def net():
            h = tanh(affine(x, w1, b1))
            return sum_all(tanh(affine(h, w2, b2)))

        grads = backward(net(), [x, w1, b1, w2, b2])
        for leaf in (x, w1, b1, w2, b2):
            fd = finite_diff_grad(lambda: net().item(), leaf.data)
            assert max_rel_err(grads[leaf].data, fd) <= 1e-5

    def test_shared_subexpression_accumulates(self):
        """Reusing one node must equal building duplicate nodes explicitly."""
        x = Tensor(np.array([0.7, -1.1]))
        shared = mul(x, x)
        root_shared = sum_all(add(shared, shared))
        # Unrolled twin: two structurally separate squaring nodes.
        root_unrolled = sum_all(add(mul(x, x), mul(x, x)))
        g_shared = backward(root_shared, [x])[x].data
        g_unrolled = backward(root_unrolled, [x])[x].data
        np.testing.assert_array_equal(g_shared, g_unrolled)
        np.testing.assert_allclose(g_shared, 4.0 * x.data, rtol=1e-15)

    def test_gradient_shapes_match_leaves(self):
        x = Tensor(np.ones((3, 2)))
        w = Tensor(np.ones((2, 4)))
        root = sum_all(matmul(x, w))
        grads = backward(root, [x, w])
        assert grads[x].data.shape == (3, 2)
        assert grads[w].data.shape == (2, 4)


class TestOpGradientSweep:
    """Every differentiable op at randomized points vs central differences."""

    UNARY = {
        "tanh": tanh,
        "exp": lambda t: exp(scale(t, 0.3)),
        "relu": relu,
        "neg": neg,
        "square": square,
        "scale": lambda t: scale(t, 1.7),
        "transpose": lambda t: transpose(reshape(t, (2, 3))),
        "reshape": lambda t: reshape(t, (3, 2)),
        "sum_axis": lambda t: sum_axis(reshape(t, (2, 3)), 1),
        "tile_rows": lambda t: tile_rows(reshape(t, (2, 3)), 3),
    }

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary_ops(self, name):
        op = self.UNARY[name]
        failures = 0
        for trial in range(10):
            rng = CounterRng(1000 + trial * 31 + hash(name) % 997)
            values = rng.normals(6)
            if name == "relu":
                # relu'(0) = 0 by convention; keep FD probes away from the kink.
                values = np.where(np.abs(values) < 1e-3, 0.5, values)
            x = Tensor(values)

            def f():
                return sum_all(op(x)).item()

            grad = backward(sum_all(op(x)), [x])[x].data
            if max_rel_err(grad, finite_diff_grad(f, x.data)) > 1e-5:
                failures += 1
        assert failures == 0

    def test_binary_ops(self):
        for trial in range(10):
            rng = CounterRng(5000 + trial)
            a = Tensor(rng.normals(6).reshape(2, 3))
            b = Tensor(rng.normals(6).reshape(2, 3))
            for op in (add, sub, mul):
                def f():
                    return sum_all(op(a, b)).item()

                grads = backward(sum_all(op(a, b)), [a, b])
                for leaf in (a, b):
                    assert max_rel_err(grads[leaf].data, finite_diff_grad(f, leaf.data)) <= 1e-5

    def test_broadcast_add_reduces_gradient(self):
        a = Tensor(np.ones((3, 2)))
        b = Tensor(np.array([1.0, 2.0]))
        grads = backward(sum_all(add(a, b)), [a, b])
        np.testing.assert_array_equal(grads[b].data, [3.0, 3.0])


class TestGraphLifetime:
    """Ops whose backward rule reads their own output hold it weakly, and the
    closed-form nodes' rules do not hold their node."""

    OWN_OUTPUT_OPS = {
        "tanh": tanh,
        "exp": exp,
        "log_softmax": log_softmax,
        "encoder_node": lambda x: EncoderModel(3, 2, power=1.0, hidden=(4,)).forward_node(x.data),
        "decoder_node": lambda x: DecoderModel(3, 2, hidden=(4,)).log_posterior_all(x),
        "fisher_trace_node": lambda x: fisher_trace_node(DecoderModel(3, 2, hidden=(4,)), x),
    }

    @pytest.mark.parametrize("name", sorted(OWN_OUTPUT_OPS))
    def test_node_freed_without_cyclic_collector(self, name):
        x = ad.Tensor(CounterRng(7).normals(6).reshape(2, 3))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            out = self.OWN_OUTPUT_OPS[name](x)
            ref = weakref.ref(out)
            del out
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestClosedForm:
    """The library's nodes: one gradient function each, summed per parent into arrays."""

    def test_one_call_gives_every_needed_parent_its_gradient(self, tensors_built_by):
        a, b = ad.Tensor(np.array([1.0, 2.0])), ad.Tensor(np.array([3.0, -1.0]))
        calls = []

        def gradients(g):
            calls.append(g.copy())
            return [g * b.data, g * a.data]

        node = ad.Tensor(a.data * b.data, (a, b), gradients)
        # sum(node + a): a reaches the root along two paths.
        root = ad.Tensor((node.data + a.data).sum(), (node, a),
                         lambda g: [g * np.ones(2), g * np.ones(2)])
        grads = ad.backward(root, [a, b])
        np.testing.assert_array_equal(grads[a], b.data + 1.0)
        np.testing.assert_array_equal(grads[b], a.data)
        assert len(calls) == 1 and np.array_equal(calls[0], [1.0, 1.0])
        assert all(type(g) is np.ndarray for g in grads.values())
        # Without b asked for, only a's gradient comes back, and no node is built.
        assert tensors_built_by(ad.backward, root, [a]) == 0
        assert list(ad.backward(root, [a])) == [a]

    def test_shared_parent_gets_the_sum_of_its_arrays(self):
        rng = CounterRng(81)
        shared = ad.Tensor(rng.normals(6).reshape(2, 3))
        first, second = rng.normals(6).reshape(2, 3), rng.normals(6).reshape(2, 3)
        left = ad.Tensor(shared.data * 2.0, (shared,), lambda g: [first])
        right = ad.Tensor(shared.data * 3.0, (shared,), lambda g: [second])
        root = ad.Tensor(left.data.sum() + right.data.sum(), (left, right),
                         lambda g: [g * np.ones((2, 3)), g * np.ones((2, 3))])
        grad = ad.backward(root, [shared])[shared]
        assert np.array_equal(grad, first + second)
