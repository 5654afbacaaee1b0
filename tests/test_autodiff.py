"""Differentiation-core tests: op semantics, gradient oracles, graph rules.

The generic ops (`affine`, `relu`, `tanh`, ...) are the tests' own, in
`_oracles`; they sit on `autodiff`'s glue and backward, checked here together.
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

from _oracles import (affine, exp, finite_diff_grad, log_softmax, matmul, max_rel_err, mul,
                      neg, relu, square, sub, tanh, transpose)


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
        x = ad.Tensor(rng.normals(6).reshape(3, 2))
        w = ad.Tensor(rng.normals(4).reshape(2, 2))
        b = ad.Tensor(rng.normals(2))

        def value():
            return ad.sum_all(affine(x, w, b)).item()

        grad = ad.backward(ad.sum_all(affine(x, w, b)), [w])[w].data
        assert max_rel_err(grad, finite_diff_grad(value, w.data)) <= 1e-6


class TestActivations:
    def test_relu_values(self):
        out = relu(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_tanh_at_zero(self):
        assert tanh(np.array([0.0])).data[0] == 0.0

    def test_tanh_gradient_matches_finite_differences(self):
        x = ad.Tensor(np.array([0.5]))

        def value():
            return ad.sum_all(tanh(x)).item()

        grad = ad.backward(ad.sum_all(tanh(x)), [x])[x].data
        assert max_rel_err(grad, finite_diff_grad(value, x.data)) <= 1e-8

    def test_relu_derivative_zero_at_kink(self):
        x = ad.Tensor(np.array([0.0]))
        grad = ad.backward(ad.sum_all(relu(x)), [x])[x].data
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
        x = ad.Tensor(rng.normals(8).reshape(2, 4))
        labels = np.array([1, 3])

        def value():
            return ad.sum_all(ad.gather_labels(log_softmax(x), labels)).item()

        root = ad.sum_all(ad.gather_labels(log_softmax(x), labels))
        grad = ad.backward(root, [x])[x].data
        assert max_rel_err(grad, finite_diff_grad(value, x.data)) <= 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.Tensor(np.array([1.0, 2.0, 3.0]))
        grad = ad.backward(ad.sum_all(x), [x])[x].data
        np.testing.assert_array_equal(grad, [1.0, 1.0, 1.0])

    def test_zero_times_function_gives_zero_gradient(self):
        x = ad.Tensor(np.array([1.0, -2.0]))
        root = ad.scale(ad.sum_all(tanh(x)), 0.0)
        grad = ad.backward(root, [x])[x].data
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_non_scalar_root_rejected(self):
        x = ad.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            ad.backward(x, [x])

    def test_unreachable_leaf_rejected(self):
        x = ad.Tensor(np.ones(2))
        other = ad.Tensor(np.ones(2))
        with pytest.raises(ValueError):
            ad.backward(ad.sum_all(x), [other])

    def test_repeated_backward_is_idempotent(self):
        x = ad.Tensor(np.array([0.3, -0.8]))
        root = ad.sum_all(mul(tanh(x), x))
        first = ad.backward(root, [x])[x].data
        second = ad.backward(root, [x])[x].data
        np.testing.assert_array_equal(first, second)

    def test_two_layer_network_gradients(self):
        """All parameter and input gradients of a random 2-layer net vs FD."""
        rng = CounterRng(7)
        x = ad.Tensor(rng.normals(6).reshape(2, 3))
        w1 = ad.Tensor(rng.normals(12).reshape(3, 4) * 0.7)
        b1 = ad.Tensor(rng.normals(4) * 0.1)
        w2 = ad.Tensor(rng.normals(8).reshape(4, 2) * 0.7)
        b2 = ad.Tensor(rng.normals(2) * 0.1)

        def net():
            h = tanh(affine(x, w1, b1))
            return ad.sum_all(tanh(affine(h, w2, b2)))

        grads = ad.backward(net(), [x, w1, b1, w2, b2])
        for leaf in (x, w1, b1, w2, b2):
            fd = finite_diff_grad(lambda: net().item(), leaf.data)
            assert max_rel_err(grads[leaf].data, fd) <= 1e-5

    def test_shared_subexpression_accumulates(self):
        """Reusing one node must equal building duplicate nodes explicitly."""
        x = ad.Tensor(np.array([0.7, -1.1]))
        shared = mul(x, x)
        root_shared = ad.sum_all(ad.add(shared, shared))
        # Unrolled twin: two structurally separate squaring nodes.
        root_unrolled = ad.sum_all(ad.add(mul(x, x), mul(x, x)))
        g_shared = ad.backward(root_shared, [x])[x].data
        g_unrolled = ad.backward(root_unrolled, [x])[x].data
        np.testing.assert_array_equal(g_shared, g_unrolled)
        np.testing.assert_allclose(g_shared, 4.0 * x.data, rtol=1e-15)

    def test_gradient_shapes_match_leaves(self):
        x = ad.Tensor(np.ones((3, 2)))
        w = ad.Tensor(np.ones((2, 4)))
        root = ad.sum_all(matmul(x, w))
        grads = ad.backward(root, [x, w])
        assert grads[x].data.shape == (3, 2)
        assert grads[w].data.shape == (2, 4)


class TestOpGradientSweep:
    """Every differentiable op at randomized points vs central differences."""

    UNARY = {
        "tanh": tanh,
        "exp": lambda t: exp(ad.scale(t, 0.3)),
        "relu": relu,
        "neg": neg,
        "square": square,
        "scale": lambda t: ad.scale(t, 1.7),
        "transpose": lambda t: transpose(ad.reshape(t, (2, 3))),
        "reshape": lambda t: ad.reshape(t, (3, 2)),
        "sum_axis": lambda t: ad.sum_axis(ad.reshape(t, (2, 3)), 1),
        "tile_rows": lambda t: ad.tile_rows(ad.reshape(t, (2, 3)), 3),
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
            x = ad.Tensor(values)

            def f():
                return ad.sum_all(op(x)).item()

            grad = ad.backward(ad.sum_all(op(x)), [x])[x].data
            if max_rel_err(grad, finite_diff_grad(f, x.data)) > 1e-5:
                failures += 1
        assert failures == 0

    def test_binary_ops(self):
        for trial in range(10):
            rng = CounterRng(5000 + trial)
            a = ad.Tensor(rng.normals(6).reshape(2, 3))
            b = ad.Tensor(rng.normals(6).reshape(2, 3))
            for op in (ad.add, sub, mul):
                def f():
                    return ad.sum_all(op(a, b)).item()

                grads = ad.backward(ad.sum_all(op(a, b)), [a, b])
                for leaf in (a, b):
                    assert max_rel_err(grads[leaf].data, finite_diff_grad(f, leaf.data)) <= 1e-5

    def test_broadcast_add_reduces_gradient(self):
        a = ad.Tensor(np.ones((3, 2)))
        b = ad.Tensor(np.array([1.0, 2.0]))
        grads = ad.backward(ad.sum_all(ad.add(a, b)), [a, b])
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
    def test_one_call_gives_every_needed_parent_its_gradient(self, tensors_built_by):
        a, b = ad.Tensor(np.array([1.0, 2.0])), ad.Tensor(np.array([3.0, -1.0]))
        calls = []

        def gradients(g):
            calls.append(g.copy())
            return [g * b.data, g * a.data]

        node = ad.closed_form(a.data * b.data, (a, b), gradients)
        root = ad.sum_all(ad.add(node, a))
        grads = ad.backward(root, [a, b])
        np.testing.assert_array_equal(grads[a].data, b.data + 1.0)
        np.testing.assert_array_equal(grads[b].data, a.data)
        assert len(calls) == 1 and np.array_equal(calls[0], [1.0, 1.0])
        assert grads[b]._parents == ()
        # Without b asked for, only a's closed-form gradient enters the tape: the root's
        # seed, sum_all's reshape and broadcast, that gradient and its sum with add's.
        assert tensors_built_by(ad.backward, root, [a]) == 5


class TestFiniteChecks:
    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            ad.Tensor(np.array([1.0, np.inf]))
