"""Encoder/decoder contracts: power bound, posterior validity, checkpoints."""

import copy
import json
import math
import reprlib

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc.data import Normalizer, make_rings
from fisherjscc.models import (FOLD_CLASSES, SLICE_COLUMNS, DecoderModel, EncoderModel,
                               _class_max, _class_sum, _column_slices, load_checkpoint,
                               save_checkpoint)
from fisherjscc.rng import CounterRng
from fisherjscc.robustness import _ClosedForm

from _oracles import (backward, decoder_tape, encoder_tape, finite_diff_grad,
                      log_posterior_alone, log_posterior_by_axis, max_rel_err, mul,
                      softmax_reference, sum_all, weighted_sum)
from test_robustness import STACKED_SHAPES, random_decoder


class TestEncoder:
    def test_zero_final_layer_encodes_to_zero(self):
        encoder = EncoderModel(3, 4, power=2.0, hidden=(8,), seed=0)
        last = len(encoder.sizes) - 2
        encoder.params[f"W{last}"].data[:] = 0.0
        encoder.params[f"b{last}"].data[:] = 0.0
        z = encoder.encode(CounterRng(1).normals(9).reshape(3, 3))
        np.testing.assert_array_equal(z, np.zeros((3, 4)))

    def test_power_bound_on_random_inputs(self):
        encoder = EncoderModel(5, 8, power=1.0, seed=3)
        x = CounterRng(2).normals(5000).reshape(1000, 5) * 10.0
        z = encoder.encode(x)
        assert np.max(np.abs(z)) < 1.0

    def test_power_bound_under_saturation(self):
        """Even with huge pre-activations, max z_i^2 never exceeds the budget."""
        encoder = EncoderModel(2, 3, power=5.0, hidden=(4,), seed=1)
        last = len(encoder.sizes) - 2
        encoder.params[f"b{last}"].data[:] = 1e4  # force tanh to saturate at 1
        z = encoder.encode(np.ones((4, 2)))
        assert float(np.max(z * z)) <= 5.0

    def test_encode_deterministic_bitwise(self):
        encoder = EncoderModel(4, 6, power=1.5, seed=9)
        x = CounterRng(3).normals(40).reshape(10, 4)
        np.testing.assert_array_equal(encoder.encode(x), encoder.encode(x))

    def test_dimension_mismatch_rejected(self):
        encoder = EncoderModel(4, 6, power=1.0, seed=0)
        with pytest.raises(ValueError):
            encoder.encode(np.ones((2, 3)))

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            EncoderModel(4, 0, power=1.0)
        with pytest.raises(ValueError):
            EncoderModel(4, 2, power=0.0)
        with pytest.raises(ValueError, match="layer widths"):
            EncoderModel(4, 2, power=1.0, hidden=(8, 0))


class TestDecoder:
    def test_zero_initialized_decoder_is_uniform(self):
        decoder = DecoderModel(4, 5, hidden=(8,), seed=0)
        for name, tensor in decoder.params.items():
            tensor.data[:] = 0.0
        probs = decoder.decode(CounterRng(4).normals(12).reshape(3, 4))
        np.testing.assert_allclose(probs, 0.2, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        decoder = DecoderModel(6, 4, seed=5)
        probs = decoder.decode(CounterRng(5).normals(120).reshape(20, 6))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_matches_high_precision_softmax(self):
        """Linear decoder posterior for logits [2, 1, 0] vs mpmath softmax."""
        decoder = DecoderModel(3, 3, hidden=(), seed=0)
        decoder.params["W0"].data[:] = np.eye(3)
        decoder.params["b0"].data[:] = 0.0
        probs = decoder.decode(np.array([[2.0, 1.0, 0.0]]))[0]
        np.testing.assert_allclose(probs, softmax_reference([2.0, 1.0, 0.0]),
                                   rtol=0, atol=1e-14)

    def test_argmax_tie_breaks_to_lowest_index(self):
        decoder = DecoderModel(2, 3, hidden=(), seed=0)
        decoder.params["W0"].data[:] = 0.0
        decoder.params["b0"].data[:] = 0.0
        assert np.argmax(decoder.decode(np.array([[0.4, -0.2]])), axis=1)[0] == 0

    def test_num_classes_validated(self):
        with pytest.raises(ValueError):
            DecoderModel(4, 1)

    def test_hidden_width_validated(self):
        with pytest.raises(ValueError, match="layer widths"):
            DecoderModel(4, 3, hidden=(0,))


class TestLogPosterior:
    def test_uniform_decoder_gives_log_inverse_classes(self):
        decoder = DecoderModel(3, 4, hidden=(), seed=0)
        decoder.params["W0"].data[:] = 0.0
        decoder.params["b0"].data[:] = 0.0
        values = decoder.log_posterior_all(ad.Tensor([0.1, -0.5, 2.0])).data
        np.testing.assert_allclose(values, [[-math.log(4.0)] * 4], rtol=1e-15)

    def test_exp_matches_decode(self):
        decoder = DecoderModel(4, 3, seed=8)
        z = CounterRng(6).normals(4)
        np.testing.assert_array_equal(np.exp(decoder.log_posterior_all(ad.Tensor(z)).data),
                                      decoder.decode(z))

    def test_dimension_mismatch_rejected(self):
        decoder = DecoderModel(4, 3, seed=8)
        with pytest.raises(ValueError, match="dimension 4"):
            decoder.log_posterior_all(ad.Tensor(np.zeros((2, 5))))

    def test_input_gradient_matches_finite_differences(self):
        decoder = DecoderModel(4, 3, hidden=(8,), seed=11)
        z = ad.Tensor(CounterRng(7).normals(4))

        def log_q1():
            return weighted_sum(decoder.log_posterior_all(z), [[0.0, 1.0, 0.0]])

        def value():
            return float(log_q1().data)

        grad = ad.backward(log_q1(), [z])[z]
        assert grad.shape == (4,)
        assert np.all(np.isfinite(grad))
        assert max_rel_err(grad, finite_diff_grad(value, z.data)) <= 1e-5


REDUCTION_ROWS = [1, 7, 64, 600, 16384, 65536]
REDUCTION_CLASSES = [2, 3, 4, 5, 6, 7, 8, 9, 65]


def class_block(shape, seed: int) -> np.ndarray:
    """Normals scaled over 2^-16 to 2^15, with signed zeros planted, rows of -0.0s, and rows
    whose maximum is a tie of -0.0 and 0.0 above negative entries."""
    rng = np.random.default_rng(seed)
    a = np.ldexp(rng.standard_normal(shape), rng.integers(-16, 16, size=shape, dtype=np.int32))
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    rows = a.reshape(-1, shape[-1])
    rows[::3] = -np.abs(rows[::3])
    rows[::3, 0] = -0.0
    rows[::3, -1] = 0.0
    rows[1::5] = -0.0
    return a


class TestClassReductions:
    """The column folds give the bytes of NumPy's reductions over the last axis; bytes,
    because np.array_equal takes -0.0 and 0.0 as equal."""

    @pytest.mark.parametrize("classes", REDUCTION_CLASSES)
    @pytest.mark.parametrize("rows", REDUCTION_ROWS)
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "3d"])
    def test_bytes_of_numpys_max_and_sum(self, lead, rows, classes):
        a = class_block((*lead, rows, classes), seed=rows * 100 + classes)
        assert _class_max(a).tobytes() == a.max(axis=-1).tobytes()
        assert _class_sum(a).tobytes() == a.sum(axis=-1).tobytes()

    @pytest.mark.parametrize("classes", REDUCTION_CLASSES)
    @pytest.mark.parametrize("rows", [7, 600])
    def test_bytes_of_numpys_max_and_sum_on_a_transposed_block(self, rows, classes):
        """The [b, C] transpose of a [C, b] block, as the column-layout decode makes it,
        reduces to the bytes of the row-major block's NumPy reductions."""
        a = class_block((rows, classes), seed=rows * 100 + classes + 1)
        columns = np.ascontiguousarray(a.T).T
        assert _class_max(columns).tobytes() == a.max(axis=-1).tobytes()
        assert _class_sum(columns).tobytes() == a.sum(axis=-1).tobytes()

    def test_ties_of_signed_zeros_are_covered(self):
        a = class_block((600, 3), seed=1)
        negative_zero = (a == 0.0) & np.signbit(a)
        positive_zero = (a == 0.0) & ~np.signbit(a)
        assert np.any((a.max(axis=-1) == 0.0) & negative_zero.any(axis=-1)
                      & positive_zero.any(axis=-1))
        assert np.any(negative_zero.all(axis=-1))

    def test_input_left_unmodified(self):
        a = class_block((64, 3), seed=2)
        before = a.tobytes()
        _class_max(a)
        _class_sum(a)
        assert a.tobytes() == before

    @pytest.mark.parametrize("classes", REDUCTION_CLASSES)
    @pytest.mark.parametrize("rows", REDUCTION_ROWS)
    def test_log_posterior_bytes_of_the_axis_reductions(self, rows, classes):
        decoder = DecoderModel(4, classes, hidden=(16,), seed=classes)
        rng = np.random.default_rng(rows + classes)
        z = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-3, 3, size=(rows, 1))
        assert (decoder._log_posterior(z).tobytes()
                == log_posterior_by_axis(decoder, z).tobytes())


class TestTapeFreeForward:
    """`encode`/`decode` run a plain forward that must give the tape's bits."""

    @pytest.mark.parametrize("rows", [1, 7, 4096])
    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("hidden", [(64,), (32, 16), (5,)])
    def test_decode_bit_equal_to_tape(self, hidden, classes, rows):
        decoder = DecoderModel(6, classes, hidden=hidden, seed=40 + classes)
        z = CounterRng(rows).normals(6 * rows).reshape(rows, 6) * 2.0
        assert np.array_equal(decoder.decode(z), np.exp(decoder_tape(decoder, z).data))

    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_encode_bit_equal_to_tape(self, rows):
        encoder = EncoderModel(3, 8, power=2.0, hidden=(64, 64), seed=44)
        x = CounterRng(rows + 1).normals(3 * rows).reshape(rows, 3) * 3.0
        assert np.array_equal(encoder.encode(x), encoder_tape(encoder, x).data)

    def test_vector_input_is_one_row(self):
        encoder = EncoderModel(3, 4, power=1.0, seed=45)
        decoder = DecoderModel(4, 3, seed=46)
        x = CounterRng(47).normals(3)
        z = encoder.encode(x)
        assert z.shape == (1, 4)
        assert np.array_equal(z, encoder.encode(x.reshape(1, 3)))
        assert np.array_equal(decoder.decode(z[0]), decoder.decode(z))

    def test_inputs_left_unmodified(self):
        encoder = EncoderModel(3, 4, power=1.0, hidden=(8,), seed=48)
        decoder = DecoderModel(4, 3, hidden=(), seed=49)
        x = CounterRng(50).normals(30).reshape(10, 3)
        z = CounterRng(51).normals(40).reshape(10, 4)
        x_before, z_before = x.copy(), z.copy()
        encoder.encode(x)
        decoder.decode(z)
        assert np.array_equal(x, x_before) and np.array_equal(z, z_before)

    def test_shape_errors_match_the_tape(self):
        """A wrong width, a [T, b, k] stack of batches, a 4-D input and a scalar are
        refused by both with one message."""
        decoder = DecoderModel(4, 3, seed=52)
        for bad in (np.zeros((2, 5)), np.zeros((1, 2, 4)), np.zeros((1, 1, 2, 4)),
                    np.float64(1.0)):
            with pytest.raises(ValueError) as tape_error:
                decoder.log_posterior_all(ad.Tensor(bad))
            with pytest.raises(ValueError) as plain_error:
                decoder.decode(bad)
            assert str(plain_error.value) == str(tape_error.value)

    def test_no_forward_takes_a_stack(self):
        """encode, the closed-form trace and decode refuse a [T, b, k] stack alike."""
        encoder = EncoderModel(3, 4, power=1.0, seed=45)
        decoder = DecoderModel(4, 3, seed=52)
        refused = "expected a vector or a batch of vectors, got shape"
        with pytest.raises(ValueError, match=rf"{refused} \(2, 5, 3\)"):
            encoder.encode(np.zeros((2, 5, 3)))
        with pytest.raises(ValueError, match=rf"{refused} \(2, 5, 4\)"):
            _ClosedForm(decoder, np.zeros((2, 5, 4)))
        with pytest.raises(ValueError, match=rf"{refused} \(2, 5, 4\)"):
            decoder.decode(np.zeros((2, 5, 4)))

    @pytest.mark.parametrize("trials, rows", [(6, 600), (1, 600), (7, 600), (2, 2_000),
                                              (20, 200)],
                             ids=["sweep-block", "last-block", "three-groups", "wide-batches",
                                  "narrow-trials"])
    @pytest.mark.parametrize("classes", [3, 9, 65])
    @pytest.mark.parametrize("hidden", [(), (64,)], ids=["depth-1", "depth-2"])
    def test_stack_is_the_bytes_of_its_slices(self, hidden, classes, trials, rows):
        """A sweep block of trials x rows of an 8-wide representation, on both sides of
        FOLD_CLASSES, written feature-major and decoded as one [8, trials * rows] array
        in column layout, as the sweep decodes it: each trial gets the log-posteriors of
        that trial decoded alone. The block's column slices span trial boundaries (7 x
        600 columns are five slices of 840), so this holds at these shapes, not at every
        shape: at 65 classes, 7 x 585 and 3 x 1,365 columns give other bits."""
        assert 3 < FOLD_CLASSES <= 9
        decoder = DecoderModel(8, classes, hidden=hidden, seed=60 + classes)
        block = CounterRng(trials + classes).normals(trials * rows * 8).reshape(trials, rows, 8)
        block *= 2.0
        columns = np.ascontiguousarray(block.transpose(2, 0, 1)).reshape(8, -1)
        log_q = decoder._log_posterior_columns(columns).reshape(trials, rows, -1)
        alone = np.stack([log_posterior_alone(decoder, trial) for trial in block])
        assert log_q.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("classes, columns", [
        *((classes, columns) for classes in (3, 9) for columns in (2, 7, 2001, 2049, 4096)),
        (65, 2), (65, 7), (65, 4096),
    ])
    def test_columns_are_the_bytes_of_a_large_batch(self, classes, columns):
        """The Taylor check's shapes, an 8-wide representation and a 64-wide hidden
        layer: the column forward of [8, b] columns gives, as the [b, C] transpose of a
        [C, b] array, the log-posteriors of the same rows in a 16,384-row batch. It runs
        in slices of at most 1,024 columns, so 2,001 and 2,049 columns keep the bits too,
        where one product of that many columns would not (README, "Memory"). At 65
        classes the [65, 64] @ [64, b] product keeps them only at some widths."""
        decoder = DecoderModel(8, classes, hidden=(64,), seed=62 + classes)
        rows = CounterRng(columns).normals(16384 * 8).reshape(16384, 8) * 2.0
        log_q = decoder._log_posterior_columns(np.ascontiguousarray(rows[:columns].T))
        assert log_q.shape == (columns, classes) and log_q.T.flags.c_contiguous
        assert log_q.tobytes() == decoder._log_posterior(rows)[:columns].tobytes()

    def test_column_slices(self):
        """The fewest slices of at most SLICE_COLUMNS columns, every one but the last a
        multiple of 8 wide, none of one column unless the input is: 2,049 columns are
        688 + 680 + 681, not 1,024 + 1,024 + 1."""
        assert _column_slices(2_049) == [(0, 688), (688, 1_368), (1_368, 2_049)]
        for columns in [*range(1, 3 * SLICE_COLUMNS), 16_384, 130_049, 200_001]:
            slices = _column_slices(columns)
            widths = [stop - start for start, stop in slices]
            assert slices[0][0] == 0 and slices[-1][1] == columns, columns
            assert all(a[1] == b[0] for a, b in zip(slices, slices[1:])), columns
            assert len(slices) == -(-columns // SLICE_COLUMNS), columns
            assert max(widths) <= SLICE_COLUMNS and min(widths) >= min(columns, 2), columns
            assert all(width % 8 == 0 for width in widths[:-1]), columns

    def test_columns_are_checked_finite(self):
        """A non-finite input, an overflowing layer, and finite logits 2e308 apart, in
        column layout."""
        decoder = DecoderModel(4, 3, hidden=(8,), seed=56)
        z = CounterRng(57).normals(8).reshape(4, 2)
        z_nan = z.copy()
        z_nan[1, 1] = np.nan
        huge = copy.deepcopy(decoder)
        for tensor in huge.params.values():
            tensor.data *= 1e200
        spread = DecoderModel(2, 2, hidden=(), seed=60)
        spread.params["W0"].data[:] = np.eye(2)
        spread.params["b0"].data[:] = 0.0
        z_spread = np.array([[1e308, 0.0], [-1e308, 0.0]])
        for model, columns in ((decoder, z_nan), (huge, z), (spread, z_spread)):
            with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                          match="non-finite"):
                model._log_posterior_columns(columns)

    @pytest.mark.parametrize("rows", [7, 600])
    def test_memory_order_does_not_change_the_bits(self, rows):
        """decode takes the row-major path whatever the memory order of its batch."""
        decoder = DecoderModel(8, 3, hidden=(64,), seed=63)
        z = CounterRng(rows).normals(rows * 8).reshape(rows, 8) * 2.0
        assert np.array_equal(decoder.decode(z), decoder.decode(np.asfortranarray(z)))

    def test_builds_no_tensor(self, tensors_built_by):
        encoder = EncoderModel(3, 4, power=1.0, seed=53)
        decoder = DecoderModel(4, 3, seed=54)
        x = CounterRng(55).normals(30).reshape(10, 3)
        assert tensors_built_by(lambda: decoder.decode(encoder.encode(x))) == 0

    # numpy's own overflow reporting is off here, so only the models' checks can raise.
    def test_overflowing_decoder_raises(self):
        decoder = DecoderModel(4, 3, hidden=(8,), seed=56)
        for tensor in decoder.params.values():
            tensor.data *= 1e200
        z = CounterRng(57).normals(8).reshape(2, 4)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            decoder.decode(z)

    def test_overflowing_encoder_raises(self):
        encoder = EncoderModel(3, 4, power=1.0, hidden=(8,), seed=58)
        for tensor in encoder.params.values():
            tensor.data *= 1e200
        x = CounterRng(59).normals(6).reshape(2, 3)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            encoder.encode(x)

    def test_logit_spread_past_the_largest_double_raises(self):
        """Finite logits 2e308 apart overflow the max shift of the log-softmax."""
        decoder = DecoderModel(2, 2, hidden=(), seed=60)
        decoder.params["W0"].data[:] = np.eye(2)
        decoder.params["b0"].data[:] = 0.0
        z = np.array([[1e308, -1e308]])
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError):
                decoder.log_posterior_all(ad.Tensor(z))
            with pytest.raises(FloatingPointError, match="non-finite"):
                decoder.decode(z)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_raises(self, value):
        decoder = DecoderModel(2, 2, seed=61)
        with pytest.raises(FloatingPointError, match="non-finite"):
            decoder.decode(np.array([[0.0, value]]))


def node_and_tape_gradients(node, reference, parents, upstream):
    """(node's, tape's) gradient of sum(upstream * output) for each parent: the node's
    through the library's `backward`, the reference tape's through its own."""
    got = ad.backward(weighted_sum(node, upstream), parents)
    expected = backward(sum_all(mul(reference, upstream)), parents)
    return [(got[p], expected[p].data) for p in parents]


def benchmark_shapes():
    """Rings (2 features, 3 classes), k = 8, encoder 64-64, decoder 64, a 64-row batch
    and its L = 4 noisy copies, at initialization."""
    data = make_rings(3, 64, 0.15, seed=1)
    encoder = EncoderModel(2, 8, power=1.0, hidden=(64, 64), seed=2)
    decoder = DecoderModel(8, 3, hidden=(64,), seed=3)
    x = data.features[:64]
    noise = 0.1 * CounterRng(4).normals(256 * 8).reshape(256, 8)
    return encoder, decoder, x, np.tile(encoder.encode(x), (4, 1)) + noise


class TestClosedFormNodes:
    """`forward_node` and `log_posterior_all` against the tests' tape forward: the value
    and every parent's gradient under a per-entry upstream weight."""

    def test_bit_equal_to_tape_on_the_benchmark_shapes(self):
        encoder, decoder, x, z_hat = benchmark_shapes()
        node, reference = encoder.forward_node(x), encoder_tape(encoder, x)
        assert np.array_equal(node.data, reference.data)
        upstream = CounterRng(5).normals(64 * 8).reshape(64, 8)
        params = list(encoder.params.values())
        for got, expected in node_and_tape_gradients(node, reference, params, upstream):
            assert np.array_equal(got, expected)

        z_node = ad.Tensor(z_hat)
        node, reference = decoder.log_posterior_all(z_node), decoder_tape(decoder, z_node)
        assert np.array_equal(node.data, reference.data)
        upstream = CounterRng(6).normals(256 * 3).reshape(256, 3)
        parents = [z_node, *decoder.params.values()]
        for got, expected in node_and_tape_gradients(node, reference, parents, upstream):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("hidden", [(8,), (8, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_encoder_within_1e12_of_tape(self, seed, hidden):
        encoder = EncoderModel(3, 4, power=2.0, hidden=hidden, seed=900 + seed)
        rng = CounterRng(910 + seed)
        for tensor in encoder.params.values():
            tensor.data += 0.5 * rng.normals(tensor.data.size).reshape(tensor.data.shape)
        x = rng.normals(15).reshape(5, 3)
        node, reference = encoder.forward_node(x), encoder_tape(encoder, x)
        assert max_rel_err(node.data, reference.data, floor=np.abs(reference.data).max()) <= 1e-12
        upstream = rng.normals(20).reshape(5, 4)
        params = list(encoder.params.values())
        for got, expected in node_and_tape_gradients(node, reference, params, upstream):
            assert max_rel_err(got, expected, floor=np.abs(expected).max()) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k,classes,hidden", STACKED_SHAPES)
    def test_decoder_within_1e12_of_tape(self, seed, k, classes, hidden):
        decoder = random_decoder(920 + seed, repr_dim=k, classes=classes, hidden=hidden)
        z_node = ad.Tensor(CounterRng(930 + seed).normals(5 * k).reshape(5, k))
        node, reference = decoder.log_posterior_all(z_node), decoder_tape(decoder, z_node)
        assert max_rel_err(node.data, reference.data, floor=np.abs(reference.data).max()) <= 1e-12
        upstream = CounterRng(940 + seed).normals(5 * classes).reshape(5, classes)
        parents = [z_node, *decoder.params.values()]
        for got, expected in node_and_tape_gradients(node, reference, parents, upstream):
            assert max_rel_err(got, expected, floor=max(np.abs(expected).max(), 1e-300)) <= 1e-12

    def test_vector_input_and_vector_leaf(self):
        encoder = EncoderModel(3, 4, power=1.0, hidden=(8,), seed=950)
        decoder = DecoderModel(4, 3, hidden=(8,), seed=951)
        x = CounterRng(952).normals(3)
        node = encoder.forward_node(x)
        assert node.data.shape == (1, 4)
        assert np.array_equal(node.data, encoder.encode(x))
        z_node = ad.Tensor(node.data[0])
        node, reference = decoder.log_posterior_all(z_node), decoder_tape(decoder, z_node)
        assert node.data.shape == (1, 3) and np.array_equal(node.data, reference.data)
        upstream = np.array([[0.5, -1.0, 2.0]])
        (got, expected), *_ = node_and_tape_gradients(node, reference, [z_node], upstream)
        assert got.shape == (4,) and np.array_equal(got, expected)

    def test_each_node_is_one_tensor(self, tensors_built_by):
        encoder, decoder, x, z_hat = benchmark_shapes()
        z_node = ad.Tensor(z_hat)
        assert tensors_built_by(encoder.forward_node, x) == 1
        assert tensors_built_by(decoder.log_posterior_all, z_node) == 1


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        encoder = EncoderModel(5, 4, power=2.5, hidden=(16, 8), seed=21)
        decoder = DecoderModel(4, 6, hidden=(12,), seed=22)
        # Perturb away from init so the round trip is not trivially zeros.
        for model in (encoder, decoder):
            for name, tensor in model.params.items():
                tensor.data += CounterRng(99).normals(tensor.data.size).reshape(tensor.data.shape)
        path = tmp_path / "ckpt.json"
        normalizer = Normalizer(mean=np.full(5, 0.25), std=np.full(5, 1.75))
        save_checkpoint(path, encoder, decoder, normalizer=normalizer)
        enc2, dec2, norm = load_checkpoint(path)
        assert enc2.sizes == encoder.sizes and dec2.sizes == decoder.sizes
        assert enc2.power == encoder.power
        assert norm.to_dict() == normalizer.to_dict()
        for original, loaded in ((encoder, enc2), (decoder, dec2)):
            for name, tensor in original.params.items():
                np.testing.assert_array_equal(loaded.params[name].data, tensor.data)

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_posteriors_identical_after_reload(self, tmp_path):
        encoder = EncoderModel(3, 4, power=1.0, seed=30)
        decoder = DecoderModel(4, 3, seed=31)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, encoder, decoder)
        enc2, dec2, _ = load_checkpoint(path)
        x = CounterRng(12).normals(30).reshape(10, 3)
        np.testing.assert_array_equal(decoder.decode(encoder.encode(x)),
                                      dec2.decode(enc2.encode(x)))

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        """The models are built from the stored arrays: no Glorot word is drawn."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, EncoderModel(3, 4, power=1.0, seed=30), DecoderModel(4, 3, seed=31))
        words, uniforms = [], CounterRng.uniforms

        def spy(rng, n):
            words.append(n)
            return uniforms(rng, n)

        monkeypatch.setattr(CounterRng, "uniforms", spy)
        encoder, decoder, _ = load_checkpoint(path)
        assert words == []
        assert [name for name in encoder.params] == ["W0", "b0", "W1", "b1", "W2", "b2"]
        assert [name for name in decoder.params] == ["W0", "b0", "W1", "b1"]

    def test_decoder_must_take_the_encoders_representations(self, tmp_path):
        """A decoder 5 wide over an encoder of 4 outputs, each model consistent in itself."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, EncoderModel(3, 4, power=1.0, seed=30), DecoderModel(5, 3, seed=31))
        with pytest.raises(ValueError, match="the decoder takes representations of "
                                             "dimension 5, the encoder makes 4"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, index, fault", [
        ("encoder", 0, True), ("encoder", 1, "0.25"), ("decoder", 0, False),
        ("mean", 0, "0"), ("std", 0, "2.5"), ("std", 1, True),
    ])
    def test_only_json_numbers_load(self, tmp_path, section, index, fault):
        """A parameter or normalizer entry that is not a JSON number is refused, though
        NumPy would read true, false and "0.25" as numbers."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, EncoderModel(2, 2, power=1.0, hidden=(2,), seed=3),
                        DecoderModel(2, 2, hidden=(2,), seed=4),
                        normalizer=Normalizer(mean=np.zeros(2), std=np.ones(2)))
        doc = json.loads(path.read_text())
        entries = (doc[section]["params"] if section in ("encoder", "decoder")
                   else doc["normalizer"][section])
        entries[index] = fault
        path.write_text(json.dumps(doc))
        name = f"{section}.params" if section in ("encoder", "decoder") else f"normalizer {section}"
        with pytest.raises(ValueError, match=f"{name} must be a list of numbers"):
            load_checkpoint(path)

    def test_every_value_replaced_by_a_fault_loads_or_is_a_value_error(self, tmp_path):
        """Each value of a valid checkpoint's JSON, containers and leaves, is replaced
        in turn by each fault; the load returns or raises ValueError, never another
        exception (10**400 is an integer too large for a float)."""
        encoder = EncoderModel(2, 2, power=1.0, hidden=(2,), seed=3)
        decoder = DecoderModel(2, 2, hidden=(2,), seed=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, encoder, decoder)
        doc = json.loads(path.read_text())
        doc["normalizer"] = {"mean": [0.0, 0.5], "std": [1.0, 2.0]}

        def places(node, where=()):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, child in items:
                yield (*where, key)
                yield from places(child, (*where, key))

        escaped, loads = [], 0
        for where in places(doc):
            for fault in (None, "x", True, 10**400, -1, 0, [], {}, 1e308):
                bad = copy.deepcopy(doc)
                parent = bad
                for key in where[:-1]:
                    parent = parent[key]
                parent[where[-1]] = fault
                path.write_text(json.dumps(bad))
                loads += 1
                try:
                    load_checkpoint(path)
                except ValueError:
                    pass
                except Exception as exc:    # noqa: BLE001 - any other class is the defect
                    escaped.append(f"{'/'.join(map(str, where))} = {reprlib.repr(fault)}: "
                                   f"{exc!r}")
        assert loads > 400 and escaped == []
