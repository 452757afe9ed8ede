import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcatalog import primitive_cases
from oracles import grad_check
from sarcse import autodiff
from sarcse.autodiff import (
    ShapeError,
    Tensor,
    backward,
    conv1d_valid,
    conv2d_valid,
    dropout,
    embedding_lookup,
    max_pool_time,
    max_unpool_time,
    stack_rows,
    transposed_conv1d,
    transposed_conv2d,
)
from sarcse.losses import info_nce, reconstruction_loss


def t(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestElementwise:
    def test_add(self):
        np.testing.assert_array_equal((t([1, 2]) + t([3, 4])).data, [4, 6])

    def test_shape_mismatch_names_primitive(self):
        with pytest.raises(ShapeError, match="reshape"):
            t(np.ones((2, 3))).reshape(4)

    @pytest.mark.parametrize("op,name", [(lambda a, b: a + b, "add"), (lambda a, b: a * b, "multiply")])
    @pytest.mark.parametrize("other", [t(np.ones((1, 3))), t(np.ones(3)), t(2.0), np.ones((3, 2))])
    def test_operands_of_different_shapes_do_not_broadcast(self, op, name, other):
        with pytest.raises(ShapeError, match=rf"^{name}: operand shapes \(2, 3\) and"):
            op(t(np.ones((2, 3)), grad=True), other)

    @pytest.mark.parametrize("scalar", [np.float32(2), 2.0, 2, np.int64(2)])
    def test_scalar_operands_keep_the_scalar_path(self, scalar):
        x = Tensor(np.array([1.0, -3.0], dtype=np.float32), requires_grad=True)
        y = x * scalar
        assert y.dtype == np.float32
        np.testing.assert_array_equal(y.data, [2.0, -6.0])
        grads = backward(y.sum())
        assert grads.wrt(x).dtype == np.float32
        np.testing.assert_array_equal(grads.wrt(x), [2.0, 2.0])

    @pytest.mark.parametrize("other", [2.0, np.float32(2), np.ones(3), np.ones(3, dtype=np.float32), np.array(2.0)])
    def test_add_takes_only_a_tensor(self, other):
        with pytest.raises(ShapeError, match=r"^add: operand shapes \(3,\) and"):
            Tensor(np.ones(3, dtype=np.float32), requires_grad=True) + other

    @pytest.mark.parametrize("other", [np.ones(3), np.ones(3, dtype=np.float32), np.array(2.0), [1.0, 2.0, 3.0]])
    def test_multiply_takes_no_array(self, other):
        with pytest.raises(ShapeError, match=r"^multiply: operand shapes \(3,\) and"):
            Tensor(np.ones(3, dtype=np.float32), requires_grad=True) * other

    @pytest.mark.parametrize("op,name", [(lambda a, b: a + b, "add"), (lambda a, b: a * b, "multiply")])
    def test_operand_requiring_grad_of_another_dtype_is_refused(self, op, name):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(TypeError, match=rf"^{name}: operand dtypes float32 and float64 differ"):
            op(x, t(np.ones(3), grad=True))
        with pytest.raises(TypeError, match=rf"^{name}: operand dtypes float64 and float32 differ"):
            op(t(np.ones(3)), x)

    @pytest.mark.parametrize("other", [np.int8(2), np.float16(2), np.float64(2.0), np.int64(2)])
    def test_constants_take_the_tensor_dtype(self, other):
        """A scalar factor is cast to the tensor's dtype, whatever its own."""
        x = Tensor(np.array([1.0, -3.0], dtype=np.float32), requires_grad=True)
        y = x * other
        assert y.dtype == np.float32 and backward(y.sum()).wrt(x).dtype == np.float32
        np.testing.assert_array_equal(y.data, [2.0, -6.0])

    @pytest.mark.parametrize("op,name", [(lambda a, b: a + b, "add"), (lambda a, b: a * b, "multiply")])
    def test_constant_of_another_dtype_is_refused(self, op, name):
        """A float64 constant meets the graph's dtype rule: no silent cast."""
        x = Tensor(np.array([1.0, -3.0], dtype=np.float32), requires_grad=True)
        with pytest.raises(TypeError, match=rf"^{name}: operand dtypes float32 and float64 differ"):
            op(x, t(np.full(2, 2.0)))


def _f32(*shape):
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)


MIXED_DTYPE_CALLS = {     # each takes a maker of float64 inputs
    "conv1d_valid": lambda x: conv1d_valid(x(5, 3), _f32(2, 2, 3), _f32(2), [5]),
    "transposed_conv1d": lambda x: transposed_conv1d(x(4, 2), _f32(2, 2, 3), _f32(3), [4]),
    "conv2d_valid": lambda x: conv2d_valid(x(1, 3, 4), _f32(2, 2, 2), _f32(2)),
    "transposed_conv2d": lambda x: transposed_conv2d(x(1, 2, 2, 3), _f32(2, 2, 2), _f32(1)),
    "stack_rows": lambda x: stack_rows([x(2, 3), _f32(2, 3)]),
    "info_nce": lambda x: info_nce(x(2, 3), _f32(2, 3), 0.1),
    "reconstruction_loss": lambda x: reconstruction_loss(x(3, 2), _f32(3, 2), np.ones(3), np.ones(3, bool), [3]),
}


@pytest.mark.parametrize("name", list(MIXED_DTYPE_CALLS))
@pytest.mark.parametrize("grad", [False, True], ids=["const", "grad"])
def test_float64_input_with_float32_operands_requiring_grad_is_refused(name, grad):
    """The graph's dtype rule holds for every primitive, not only `+` and `*`:
    no op promotes float32 operands that require grad to float64."""
    def x(*shape):
        return Tensor(np.linspace(1.0, 2.0, int(np.prod(shape))).reshape(shape), requires_grad=grad)

    with pytest.raises(TypeError, match=rf"^{name}: operand dtypes float64 and float32 differ"):
        MIXED_DTYPE_CALLS[name](x)


class TestConv1d:
    def test_hand_convolution(self):
        out = conv1d_valid(t([[1.0], [2.0], [3.0]]), t([[[1.0], [1.0]]]), t([0.0]), [3])
        np.testing.assert_array_equal(out.data, [[3.0], [5.0]])

    def test_identity_kernel(self):
        x = t(np.random.default_rng(2).normal(size=(4, 1)))
        out = conv1d_valid(x, t([[[1.0]]]), t([0.0]), [4])
        np.testing.assert_array_equal(out.data, x.data)

    def test_shape_rule(self):
        out = conv1d_valid(t(np.ones((5, 2))), t(np.ones((7, 3, 2))), t(np.zeros(7)), [5])
        assert out.shape == (3, 7)

    def test_too_short_sequence(self):
        with pytest.raises(ShapeError, match="each at least 3"):
            conv1d_valid(t(np.ones((7, 1))), t(np.ones((1, 3, 1))), t(np.zeros(1)), [5, 2])

    def test_lengths_must_split_the_rows(self):
        with pytest.raises(ShapeError, match=r"\[5, 3\] must split 7 rows"):
            conv1d_valid(t(np.ones((7, 1))), t(np.ones((1, 3, 1))), t(np.zeros(1)), [5, 3])

    def test_ragged_hand_convolution(self):
        x = t([[1.0], [2.0], [3.0], [10.0], [20.0]])
        out = conv1d_valid(x, t([[[1.0], [1.0]]]), t([0.5]), [3, 2])
        np.testing.assert_array_equal(out.data, [[3.5], [5.5], [30.5]])


class TestTransposedConv1d:
    def test_hand_scatter_add(self):
        out = transposed_conv1d(t([[1.0], [1.0]]), t([[[1.0], [1.0]]]), t([0.0]), [2])
        np.testing.assert_array_equal(out.data, [[1.0], [2.0], [1.0]])

    def test_identity_kernel(self):
        x = t(np.random.default_rng(3).normal(size=(4, 1)))
        out = transposed_conv1d(x, t([[[1.0]]]), t([0.0]), [4])
        np.testing.assert_array_equal(out.data, x.data)

    def test_shape_rule(self):
        out = transposed_conv1d(t(np.ones((3, 6))), t(np.ones((6, 3, 8))), t(np.zeros(8)), [3])
        assert out.shape == (5, 8)

    def test_ragged_hand_scatter_add(self):
        out = transposed_conv1d(t([[1.0], [1.0], [5.0]]), t([[[1.0], [2.0]]]), t([0.0]), [2, 1])
        np.testing.assert_array_equal(out.data, [[1.0], [3.0], [2.0], [5.0], [10.0]])

    def test_adjoint_of_conv(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.integers(5, 12)
            d = rng.integers(1, 5)
            ks = rng.integers(1, min(6, p + 1))
            c = rng.integers(1, 7)
            u = rng.normal(size=(p, d))
            v = rng.normal(size=(p - ks + 1, c))
            k = rng.normal(size=(c, ks, d))
            zero_c, zero_d = t(np.zeros(c)), t(np.zeros(d))
            lhs = float((conv1d_valid(t(u), t(k), zero_c, [p]).data * v).sum())
            rhs = float((transposed_conv1d(t(v), t(k), zero_d, [p - ks + 1]).data * u).sum())
            assert abs(lhs - rhs) < 1e-10


class TestPackedConv1d:
    def test_adjoint_identity_over_ragged_lengths(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            ks = int(rng.integers(1, 6))
            c = int(rng.integers(1, 8))
            lengths = np.sort(rng.integers(max(ks, 5), 13, size=int(rng.integers(1, 6))))
            u = rng.normal(size=(lengths.sum(), d))
            v = rng.normal(size=((lengths - ks + 1).sum(), c))
            k = rng.normal(size=(c, ks, d))
            lhs = float((conv1d_valid(t(u), t(k), t(np.zeros(c)), lengths).data * v).sum())
            rhs = float((transposed_conv1d(t(v), t(k), t(np.zeros(d)), lengths - ks + 1).data * u).sum())
            assert abs(lhs - rhs) <= 1e-10

    def test_rows_equal_sentence_alone_at_paper_width(self):
        # enc_channels=500 in float32, where BLAS rounds a row differently
        # as the GEMM's row count changes
        rng = np.random.default_rng(21)
        lengths = np.array([5, 5, 5, 7, 9, 9, 12, 31])
        d, c, ks = 32, 500, 4
        x = rng.normal(size=(lengths.sum(), d)).astype(np.float32)
        h = rng.normal(size=(lengths.sum(), c)).astype(np.float32)
        k = Tensor(rng.normal(size=(c, ks, d)).astype(np.float32))
        conv_bias, tconv_bias = Tensor(np.zeros(c, np.float32)), Tensor(np.zeros(d, np.float32))
        conv = conv1d_valid(Tensor(x), k, conv_bias, lengths).data
        tconv = transposed_conv1d(Tensor(h), k, tconv_bias, lengths).data
        start = 0
        for i, n in enumerate(lengths):
            alone = conv1d_valid(Tensor(x[start:start + n]), k, conv_bias, [n]).data
            rows = conv[start - i * (ks - 1):][:n - ks + 1]
            assert rows.tobytes() == alone.tobytes()
            alone = transposed_conv1d(Tensor(h[start:start + n]), k, tconv_bias, [n]).data
            rows = tconv[start + i * (ks - 1):][:n + ks - 1]
            assert rows.tobytes() == alone.tobytes()
            start += n

    @pytest.mark.parametrize("dtype,c,tol", [(np.float64, 7, 1e-12), (np.float32, 500, 1e-5)])
    def test_input_adjoints_are_the_partner_forwards(self, dtype, c, tol):
        """Each 1-d VJP's input adjoint, one GEMM over all rows, equals its
        partner run forward on the output adjoint with a zero bias, over
        ragged lengths in several runs."""
        rng = np.random.default_rng(31)
        lengths = np.array([5, 5, 6, 9, 9, 9, 13, 31])
        d = 32
        for ks in (1, 3, 5):
            k = Tensor(rng.normal(size=(c, ks, d)).astype(dtype), requires_grad=True)
            narrow = lengths - ks + 1
            x = Tensor(rng.normal(size=(lengths.sum(), d)).astype(dtype), requires_grad=True)
            h = Tensor(rng.normal(size=(narrow.sum(), c)).astype(dtype), requires_grad=True)
            g_conv = rng.normal(size=(narrow.sum(), c)).astype(dtype)
            g_tconv = rng.normal(size=(lengths.sum(), d)).astype(dtype)
            zeros_c, zeros_d = Tensor(np.zeros(c, dtype)), Tensor(np.zeros(d, dtype))
            gx = conv1d_valid(x, k, zeros_c, lengths)._vjp(g_conv)[0]
            gh = transposed_conv1d(h, k, zeros_d, narrow)._vjp(g_tconv)[0]
            assert gx.dtype == gh.dtype == dtype
            partner_x = transposed_conv1d(Tensor(g_conv), k, zeros_d, narrow).data
            partner_h = conv1d_valid(Tensor(g_tconv), k, zeros_c, lengths).data
            for got, want in ((gx, partner_x), (gh, partner_h)):
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())

    def test_pair_of_one_width_shares_a_layout(self):
        autodiff._layout.cache_clear()
        lengths = np.array([5, 7, 7])
        k, x = t(np.ones((2, 3, 4))), t(np.ones((19, 4)))
        h = conv1d_valid(x, k, t(np.zeros(2)), lengths)
        transposed_conv1d(h, k, t(np.zeros(4)), lengths - 2)
        info = autodiff._layout.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestEmbeddingLookup:
    def test_table_gradient_sums_repeated_ids(self):
        rng = np.random.default_rng(17)
        ids = np.array([[3, 1, 3, 0, 0], [1, 5, 3, 3, 0], [2, 0, 0, 0, 0]])    # repeats, PAD 0
        w = Tensor(rng.normal(size=(7, 4)).astype(np.float32), requires_grad=True)
        out = embedding_lookup(w, ids)
        g = rng.normal(size=out.shape).astype(np.float32)
        (gw,) = out._vjp(g)
        want = np.zeros_like(w.data)
        np.add.at(want, ids, g)
        assert gw.dtype == np.float32
        np.testing.assert_allclose(gw, want, rtol=1e-6, atol=1e-6)
        np.testing.assert_array_equal(gw[[4, 6]], 0.0)

    def test_no_ids_give_a_zero_gradient(self):
        w = t(np.ones((3, 2)), grad=True)
        (gw,) = embedding_lookup(w, np.zeros((0, 4), dtype=np.int64))._vjp(np.zeros((0, 4, 2)))
        np.testing.assert_array_equal(gw, np.zeros((3, 2)))


class TestConv2d:
    def test_shape_rule(self):
        out = conv2d_valid(t(np.ones((1, 3, 64))), t(np.ones((3, 3, 2))), t(np.zeros(3)))
        assert out.shape == (1, 3, 1, 63)

    def test_one_by_one_identity(self):
        x = t(np.random.default_rng(5).normal(size=(1, 4, 6)))
        out = conv2d_valid(x, t(np.ones((1, 1, 1))), t(np.zeros(1)))
        np.testing.assert_array_equal(out.data[:, 0], x.data)

    def test_all_ones_two_by_two(self):
        out = conv2d_valid(t(np.ones((1, 2, 2))), t(np.ones((1, 2, 2))), t(np.zeros(1)))
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_transposed_round_shape(self):
        out = transposed_conv2d(t(np.ones((1, 3, 1, 63))), t(np.ones((3, 3, 2))), t(np.zeros(1)))
        assert out.shape == (1, 3, 64)

    def test_adjoint_of_conv(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            nb, r, c = rng.integers(1, 3), rng.integers(1, 6), rng.integers(1, 9)
            kh, kw = rng.integers(1, r + 1), rng.integers(1, c + 1)
            c_out = rng.integers(1, 5)
            u = rng.normal(size=(nb, r, c))
            v = rng.normal(size=(nb, c_out, r - kh + 1, c - kw + 1))
            k = rng.normal(size=(c_out, kh, kw))
            lhs = float((conv2d_valid(t(u), t(k), t(np.zeros(c_out))).data * v).sum())
            rhs = float((transposed_conv2d(t(v), t(k), t(np.zeros(1))).data * u).sum())
            assert abs(lhs - rhs) < 1e-10

    def test_undersized_plane(self):
        with pytest.raises(ShapeError, match="conv2d_valid"):
            conv2d_valid(t(np.ones((1, 2, 1))), t(np.ones((1, 3, 2))), t(np.zeros(1)))


class TestPooling:
    def test_hand_pool(self):
        values, idx = max_pool_time(t([[1.0, 5.0], [3.0, 2.0]]), [2])
        np.testing.assert_array_equal(values.data, [[3.0, 5.0]])
        np.testing.assert_array_equal(idx, [[1, 0]])

    def test_single_row(self):
        values, idx = max_pool_time(t([[2.0, -1.0, 0.5]]), [1])
        np.testing.assert_array_equal(values.data, [[2.0, -1.0, 0.5]])
        np.testing.assert_array_equal(idx, [[0, 0, 0]])

    def test_tie_takes_lowest_index(self):
        _, idx = max_pool_time(t([[2.0], [2.0]]), [2])
        assert idx[0, 0] == 0

    def test_ragged_positions_count_from_each_sentence(self):
        values, idx = max_pool_time(t([[1.0], [3.0], [9.0], [2.0], [7.0]]), [2, 1, 2])
        np.testing.assert_array_equal(values.data, [[3.0], [9.0], [7.0]])
        np.testing.assert_array_equal(idx, [[1], [0], [1]])

    def test_unpool_inverse_of_pool(self):
        values, idx = max_pool_time(t([[1.0, 5.0], [3.0, 2.0]]), [2])
        restored = max_unpool_time(values, idx, [2])
        np.testing.assert_array_equal(restored.data, [[0.0, 5.0], [3.0, 0.0]])
        values2, idx2 = max_pool_time(restored, [2])
        np.testing.assert_array_equal(values2.data, values.data)
        np.testing.assert_array_equal(idx2, idx)

    def test_unpool_single_position(self):
        out = max_unpool_time(t([[4.0, 7.0]]), np.array([[0, 0]]), [1])
        np.testing.assert_array_equal(out.data, [[4.0, 7.0]])

    def test_unpool_index_out_of_range(self):
        with pytest.raises(IndexError):
            max_unpool_time(t([[1.0], [1.0]]), np.array([[1], [3]]), [2, 3])

    def test_nan_column_takes_first_nan(self):
        """A run whose max is NaN pools as argmax does: the first NaN wins,
        and the run's other sentences and columns keep their maxima. The run
        is big enough for max, then first hit."""
        x = np.arange(5000, dtype=np.float32).reshape(10, 500) * 7919 % 13
        x[[2, 4], 1] = np.nan     # sentence 0, rows 2 and 4
        x[8, 0] = np.nan           # sentence 1, row 3
        assert x.size >= autodiff._FIRST_HIT_MIN
        values, idx = max_pool_time(Tensor(x), [5, 5])
        expected = np.stack([x[:5].argmax(axis=0), x[5:].argmax(axis=0)])
        np.testing.assert_array_equal(idx, expected)
        assert idx[0, 1] == 2 and idx[1, 0] == 3
        assert values.data.tobytes() == x[expected + [[0], [5]], np.arange(500)].tobytes()

    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_long_sentence_keeps_the_first_hit(self, n):
        """Past 255 rows the weights n..1 outgrow uint8; of each column's
        two tied maxima the first still wins."""
        x = np.zeros((n, 32), dtype=np.float32)
        x[-1] = 1.0
        x[7 * np.arange(32), np.arange(32)] = 1.0
        assert x.size >= autodiff._FIRST_HIT_MIN
        _, idx = max_pool_time(Tensor(x), [n])
        np.testing.assert_array_equal(idx[0], 7 * np.arange(32))


def _tied_rows(rng: np.random.Generator, n: int, c: int, ties: str, dtype) -> np.ndarray:
    """An n x c sentence map whose column maxima tie in the way `ties` names."""
    rows = rng.standard_normal((n, c)).astype(dtype)
    if ties == "duplicate rows":
        rows[rng.integers(n, size=n)] = rows[rng.integers(n, size=n)]
    elif ties == "constant columns":
        cols = rng.random(c) < 0.5
        rows[:, cols] = rows[0, cols]
    elif ties == "signed zeros":     # maxima of 0.0 and -0.0, mixed
        rows = -np.abs(rows)
        zeros = rng.random((n, c)) < 0.4
        rows[zeros] = np.where(rng.random((n, c)) < 0.5, -0.0, 0.0)[zeros]
    return rows


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    c=st.sampled_from([1, 64, 500]),
    dtype=st.sampled_from([np.float32, np.float64]),
    ties=st.sampled_from(["none", "duplicate rows", "constant columns", "signed zeros"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pool_is_each_sentences_argmax(lengths, c, dtype, ties, seed):
    """On packed maps, max_pool_time's indices are each sentence's own
    argmax(axis=0), ties to the lowest row, and its values are those
    entries, bit for bit; runs both below and above _FIRST_HIT_MIN entries."""
    rng = np.random.default_rng(seed)
    sentences = [_tied_rows(rng, n, c, ties, dtype) for n in lengths]
    values, idx = max_pool_time(Tensor(np.concatenate(sentences)), lengths)
    expected = np.stack([rows.argmax(axis=0) for rows in sentences])
    np.testing.assert_array_equal(idx, expected)
    picked = np.stack([rows[i, np.arange(c)] for rows, i in zip(sentences, expected)])
    assert values.dtype == dtype and values.data.tobytes() == picked.tobytes()


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = t([[1.0, 2.0]])
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_unbiased_expectation(self):
        # mean of inverted dropout over n draws is within 3 sigma of the input
        n, p = 20_000, 0.3
        rng = np.random.default_rng(42)
        draws = np.array([dropout(t([1.0]), p, rng).data[0] for _ in range(n)])
        sigma = np.sqrt(p / (1.0 - p)) / np.sqrt(n)
        assert abs(draws.mean() - 1.0) < 3.0 * sigma

    def test_same_rng_state_same_mask(self):
        x = t(np.random.default_rng(1).normal(size=(8, 8)))
        a = dropout(x, 0.5, np.random.default_rng(99)).data
        b = dropout(x, 0.5, np.random.default_rng(99)).data
        np.testing.assert_array_equal(a, b)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(t([1.0]), 1.0, np.random.default_rng(0))


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.random.default_rng(6).normal(size=(3, 4)), grad=True)
        grads = backward(x.sum())
        np.testing.assert_array_equal(grads.wrt(x), np.ones((3, 4)))

    def test_product_of_scalars(self):
        x, y = t(3.0, grad=True), t(5.0, grad=True)
        grads = backward(x * y)
        assert float(grads.wrt(x)) == 5.0
        assert float(grads.wrt(y)) == 3.0

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0], grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(x + x)

    def test_absent_entries_are_zero(self):
        x = t([1.0], grad=True)
        y = t([1.0], grad=True)
        grads = backward(x.sum())
        np.testing.assert_array_equal(grads.wrt(y), [0.0])

    def test_constant_loss_has_zero_gradients(self):
        x = t([1.0, 2.0])
        grads = backward(x.sum() * 3.0)
        np.testing.assert_array_equal(grads.wrt(x), [0.0, 0.0])

    def test_reused_node_accumulates(self):
        x = t(2.0, grad=True)
        grads = backward(x * x + x * 3.0)
        assert float(grads.wrt(x)) == pytest.approx(2 * 2.0 + 3.0)


class TestGradCheck:
    def test_quadratic(self):
        err = grad_check(lambda a: (a * a).sum(), [np.array([1.0, -2.0, 3.0])])
        assert err < 1e-9

    @pytest.mark.parametrize("name,f,arrays", primitive_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_every_primitive(self, name, f, arrays):
        assert grad_check(f, arrays) <= 1e-4, name

    def test_pool_near_strict_max(self):
        x = np.zeros((4, 2))
        x[1, 0] = 1.0
        x[3, 1] = 2.0

        def f(a):
            values, _ = max_pool_time(a, [4])
            return (values * Tensor(np.array([[1.0, 2.0]]))).sum()

        assert grad_check(f, [x]) <= 1e-4


class TestShapeFuzz:
    def test_thousand_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            ks = int(rng.integers(1, 8))
            lengths = np.sort(rng.integers(ks, 12, size=int(rng.integers(1, 5))))
            d = int(rng.integers(1, 6))
            c = int(rng.integers(1, 7))
            x = Tensor(rng.normal(size=(lengths.sum(), d)))
            k = Tensor(rng.normal(size=(c, ks, d)))
            out = conv1d_valid(x, k, Tensor(np.zeros(c, dtype=np.float64)), lengths)
            assert out.shape == ((lengths - ks + 1).sum(), c)
            back = transposed_conv1d(out, k, Tensor(np.zeros(d, dtype=np.float64)), lengths - ks + 1)
            assert back.shape == x.shape
            values, idx = max_pool_time(out, lengths - ks + 1)
            assert values.shape == (len(lengths), c) and idx.shape == (len(lengths), c)
            restored = max_unpool_time(values, idx, lengths - ks + 1)
            assert restored.shape == out.shape
            flat = out.reshape(-1)
            assert flat.shape == ((lengths - ks + 1).sum() * c,)

    def test_conv2d_shape_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r = int(rng.integers(3, 8))
            c = int(rng.integers(2, 20))
            kh = int(rng.integers(1, r + 1))
            kw = int(rng.integers(1, c + 1))
            co = int(rng.integers(1, 5))
            x = Tensor(rng.normal(size=(1, r, c)))
            k = Tensor(rng.normal(size=(co, kh, kw)))
            out = conv2d_valid(x, k, Tensor(np.zeros(co, dtype=np.float64)))
            assert out.shape == (1, co, r - kh + 1, c - kw + 1)
            back = transposed_conv2d(out, k, Tensor(np.zeros(1, dtype=np.float64)))
            assert back.shape == (1, r, c)


class TestBatchAxis:
    @pytest.mark.parametrize("call,match", [
        (lambda: conv1d_valid(t(np.ones(5)), t(np.ones((2, 3, 2))), t(np.zeros(2)), [5]), "packed rows"),
        (lambda: transposed_conv1d(t(np.ones(5)), t(np.ones((2, 3, 2))), t(np.zeros(2)), [5]), "packed rows"),
        (lambda: conv2d_valid(t(np.ones((3, 4))), t(np.ones((2, 3, 2))), t(np.zeros(2))), "batched input"),
        (lambda: transposed_conv2d(t(np.ones((2, 1, 3))), t(np.ones((2, 3, 2))), t(np.zeros(1))), "batched input"),
        (lambda: max_pool_time(t(np.ones(5)), [5]), "packed rows"),
        (lambda: max_unpool_time(t(np.ones(2)), np.zeros(2, dtype=int), [3]), "pooled rows"),
    ], ids=["conv1d", "transposed_conv1d", "conv2d", "transposed_conv2d", "pool", "unpool"])
    def test_unbatched_input_rejected(self, call, match):
        with pytest.raises(ShapeError, match=match):
            call()


class TestDeterminism:
    def test_forward_bitwise_reproducible(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 6, 4)).astype(np.float32)
        k = rng.normal(size=(5, 3, 4)).astype(np.float32)

        def run():
            out = conv1d_valid(Tensor(x[0]), Tensor(k), Tensor(np.zeros(5, dtype=np.float32)), [6])
            values, _ = max_pool_time(out, [4])
            return (values * 2.0).sum().data.tobytes()

        assert run() == run()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
def test_stack_rows_round_trip(values):
    rows = [Tensor(np.array([values], dtype=np.float64)) for _ in range(3)]
    stacked = stack_rows(rows)
    assert stacked.shape == (1, 3, len(values))
    np.testing.assert_array_equal(stacked.data[0, 1], values)
