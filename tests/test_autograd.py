import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osseg import autograd as ag
from osseg.autograd import Tensor
from osseg.errors import DimensionError, NumericError, ValidationError
from osseg.gradcheck import GATE, check_op, fd_gradient, rel_error


def check_op_gradient(build, shapes, seed, tol=1e-4, step=1e-6):
    """Analytic grad of a random scalar projection vs central differences."""
    err = check_op(build, shapes, np.random.default_rng(seed), step=step)
    assert err < tol, f"rel error {err}"


class TestMatmul:
    def test_identity(self):
        out = ag.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_dot(self):
        out = ag.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        check_op_gradient(ag.matmul, [(3, 4), (4, 2)], seed=0, tol=1e-6)


class TestSoftmax:
    def test_symmetric(self):
        out = ag.softmax_lastdim(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_masked_entry_gets_zero(self):
        out = ag.softmax_lastdim(Tensor([ag.MASKED_SENTINEL, 0.0]))
        assert out.data[0] == 0.0
        assert out.data[1] == 1.0

    def test_fully_masked_row_is_zero(self):
        out = ag.softmax_lastdim(Tensor([ag.MASKED_SENTINEL, ag.MASKED_SENTINEL]))
        assert np.array_equal(out.data, [0.0, 0.0])

    def test_nan_raises(self):
        with pytest.raises(NumericError):
            ag.softmax_lastdim(Tensor([0.0, np.nan]))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = ag.softmax_lastdim(Tensor(rng.standard_normal((5, 7))))
        assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_property_sum_and_range(self, vals):
        out = ag.softmax_lastdim(Tensor(np.array(vals)))
        assert abs(out.data.sum() - 1.0) < 1e-12
        assert np.all(out.data >= 0.0)

    def test_gradient(self):
        check_op_gradient(ag.softmax_lastdim, [(4, 5)], seed=2)

    @given(rows=st.integers(1, 4), cols=st.integers(1, 20), spread=st.sampled_from([1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_fast_path_is_the_masked_path_bit_for_bit(self, rows, cols, spread, seed):
        # A masked entry in one extra row sends every row down the masked path;
        # a spread of 1e3 makes both paths clip.
        x = spread * np.random.default_rng(seed).standard_normal((rows, cols))
        extra = np.zeros((1, cols))
        extra[0, 0] = ag.MASKED_SENTINEL
        masked_path = ag._masked_softmax(np.concatenate([x, extra]))[:rows]
        assert np.array_equal(ag._masked_softmax(x), masked_path)

    def test_gradient_with_partial_mask(self):
        def build(x):
            bias = np.zeros((3, 4))
            bias[:, 2] = ag.MASKED_SENTINEL
            return ag.softmax_lastdim(ag.add(x, Tensor(bias)))
        check_op_gradient(build, [(3, 4)], seed=3)


def identity_projections(q, k, v):
    """`block_attention`'s x, memory, wq, wk, wv and wo such that the op attends
    with exactly the queries q, keys k and values v: the memory is [k | v],
    and the projections pick or pass columns (0/1 products are exact)."""
    q, k, v = (np.asarray(t.data if isinstance(t, Tensor) else t) for t in (q, k, v))
    d, dv = k.shape[1], v.shape[1]
    pick = np.eye(d + dv)
    return (Tensor(q), Tensor(np.concatenate([k, v], axis=1)), Tensor(np.eye(q.shape[1])),
            Tensor(pick[:, :d]), Tensor(pick[:, d:]), Tensor(np.eye(dv)))


def attend(q, k, v, keys, key_rows, bias=None, scale=None, heads=1):
    """`block_attention` on given queries, keys and values (identity projections)."""
    return ag.block_attention(*identity_projections(q, k, v), keys, key_rows, bias, scale, heads)


@st.composite
def _attention_cases(draw):
    """(keys, key_blocks, key_rows, n, heads, shapes, bias, scale, rows, seed): query blocks
    of n rows on random, often shared, key blocks, through random projections; the bias None,
    or with masked entries and fully masked rows; the query rows all of x's, a permutation of
    them or a draw with repeats (as cross blocks take another block's rows)."""
    heads, key_blocks = draw(st.sampled_from([1, 2])), draw(st.integers(1, 3))
    keys = draw(st.lists(st.integers(0, key_blocks - 1), min_size=1, max_size=4))
    key_rows, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d, dv = heads * draw(st.integers(1, 2)), heads * draw(st.integers(1, 2))
    c_in, c_mem, c_out = (draw(st.integers(1, 3)) for _ in range(3))
    scale = draw(st.none() | st.floats(0.1, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed + 1)
    bias = None
    if draw(st.booleans()):
        bias = rng.standard_normal((len(keys), n, key_rows))
        bias[rng.random(bias.shape) < 0.3] = ag.MASKED_SENTINEL
        bias[rng.random(bias.shape[:2]) < 0.3] = ag.MASKED_SENTINEL
    q_rows = len(keys) * n
    rows = draw(st.sampled_from([None, "permuted", "repeated"]))
    if rows == "permuted":
        rows = rng.permutation(q_rows)
    elif rows == "repeated":
        rows = rng.integers(0, q_rows, q_rows)
    shapes = [(q_rows, c_in), (key_blocks * key_rows, c_mem), (c_in, d), (c_mem, d),
              (c_mem, dv), (dv, c_out)]
    return keys, key_blocks, key_rows, n, heads, shapes, bias, scale, rows, seed


class TestBlockAttention:
    # Each block on its own keys (no gather), then two blocks sharing one, then
    # two blocks that both take the first block's query rows.
    @example(case=([0, 1], 2, 2, 2, 2, [(4, 2), (4, 2), (2, 2), (2, 2), (2, 2), (2, 2)],
                   None, None, None, 0))
    @example(case=([1, 1], 2, 3, 2, 1, [(4, 3), (6, 1), (3, 2), (1, 2), (1, 1), (1, 2)],
                   None, 0.5, None, 1))
    @example(case=([0, 0], 1, 2, 2, 1, [(4, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 1)],
                   None, None, np.array([0, 1, 0, 1]), 2))
    @given(case=_attention_cases())
    @settings(max_examples=60, deadline=None)
    def test_gradient_fuzz(self, case):
        keys, key_blocks, key_rows, n, heads, shapes, bias, scale, rows, seed = case
        err = check_op(
            lambda *ts: ag.block_attention(*ts, keys, key_rows, bias, scale, heads, rows),
            shapes, np.random.default_rng(seed))
        assert err < GATE, f"rel error {err}"

    @given(case=_attention_cases())
    @settings(max_examples=40, deadline=None)
    def test_projections_and_query_rows_fold_into_attention(self, case):
        # The op on (x, memory, projections, rows) equals the op on the projected
        # queries, keys and values it computes, times W_o. The identity projections
        # of `attend` are exact, so the attention outputs agree bit for bit; the
        # last product may round apart, as BLAS picks its kernel by memory layout.
        keys, key_blocks, key_rows, n, heads, shapes, bias, scale, rows, seed = case
        rng = np.random.default_rng(seed)
        x, mem, wq, wk, wv, wo = (rng.standard_normal(s) for s in shapes)
        q = x @ wq if rows is None else (x @ wq)[rows]
        a = attend(q, mem @ wk, mem @ wv, keys, key_rows, bias, scale, heads).data
        ts = [Tensor(t) for t in (x, mem, wq, wk, wv, np.eye(len(wo)))]
        assert np.array_equal(
            ag.block_attention(*ts, keys, key_rows, bias, scale, heads, rows).data, a)
        ts[-1] = Tensor(wo)
        got = ag.block_attention(*ts, keys, key_rows, bias, scale, heads, rows).data
        assert np.abs(got - a @ wo).max() <= 1e-15 * (np.abs(a) @ np.abs(wo)).max()

    @staticmethod
    def _reference(q, k, v, keys, key_rows, bias, scale):
        """Per query block, softmax_lastdim(scale * Q_b K_j^T + bias[b]) V_j."""
        n = q.shape[0] // len(keys)
        out = []
        for b, j in enumerate(keys):
            kj, vj = k[j * key_rows:(j + 1) * key_rows], v[j * key_rows:(j + 1) * key_rows]
            logits = scale * q[b * n:(b + 1) * n] @ kj.T + bias[b]
            out.append(ag.softmax_lastdim(Tensor(logits)).data @ vj)
        return np.concatenate(out)

    def test_matches_per_block_reference(self):
        rng = np.random.default_rng(4)
        q, k, v = rng.standard_normal((6, 4)), rng.standard_normal((8, 4)), rng.standard_normal((8, 3))
        keys = [1, 0, 1]
        bias = rng.standard_normal((3, 2, 4))
        bias[0, :, 2] = ag.MASKED_SENTINEL
        out = attend(q, k, v, keys, 4, bias, 0.5)
        assert np.allclose(out.data, self._reference(q, k, v, keys, 4, bias, 0.5),
                           rtol=0.0, atol=1e-12)

    def test_fully_masked_row_is_zero(self):
        rng = np.random.default_rng(5)
        q, k, v = (Tensor(rng.standard_normal((2, 3))) for _ in range(3))
        bias = np.zeros((1, 2, 2))
        bias[0, 1] = ag.MASKED_SENTINEL
        out = attend(q, k, v, [0], 2, bias)
        assert np.array_equal(out.data[1], [0.0, 0.0, 0.0])
        assert np.abs(out.data[0]).max() > 0.0

    def test_nan_raises(self):
        q = Tensor(np.array([[np.nan, 0.0]]))
        with pytest.raises(NumericError):
            attend(q, Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))), [0], 1)

    @pytest.mark.parametrize("keys, key_rows, bias_shape", [
        ([2], 2, None),        # names a key block that does not exist
        ([0, 0, 0], 2, None),  # 4 query rows do not split into 3 blocks
        ([0], 3, None),        # 4 key rows do not split into blocks of 3
        ([0], 2, (1, 4, 4)),   # bias does not match the (1, 4, 2) logits
    ])
    def test_shape_errors(self, keys, key_rows, bias_shape):
        t = Tensor(np.ones((4, 2)))
        bias = None if bias_shape is None else np.zeros(bias_shape)
        with pytest.raises(DimensionError):
            attend(t, t, t, keys, key_rows, bias)

    @pytest.mark.parametrize("shapes, rows", [
        ([(4, 3), (4, 2), (2, 2), (2, 2), (2, 2), (2, 2)], None),    # W_q does not take x
        ([(4, 2), (4, 2), (2, 2), (3, 2), (2, 2), (2, 2)], None),    # W_k does not take memory
        ([(4, 2), (4, 2), (2, 3), (2, 2), (2, 2), (2, 2)], None),    # Q and K widths differ
        ([(4, 2), (4, 2), (2, 2), (2, 2), (2, 2), (3, 2)], None),    # W_o does not take V
        ([(4, 2), (4, 2), (2, 2), (2, 2), (2, 2), (2, 2)], [0, 4]),  # a row x lacks
        ([(4, 2), (4, 2), (2, 2), (2, 2), (2, 2), (2, 2)], [[0, 1]]),  # not a 1-D index
    ])
    def test_projection_and_row_errors(self, shapes, rows):
        ts = [Tensor(np.ones(s)) for s in shapes]
        with pytest.raises(DimensionError):
            ag.block_attention(*ts, [0, 1], 2, rows=rows)

    def test_gradient_with_shared_key_block(self):
        bias = np.zeros((3, 2, 3))
        bias[1, 0] = ag.MASKED_SENTINEL
        check_op_gradient(lambda *ts: ag.block_attention(*ts, [0, 0, 1], 3, bias),
                          [(6, 4), (6, 4), (4, 4), (4, 4), (4, 2), (2, 3)], seed=6)

    @pytest.mark.parametrize("heads, channels", [
        (0, 4),  # no head
        (3, 4),  # 4 query and key channels do not split into 3 heads
        (2, 3),  # 4 query and key channels split, 3 value channels do not
    ])
    def test_head_count_errors(self, heads, channels):
        t = Tensor(np.ones((4, 4)))
        with pytest.raises(DimensionError):
            attend(t, t, Tensor(np.ones((4, channels))), [0, 1], 2, heads=heads)


class TestFfn:
    @example(rows=1, c_in=1, hidden=1, c_out=1, seed=0)
    @given(rows=st.integers(1, 4), c_in=st.integers(1, 4), hidden=st.integers(1, 6),
           c_out=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gradient_fuzz_and_primitive_reference(self, rows, c_in, hidden, c_out, seed):
        shapes = [(rows, c_in), (c_in, hidden), (hidden,), (hidden, c_out), (c_out,)]
        rng = np.random.default_rng(seed)
        assert check_op(ag.ffn, shapes, rng) < GATE
        ts = [Tensor(rng.standard_normal(s)) for s in shapes]
        x, w1, b1, w2, b2 = ts
        want = ag.add(ag.matmul(ag.relu(ag.add(ag.matmul(x, w1), b1)), w2), b2)
        assert np.array_equal(ag.ffn(*ts).data, want.data)

    @pytest.mark.parametrize("shapes", [
        [(2, 3), (2, 4), (4,), (4, 2), (2,)],     # x does not take w1
        [(2, 3), (3, 4), (3,), (4, 2), (2,)],     # b1 is not w1's width
        [(2, 3), (3, 4), (4,), (3, 2), (2,)],     # w2 does not take the hidden rows
        [(2, 3), (3, 4), (4,), (4, 2), (1, 2)],   # b2 is not a vector
    ])
    def test_shape_errors(self, shapes):
        with pytest.raises(DimensionError):
            ag.ffn(*(Tensor(np.ones(s)) for s in shapes))


class TestBlockLogits:
    @example(rows=1, lo=0, c=1, h=1, w=1, extra=0, seed=0)
    @given(rows=st.integers(1, 4), lo=st.integers(0, 3), c=st.integers(1, 3),
           h=st.integers(1, 4), w=st.integers(1, 4), extra=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gradient_fuzz_and_primitive_reference(self, rows, lo, c, h, w, extra, seed):
        # The rows lo:lo+rows of a token matrix with `extra` rows besides them.
        block = slice(lo, lo + rows)
        shapes = [(lo + rows + extra, c), (c, h, w)]
        rng = np.random.default_rng(seed)
        assert check_op(lambda t, p: ag.block_logits(t, p, block), shapes, rng) < GATE
        tokens, pixels = (Tensor(rng.standard_normal(s)) for s in shapes)
        product = ag.matmul(Tensor(tokens.data[block]), ag.reshape(pixels, (c, h * w)))
        want = ag.bilinear_upsample2x(ag.reshape(product, (rows, h, w)))
        assert np.array_equal(ag.block_logits(tokens, pixels, block).data, want.data)

    def test_rows_outside_the_block_get_zero_gradient(self):
        rng = np.random.default_rng(7)
        tokens = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        out = ag.block_logits(tokens, Tensor(rng.standard_normal((2, 3, 3))), slice(2, 4))
        ag.backward(ag.matmul(ag.reshape(out, (1, -1)), Tensor(np.ones((out.size, 1)))))
        assert not tokens.grad[:2].any() and not tokens.grad[4:].any()
        assert tokens.grad[2:4].all()

    @pytest.mark.parametrize("tokens, pixels", [((6, 3), (2, 3, 3)), ((6,), (6, 3, 3)),
                                                ((6, 3), (3, 9))])
    def test_shape_errors(self, tokens, pixels):
        with pytest.raises(DimensionError):
            ag.block_logits(Tensor(np.ones(tokens)), Tensor(np.ones(pixels)), slice(0, 2))


@st.composite
def _conv_cases(draw):
    """(stride, pad, k, h, w, c_in, c_out, seed), the kernel at most the padded input."""
    stride, pad, k = (draw(st.sampled_from(v)) for v in ((1, 2), (0, 1), (1, 3)))
    low = max(1, k - 2 * pad)
    return (stride, pad, k, draw(st.integers(low, 7)), draw(st.integers(low, 7)),
            draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2**32 - 1)))


class TestConv2d:
    # The kernel as large as the padded input, with and without padding,
    # then odd and even sizes under stride 2.
    @example(case=(1, 1, 3, 1, 1, 1, 1, 0))
    @example(case=(2, 0, 3, 3, 3, 2, 1, 1))
    @example(case=(2, 1, 3, 7, 8, 2, 2, 2))
    @given(case=_conv_cases())
    @settings(max_examples=60, deadline=None)
    def test_gradient_fuzz(self, case):
        stride, pad, k, h, w, c_in, c_out, seed = case
        err = check_op(lambda x, wt, b: ag.conv2d(x, wt, b, stride=stride, pad=pad),
                       [(c_in, h, w), (c_out, c_in, k, k), (c_out, 1, 1)],
                       np.random.default_rng(seed))
        assert err < GATE, f"rel error {err}"

    @staticmethod
    def _direct(x, w, stride, pad):
        """Every output entry as a nested sum over (c, dy, dx) of the zero-padded input."""
        c_in, h, wd = x.shape
        c_out, _, k, _ = w.shape
        xp = np.zeros((c_in, h + 2 * pad, wd + 2 * pad))
        xp[:, pad:pad + h, pad:pad + wd] = x
        out = np.zeros((c_out, (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1))
        for o, oy, ox in np.ndindex(*out.shape):
            for c, dy, dx in np.ndindex(c_in, k, k):
                out[o, oy, ox] += w[o, c, dy, dx] * xp[c, oy * stride + dy, ox * stride + dx]
        return out

    @example(case=(1, 1, 3, 1, 1, 1, 1, 0))
    @example(case=(2, 0, 3, 3, 3, 2, 1, 1))
    @example(case=(2, 1, 3, 7, 8, 2, 2, 2))
    @given(case=_conv_cases())
    @settings(max_examples=60, deadline=None)
    def test_forward_matches_direct_sum(self, case):
        stride, pad, k, h, w, c_in, c_out, seed = case
        rng = np.random.default_rng(seed)
        x, wt = rng.standard_normal((c_in, h, w)), rng.standard_normal((c_out, c_in, k, k))
        b = rng.standard_normal((c_out, 1, 1))
        out = ag.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad).data
        # ReLU is 1-Lipschitz, so each entry's rounding stays within its sum of term
        # magnitudes.
        magnitude = self._direct(np.abs(x), np.abs(wt), stride, pad) + np.abs(b)
        want = np.maximum(self._direct(x, wt, stride, pad) + b, 0.0)
        assert np.all(np.abs(out - want) <= 1e-12 * magnitude)

    # Per-channel biases of both signs, large enough to switch whole channels
    # off or on and to move the ReLU's kink across the others.
    @given(bias=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4).filter(
               lambda b: min(b) < 0.0 < max(b)),
           stride=st.sampled_from((1, 2)), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bias_straddling_zero(self, bias, stride, seed):
        rng = np.random.default_rng(seed)
        x, wt = rng.standard_normal((2, 5, 6)), rng.standard_normal((len(bias), 2, 3, 3))
        b = np.array(bias).reshape(-1, 1, 1)
        proj = rng.standard_normal(ag.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride, 1).shape)
        tensors = [Tensor(a, requires_grad=True) for a in (x, wt, b)]
        out = ag.conv2d(*tensors, stride, 1)
        pre = self._direct(x, wt, stride, 1) + b
        assert np.abs(out.data - np.maximum(pre, 0.0)).max() <= 1e-12 * np.abs(pre).max()
        ag.backward(ag.matmul(ag.reshape(out, (1, -1)), Tensor(proj.reshape(-1, 1))))
        # The masked gradient, summed over rows then columns, as `_unbroadcast` sums.
        masked = proj * (out.data > 0)
        assert np.array_equal(tensors[2].grad.reshape(-1), masked.sum(axis=1).sum(axis=1))

        def scalar():
            return float((ag.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride, 1).data
                          * proj).sum())
        for arr, t in zip((x, wt, b), tensors):
            assert rel_error(t.grad, fd_gradient(scalar, arr, 1e-6)) < GATE

    def test_ones_times_two(self):
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = ag.conv2d(x, w, Tensor(np.full((1, 1, 1), 0.5)), stride=1, pad=0)
        assert np.array_equal(out.data, np.full((1, 3, 3), 2.5))
        out = ag.conv2d(x, w, Tensor(np.full((1, 1, 1), -3.0)), stride=1, pad=0)
        assert np.array_equal(out.data, np.zeros((1, 3, 3)))

    def test_delta_kernel_is_identity(self):
        # On a positive input, with a zero bias, so that the ReLU passes every entry.
        rng = np.random.default_rng(4)
        x = Tensor(rng.random((1, 4, 4)) + 0.1)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ag.conv2d(x, Tensor(w), Tensor(np.zeros((1, 1, 1))), stride=1, pad=1)
        assert np.allclose(out.data, x.data, atol=1e-15)

    @pytest.mark.parametrize("c_in,c_out,size", [(3, 8, 32), (8, 16, 16), (16, 32, 8), (3, 8, 64)])
    def test_stride2_is_stride1_at_even_positions(self, c_in, c_out, size):
        # Floor semantics on the backbone's even-sized stages.
        rng = np.random.default_rng(size + c_in)
        x = Tensor(rng.standard_normal((c_in, size, size)))
        w = Tensor(rng.standard_normal((c_out, c_in, 3, 3)))
        b = Tensor(rng.standard_normal((c_out, 1, 1)))
        strided = ag.conv2d(x, w, b, stride=2, pad=1).data
        full = ag.conv2d(x, w, b, stride=1, pad=1).data
        assert strided.shape == (c_out, size // 2, size // 2)
        assert np.abs(strided - full[:, ::2, ::2]).max() <= 1e-13

    def test_kernel_larger_than_padded_input_rejected(self):
        from osseg.errors import ConfigurationError
        b = Tensor(np.zeros((1, 1, 1)))
        with pytest.raises(ConfigurationError):
            ag.conv2d(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 1, 5, 5))), b, 2, 1)
        with pytest.raises(ConfigurationError):
            ag.conv2d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((1, 1, 5, 5))), b, 1, 1)

    def test_even_kernel_rejected(self):
        from osseg.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            ag.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))),
                      Tensor(np.zeros((1, 1, 1))), stride=1, pad=0)

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1, 1)])
    def test_bias_shape_rejected(self, shape):
        with pytest.raises(DimensionError, match="bias shape"):
            ag.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((2, 1, 3, 3))),
                      Tensor(np.zeros(shape)), stride=1, pad=1)

    def test_gradient(self):
        check_op_gradient(
            lambda x, w, b: ag.conv2d(x, w, b, stride=1, pad=1),
            [(2, 5, 5), (3, 2, 3, 3), (3, 1, 1)], seed=5, tol=1e-5,
        )

    def test_gradient_strided(self):
        check_op_gradient(
            lambda x, w, b: ag.conv2d(x, w, b, stride=2, pad=1),
            [(2, 7, 7), (3, 2, 3, 3), (3, 1, 1)], seed=6, tol=1e-5,
        )


class TestElementwise:
    def test_add_broadcast_gradient(self):
        check_op_gradient(ag.add, [(3, 4), (4,)], seed=7)

    def test_scale_gradient(self):
        check_op_gradient(lambda a: ag.scale(a, -2.5), [(6,)], seed=9)

    def test_relu_gradient(self):
        check_op_gradient(ag.relu, [(4, 4)], seed=10)

    def test_transpose_reshape_concat(self):
        check_op_gradient(lambda a: ag.transpose(a), [(3, 5)], seed=11)
        check_op_gradient(lambda a: ag.reshape(a, (2, 6)), [(3, 4)], seed=12)

    @given(rows=st.lists(st.integers(1, 4), min_size=1, max_size=5), cols=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_concat_rows_gradient_fuzz(self, rows, cols, seed):
        parts = [np.random.default_rng(seed + i).standard_normal((r, cols))
                 for i, r in enumerate(rows)]
        out = ag.concat_rows([Tensor(p) for p in parts])
        assert np.array_equal(out.data, np.concatenate(parts))
        err = check_op(lambda *ps: ag.concat_rows(ps), [(r, cols) for r in rows],
                       np.random.default_rng(seed))
        assert err < GATE, f"rel error {err}"

    @given(maps=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1,
                         max_size=4), cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_concat_rows_of_pixel_maps(self, maps, cols, seed):
        # (C, H, W) parts, mixed with a 2-D part when there are several: each map
        # enters as its pixels' channel vectors, row by row, as a transposed reshape.
        shapes = [(cols, h, w) for h, w in maps] + ([(2, cols)] if len(maps) > 1 else [])
        parts = [np.random.default_rng(seed + i).standard_normal(s) for i, s in enumerate(shapes)]
        want = np.concatenate([ag.transpose(ag.reshape(Tensor(p), (cols, -1))).data
                               if p.ndim == 3 else p for p in parts])
        assert np.array_equal(ag.concat_rows([Tensor(p) for p in parts]).data, want)
        err = check_op(lambda *ps: ag.concat_rows(ps), shapes, np.random.default_rng(seed))
        assert err < GATE, f"rel error {err}"


class TestLayerNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((4, 8)))
        out = ag.layernorm_lastdim(x, Tensor(np.zeros((4, 8))), Tensor(np.ones(8)),
                                   Tensor(np.zeros(8)))
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-12)
        assert np.all(np.abs(out.data.std(axis=-1) - 1.0) < 1e-3)

    def test_gradient(self):
        check_op_gradient(ag.layernorm_lastdim, [(3, 6), (3, 6), (6,), (6,)], seed=16)

    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2), n=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gradient_fuzz_and_mean_reference(self, lead, n, seed):
        # The residual's gradient is the input's: one residual connection.
        rng = np.random.default_rng(seed)
        shape = (*lead, n)
        err = check_op(ag.layernorm_lastdim, [shape, shape, (n,), (n,)], rng)
        assert err < GATE, f"rel error {err}"
        x, res = rng.standard_normal(shape), rng.standard_normal(shape)
        gamma, beta = rng.standard_normal(n), rng.standard_normal(n)
        s = ag.add(Tensor(x), Tensor(res)).data
        centered = s - s.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        want = gamma * (centered * (1.0 / np.sqrt(var + 1e-5))) + beta
        got = ag.layernorm_lastdim(Tensor(x), Tensor(res), Tensor(gamma), Tensor(beta)).data
        assert np.array_equal(got, want)

    def test_residual_gradient_equals_input_gradient(self):
        rng = np.random.default_rng(17)
        x, res = (Tensor(rng.standard_normal((3, 5)), requires_grad=True) for _ in range(2))
        out = ag.layernorm_lastdim(x, res, Tensor(rng.standard_normal(5)), Tensor(np.zeros(5)))
        ag.backward(ag.matmul(ag.reshape(out, (1, 15)), Tensor(rng.standard_normal((15, 1)))))
        assert np.array_equal(x.grad, res.grad) and x.grad.any()

    @pytest.mark.parametrize("residual, affine", [((3, 4), 5), ((5,), 5), ((3, 5), 4)])
    def test_shape_errors(self, residual, affine):
        with pytest.raises(DimensionError):
            ag.layernorm_lastdim(Tensor(np.ones((3, 5))), Tensor(np.ones(residual)),
                                 Tensor(np.ones(affine)), Tensor(np.ones(affine)))


class TestBilinearUpsample:
    def test_constant_stays_constant(self):
        out = ag.bilinear_upsample2x(Tensor(np.full((2, 3, 3), 0.7)))
        assert out.data.shape == (2, 6, 6)
        assert np.allclose(out.data, 0.7, atol=1e-15)

    def test_gradient(self):
        check_op_gradient(ag.bilinear_upsample2x, [(2, 3, 4)], seed=17, tol=1e-5)

    @example(c=1, h=1, w=3, seed=0)
    @example(c=2, h=4, w=1, seed=1)
    @given(c=st.integers(1, 2), h=st.integers(1, 5), w=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gradient_fuzz(self, c, h, w, seed):
        err = check_op(ag.bilinear_upsample2x, [(c, h, w)], np.random.default_rng(seed))
        assert err < GATE, f"rel error {err}"

    @staticmethod
    def _two_tap(x):
        """The 2-tap formula entry by entry, taps clamped at the edges."""
        c, h, w = x.shape

        def taps(i, n):
            # Output index i sits at input coordinate i/2 - 0.25, between
            # inputs (i-1)//2 and (i-1)//2 + 1.
            lo = (i - 1) // 2
            a, b = min(max(lo, 0), n - 1), min(max(lo + 1, 0), n - 1)
            return (a, 0.75, b, 0.25) if i % 2 else (a, 0.25, b, 0.75)

        out = np.empty((c, 2 * h, 2 * w))
        for i in range(2 * h):
            ra, wa, rb, wb = taps(i, h)
            for j in range(2 * w):
                ca, va, cb, vb = taps(j, w)
                rows = [(ra, wa), (rb, wb)]
                out[:, i, j] = sum(
                    wr * (va * x[:, r, ca] + vb * x[:, r, cb]) for r, wr in rows
                )
        return out

    @pytest.mark.parametrize("shape", [(2, 1, 1), (3, 5, 7), (2, 4, 6), (1, 1, 4)])
    def test_matches_two_tap_formula(self, shape):
        x = np.random.default_rng(sum(shape)).random(shape)
        out = ag.bilinear_upsample2x(Tensor(x)).data
        assert np.abs(out - self._two_tap(x)).max() <= 1e-15

    @pytest.mark.parametrize("shape", [(2, 1, 1), (3, 5, 7), (2, 4, 6)])
    def test_adjoint_identity(self, shape):
        rng = np.random.default_rng(len(shape) + shape[1])
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        out = ag.bilinear_upsample2x(x)
        g = rng.standard_normal(out.shape)
        n = out.size
        ag.backward(ag.matmul(ag.reshape(out, (1, n)), Tensor(g.reshape(n, 1))))
        # <Ux, g> = <x, U^T g>
        assert abs((out.data * g).sum() - (x.data * x.grad).sum()) <= 1e-12


class TestCrossEntropy:
    def test_uniform_logits(self):
        label = np.zeros((2, 2), dtype=np.uint8)
        loss = ag.cross_entropy_pixelwise(Tensor(np.zeros((5, 2, 2))), label)
        assert abs(loss.item() - np.log(5)) < 1e-12

    def test_confident_correct_goes_to_zero(self):
        label = np.array([[1]], dtype=np.uint8)
        logits = np.full((3, 1, 1), -50.0)
        logits[1] = 50.0
        loss = ag.cross_entropy_pixelwise(Tensor(logits), label)
        assert loss.item() < 1e-12

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(18)
        logits = rng.standard_normal((3, 2, 2))
        label = rng.integers(0, 3, (2, 2)).astype(np.uint8)
        loss = ag.cross_entropy_pixelwise(Tensor(logits), label)
        total = 0.0
        for i in range(2):
            for j in range(2):
                p = np.exp(logits[:, i, j]) / np.exp(logits[:, i, j]).sum()
                total += -np.log(p[label[i, j]])
        assert abs(loss.item() - total / 4.0) < 1e-12

    def test_ignore_pixels_skipped(self):
        logits = np.zeros((3, 1, 2))
        logits[0, 0, 0] = 9.0
        label = np.array([[0, ag.IGNORE_LABEL]], dtype=np.uint8)
        loss = ag.cross_entropy_pixelwise(Tensor(logits), label)
        p = np.exp(logits[:, 0, 0]) / np.exp(logits[:, 0, 0]).sum()
        assert abs(loss.item() + np.log(p[0])) < 1e-12

    def test_all_ignore_returns_zero_with_zero_grad(self):
        logits = Tensor(np.ones((3, 2, 2)), requires_grad=True)
        loss = ag.cross_entropy_pixelwise(logits, np.full((2, 2), ag.IGNORE_LABEL, dtype=np.uint8))
        assert loss.item() == 0.0
        ag.backward(loss)
        assert logits.grad is None or not logits.grad.any()

    def test_bad_label_raises(self):
        with pytest.raises(ValidationError):
            ag.cross_entropy_pixelwise(Tensor(np.zeros((3, 1, 1))), np.array([[7]], dtype=np.uint8))

    @example(n=3, h=2, w=3, ignored=[True] * 6, seed=0)
    @given(n=st.integers(1, 4), h=st.integers(1, 3), w=st.integers(1, 3),
           ignored=st.lists(st.booleans(), min_size=9, max_size=9),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gradient_fuzz_over_ignore_patterns(self, n, h, w, ignored, seed):
        rng = np.random.default_rng(seed)
        label = rng.integers(0, n, (h, w)).astype(np.uint8)
        skip = np.array(ignored[:h * w]).reshape(h, w)
        label[skip] = ag.IGNORE_LABEL
        logits = Tensor(rng.standard_normal((n, h, w)), requires_grad=True)
        loss = ag.cross_entropy_pixelwise(logits, label)
        ag.backward(loss)
        if skip.all():
            assert loss.item() == 0.0
            assert logits.grad is None or not logits.grad.any()
        else:
            x = logits.data
            log_p = x - np.log(np.exp(x).sum(axis=0))
            ys, xs = np.nonzero(~skip)
            assert abs(loss.item() + log_p[label[ys, xs], ys, xs].mean()) < 1e-12
        err = check_op(lambda z: ag.cross_entropy_pixelwise(z, label), [(n, h, w)],
                       np.random.default_rng(seed))
        assert err < GATE, f"rel error {err}"

    def test_gradient(self):
        rng = np.random.default_rng(19)
        label = rng.integers(0, 3, (4, 4)).astype(np.uint8)
        label[0, 0] = ag.IGNORE_LABEL
        check_op_gradient(
            lambda x: ag.cross_entropy_pixelwise(x, label), [(3, 4, 4)], seed=20,
        )


class TestBackward:
    def test_insensitive_input_grad_stays_zero(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = ag.add(ag.scale(a, 0.0), b)
        loss = ag.matmul(ag.reshape(out, (1, 4)), Tensor(np.ones((4, 1))))
        ag.backward(loss)
        assert not a.grad.any()
        assert np.array_equal(b.grad, np.ones((2, 2)))

    def test_grad_accumulates_over_fanout(self):
        a = Tensor(np.array([[2.0]]), requires_grad=True)
        out = ag.add(a, a)
        ag.backward(out)
        assert a.grad[0, 0] == 2.0

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            ag.backward(ag.relu(a))

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((3, 3))
        r1 = ag.softmax_lastdim(ag.matmul(Tensor(x), Tensor(x))).data
        r2 = ag.softmax_lastdim(ag.matmul(Tensor(x), Tensor(x))).data
        assert np.array_equal(r1, r2)

    def test_constants_build_no_graph(self):
        out = ag.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
        assert out._backward_fn is None and not out.requires_grad
