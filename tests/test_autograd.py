import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osseg import autograd as ag
from osseg.autograd import Tensor
from osseg.errors import DimensionError, NumericError, ValidationError
from osseg.gradcheck import fd_gradient, rel_error


def scalar_proj(t, rng):
    """Random scalar projection sum(w * t) as a Tensor op chain."""
    w = Tensor(rng.standard_normal(t.shape))
    prod = ag.mul(t, w)
    flat = ag.reshape(prod, (1, prod.size))
    ones = Tensor(np.ones((prod.size, 1)))
    return ag.matmul(flat, ones), w.data


def check_op_gradient(build, shapes, seed, tol=1e-4, step=1e-6):
    """Analytic grad of a random scalar projection vs central differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    proj, w = scalar_proj(out, rng)
    ag.backward(proj)
    def scalar_fn():
        return float((build(*[Tensor(a) for a in arrays]).data * w).sum())

    for i, (arr, t) in enumerate(zip(arrays, tensors)):
        fd = fd_gradient(scalar_fn, arr, step=step)
        err = rel_error(t.grad if t.grad is not None else np.zeros_like(arr), fd)
        assert err < tol, f"input {i}: rel error {err}"


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

    def test_gradient_with_partial_mask(self):
        def build(x):
            bias = np.zeros((3, 4))
            bias[:, 2] = ag.MASKED_SENTINEL
            return ag.softmax_lastdim(ag.add(x, Tensor(bias)))
        check_op_gradient(build, [(3, 4)], seed=3)


class TestConv2d:
    def test_ones_times_two(self):
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = ag.conv2d(x, w, stride=1, pad=0)
        assert np.array_equal(out.data, np.full((1, 3, 3), 2.0))

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 4, 4)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ag.conv2d(x, Tensor(w), stride=1, pad=1)
        assert np.allclose(out.data, x.data, atol=1e-15)

    @pytest.mark.parametrize("c_in,c_out,size", [(3, 8, 32), (8, 16, 16), (16, 32, 8), (3, 8, 64)])
    def test_stride2_is_stride1_at_even_positions(self, c_in, c_out, size):
        # Floor semantics on the backbone's even-sized stages.
        rng = np.random.default_rng(size + c_in)
        x = Tensor(rng.standard_normal((c_in, size, size)))
        w = Tensor(rng.standard_normal((c_out, c_in, 3, 3)))
        strided = ag.conv2d(x, w, stride=2, pad=1).data
        full = ag.conv2d(x, w, stride=1, pad=1).data
        assert strided.shape == (c_out, size // 2, size // 2)
        assert np.abs(strided - full[:, ::2, ::2]).max() <= 1e-13

    def test_kernel_larger_than_padded_input_rejected(self):
        from osseg.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            ag.conv2d(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 1, 5, 5))), stride=2, pad=1)
        with pytest.raises(ConfigurationError):
            ag.conv2d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((1, 1, 5, 5))), stride=1, pad=1)

    def test_even_kernel_rejected(self):
        from osseg.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            ag.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))), stride=1, pad=0)

    def test_gradient(self):
        check_op_gradient(
            lambda x, w: ag.conv2d(x, w, stride=1, pad=1), [(2, 5, 5), (3, 2, 3, 3)],
            seed=5, tol=1e-5,
        )

    def test_gradient_strided(self):
        check_op_gradient(
            lambda x, w: ag.conv2d(x, w, stride=2, pad=1), [(2, 7, 7), (3, 2, 3, 3)],
            seed=6, tol=1e-5,
        )


class TestElementwise:
    def test_add_broadcast_gradient(self):
        check_op_gradient(ag.add, [(3, 4), (4,)], seed=7)

    def test_mul_gradient(self):
        check_op_gradient(ag.mul, [(3, 4), (3, 4)], seed=8)

    def test_scale_gradient(self):
        check_op_gradient(lambda a: ag.scale(a, -2.5), [(6,)], seed=9)

    def test_relu_gradient(self):
        check_op_gradient(ag.relu, [(4, 4)], seed=10)

    def test_transpose_reshape_concat(self):
        check_op_gradient(lambda a: ag.transpose(a), [(3, 5)], seed=11)
        check_op_gradient(lambda a: ag.reshape(a, (2, 6)), [(3, 4)], seed=12)


class TestLayerNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((4, 8)))
        out = ag.layernorm_lastdim(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-12)
        assert np.all(np.abs(out.data.std(axis=-1) - 1.0) < 1e-3)

    def test_gradient(self):
        check_op_gradient(ag.layernorm_lastdim, [(3, 6), (6,), (6,)], seed=16)


class TestBilinearUpsample:
    def test_constant_stays_constant(self):
        out = ag.bilinear_upsample2x(Tensor(np.full((2, 3, 3), 0.7)))
        assert out.data.shape == (2, 6, 6)
        assert np.allclose(out.data, 0.7, atol=1e-15)

    def test_gradient(self):
        check_op_gradient(ag.bilinear_upsample2x, [(2, 3, 4)], seed=17, tol=1e-5)


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
        out = ag.add(ag.mul(a, Tensor(np.zeros((2, 2)))), b)
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
