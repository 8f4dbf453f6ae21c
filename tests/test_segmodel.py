import numpy as np
import pytest

from osseg import autograd as ag
from osseg.autograd import Tensor, cross_entropy_pixelwise
from osseg.errors import ArgumentError, ConfigurationError, ContractError, DimensionError, FormatError
from osseg.segmodel import (
    AttentionPairing,
    ModelConfig,
    attention,
    build_class_bias,
    class_aware_cross_attention,
    cross_domain_attention,
    forward,
    forward_cross,
    forward_identity_token_attention,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)

from fd_oracle import fd_gradient, rel_error

TINY = ModelConfig(num_classes=3, embed_dim=8, decoder_layers=2, heads=1,
                   backbone_channels=(2, 4, 8))


def tiny_params(seed=0):
    return init_params(TINY, seed=seed)


def rand_img(rng, size=8):
    return rng.random((size, size, 3))


class TestAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((4, 3)))
        k = Tensor(rng.standard_normal((1, 3)))
        v = Tensor(rng.standard_normal((1, 3)))
        out = attention(q, k, v)
        assert np.allclose(out.data, np.tile(v.data, (4, 1)), atol=1e-12)

    def test_equal_logits_average_values(self):
        q = Tensor(np.zeros((2, 3)))
        k = Tensor(np.ones((4, 3)))
        v = Tensor(np.arange(12.0).reshape(4, 3))
        out = attention(q, k, v)
        assert np.allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)

    def test_hand_evaluated_weights(self):
        q = Tensor(np.array([[1.0, 0.0]]))
        k = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        v = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = attention(q, k, v)
        e = np.exp(1.0)
        expect = np.array([[e / (e + 1.0), 1.0 / (e + 1.0)]])
        assert np.allclose(out.data, expect, atol=1e-12)
        assert abs(out.data[0, 0] - 0.7311) < 1e-4

    def test_scaled_flag_divides_logits(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((2, 4)))
        k = Tensor(rng.standard_normal((3, 4)))
        v = Tensor(rng.standard_normal((3, 4)))
        scaled = attention(q, k, v, scaled=True)
        manual = attention(Tensor(q.data / 2.0), k, v)
        assert np.allclose(scaled.data, manual.data, atol=1e-12)


class TestCrossDomainAttention:
    def test_matching_tokens_concentrate(self):
        base = np.eye(3) * 8.0
        q = Tensor(base)
        k = Tensor(base)
        v = Tensor(np.eye(3))
        out = cross_domain_attention(q, k, v)
        assert np.allclose(np.diag(out.data), 1.0, atol=1e-12)

    def test_identical_branches_equal_self_attention(self):
        rng = np.random.default_rng(2)
        t = Tensor(rng.standard_normal((3, 4)))
        v = Tensor(rng.standard_normal((3, 4)))
        assert np.array_equal(
            cross_domain_attention(t, t, v).data, attention(t, t, v).data
        )

    def test_equals_generic_attention_bit_exactly(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal((3, 5)))
        k = Tensor(rng.standard_normal((3, 5)))
        v = Tensor(rng.standard_normal((3, 5)))
        assert np.array_equal(
            cross_domain_attention(q, k, v).data, attention(q, k, v).data
        )


class TestClassBias:
    def test_single_class_masks_cross(self):
        bias = build_class_bias(3, {1})
        masked = bias.data <= ag.MASK_THRESHOLD
        expect = np.array([
            [False, True, False],
            [True, True, True],
            [False, True, False],
        ])
        assert np.array_equal(masked, expect)
        assert masked.sum() == 5

    def test_empty_set_all_zeros(self):
        assert not build_class_bias(4, set()).data.any()

    def test_complement_leaves_single_cell(self):
        bias = build_class_bias(3, {0, 2})
        unmasked = bias.data == 0.0
        assert unmasked.sum() == 1
        assert unmasked[1, 1]

    def test_out_of_range_class(self):
        with pytest.raises(ArgumentError):
            build_class_bias(3, {5})


class TestClassAwareAttention:
    def test_empty_set_reduces_to_cross_attention(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((5, 4)))
        k = Tensor(rng.standard_normal((5, 4)))
        v = Tensor(rng.standard_normal((5, 4)))
        bias = build_class_bias(5, set())
        out = class_aware_cross_attention(q, k, v, bias)
        assert np.array_equal(out.data, cross_domain_attention(q, k, v).data)

    def test_all_classes_masked_gives_zero_rows(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.standard_normal((4, 3)))
        k = Tensor(rng.standard_normal((4, 3)))
        v = Tensor(rng.standard_normal((4, 3)))
        out = class_aware_cross_attention(q, k, v, build_class_bias(4, {0, 1, 2, 3}))
        assert np.array_equal(out.data, np.zeros((4, 3)))

    def test_unmasked_rows_renormalize_over_submatrix(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 4))
        bias = build_class_bias(3, {1})
        logits = q @ k.T
        weights_logits = ag.softmax_lastdim(ag.add(Tensor(logits), bias)).data
        # Brute-force softmax restricted to the unmasked 2x2 submatrix.
        keep = [0, 2]
        for x in keep:
            sub = np.exp(logits[x, keep] - logits[x, keep].max())
            sub = sub / sub.sum()
            assert np.allclose(weights_logits[x, keep], sub, atol=1e-12)
            assert weights_logits[x, 1] == 0.0
        assert np.array_equal(weights_logits[1], np.zeros(3))

    def test_every_sampled_set_on_five_tokens(self):
        from itertools import chain, combinations
        rng = np.random.default_rng(7)
        q = Tensor(rng.standard_normal((5, 4)))
        k = Tensor(rng.standard_normal((5, 4)))
        logits = ag.matmul(q, ag.transpose(k))
        for subset in chain.from_iterable(combinations(range(5), r) for r in range(6)):
            bias = build_class_bias(5, set(subset))
            w = ag.softmax_lastdim(ag.add(logits, bias)).data
            masked = bias.data <= ag.MASK_THRESHOLD
            assert (w[masked] == 0.0).all()
            row_masked = masked.all(axis=1)
            sums = w.sum(axis=1)
            assert np.all(np.abs(sums[~row_masked] - 1.0) <= 1e-12)
            assert np.all(sums[row_masked] == 0.0)

    def test_wrong_bias_shape(self):
        rng = np.random.default_rng(8)
        q = Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(DimensionError):
            class_aware_cross_attention(q, q, q, Tensor(np.zeros((2, 2))))


class TestForward:
    def test_logits_shape(self):
        params = tiny_params()
        trace = forward(params, rand_img(np.random.default_rng(9), 16))
        assert trace.logits.shape == (3, 16, 16)
        assert trace.e_pixel.shape == (8, 8, 8)
        assert trace.e_class.shape == (3, 8)
        assert len(trace.layer_queries) == 2

    def test_zero_params_give_uniform_softmax(self):
        params = tiny_params()
        for t in params.tensors.values():
            t.data[:] = 0.0
        trace = forward(params, rand_img(np.random.default_rng(10)))
        assert not trace.logits.data.any()

    def test_logits_equal_product_of_embeddings(self):
        params = tiny_params()
        trace = forward(params, rand_img(np.random.default_rng(11)))
        manual = (trace.e_class.data @ trace.e_pixel.data.reshape(8, -1)).reshape(3, 4, 4)
        assert np.array_equal(trace.logits.data, ag.bilinear_upsample2x(Tensor(manual)).data)

    def test_size_not_divisible_by_8(self):
        with pytest.raises(ConfigurationError):
            forward(tiny_params(), np.zeros((12, 12, 3)))

    def test_forward_is_pure(self):
        params = tiny_params()
        img = rand_img(np.random.default_rng(12))
        a = forward(params, img).logits.data
        b = forward(params, img).logits.data
        assert np.array_equal(a, b)

    def test_permutation_consistency(self):
        params = tiny_params(seed=5)
        img = rand_img(np.random.default_rng(13))
        base = forward(params, img).logits.data
        perm = np.array([2, 0, 1])
        permuted = params.copy()
        permuted.tensors["query_embed"].data = params["query_embed"].data[perm]
        out = forward(permuted, img).logits.data
        assert np.allclose(out, base[perm], atol=1e-12)

    def test_multihead_runs(self):
        cfg = ModelConfig(num_classes=3, embed_dim=8, decoder_layers=1, heads=2,
                          backbone_channels=(2, 4, 8))
        trace = forward(init_params(cfg, seed=1), rand_img(np.random.default_rng(14)))
        assert trace.logits.shape == (3, 8, 8)

    def test_gradient_of_ce_loss(self):
        params = tiny_params(seed=2)
        img = rand_img(np.random.default_rng(15))
        label = np.random.default_rng(16).integers(0, 3, (8, 8)).astype(np.uint8)
        loss = cross_entropy_pixelwise(forward(params, img).logits, label)
        ag.backward(loss)
        for name in ["backbone.0.w", "pixdec.1.w", "query_embed", "dec.0.sa.wq",
                     "dec.1.ffn.w1", "dec.0.ln1.g", "dec.1.ca.wv"]:
            t = params[name]
            analytic = t.grad.copy()

            def scalar_fn(arr, name=name):
                saved = params[name].data
                params.tensors[name].data = arr
                val = cross_entropy_pixelwise(forward(params, img).logits, label).item()
                params.tensors[name].data = saved
                return val

            fd = fd_gradient(scalar_fn, t.data.copy(), step=1e-5)
            assert rel_error(analytic, fd) < 1e-3, name


class TestForwardCross:
    def test_requires_pairing(self):
        params = tiny_params()
        img = rand_img(np.random.default_rng(17))
        trace = forward(params, img)
        with pytest.raises(ContractError):
            forward_cross(params, trace, trace, build_class_bias(3, set()), AttentionPairing.NONE)

    def test_identical_images_empty_set_equals_forward(self):
        params = tiny_params(seed=3)
        img = rand_img(np.random.default_rng(18))
        trace = forward(params, img)
        plain = trace.logits.data
        cross = forward_cross(
            params, trace, trace, build_class_bias(3, set()),
            AttentionPairing.OURS_PT_TO_INTERMEDIATE,
        ).logits.data
        assert np.abs(cross - plain).max() < 1e-9

    def test_fully_masked_bias_matches_identity_sublayer_path(self):
        params = tiny_params(seed=4)
        rng = np.random.default_rng(19)
        img_m = rand_img(rng)
        img_pt = rand_img(rng)
        cross = forward_cross(
            params, forward(params, img_m), forward(params, img_pt), build_class_bias(3, {0, 1, 2}),
            AttentionPairing.OURS_PT_TO_INTERMEDIATE,
        ).logits.data
        reference = forward_identity_token_attention(params, img_m).logits.data
        assert np.abs(cross - reference).max() < 1e-9

    def test_distinct_branches_differ_from_plain_forward(self):
        params = tiny_params(seed=6)
        rng = np.random.default_rng(20)
        img_m = rand_img(rng)
        img_pt = rand_img(rng)
        cross = forward_cross(
            params, forward(params, img_m), forward(params, img_pt), build_class_bias(3, set()),
            AttentionPairing.OURS_PT_TO_INTERMEDIATE,
        ).logits.data
        plain = forward(params, img_m).logits.data
        assert np.abs(cross - plain).max() > 1e-9

    def test_gradient_of_cross_loss(self):
        params = tiny_params(seed=7)
        rng = np.random.default_rng(21)
        img_m = rand_img(rng)
        img_pt = rand_img(rng)
        label = np.random.default_rng(22).integers(0, 3, (8, 8)).astype(np.uint8)
        bias = build_class_bias(3, {1})

        def loss_of():
            trace = forward_cross(params, forward(params, img_m), forward(params, img_pt), bias,
                                  AttentionPairing.OURS_PT_TO_INTERMEDIATE)
            return cross_entropy_pixelwise(trace.logits, label)

        loss = loss_of()
        ag.backward(loss)
        for name in ["dec.0.sa.wq", "dec.1.sa.wk", "backbone.1.w", "query_embed"]:
            analytic = params[name].grad.copy()

            def scalar_fn(arr, name=name):
                saved = params[name].data
                params.tensors[name].data = arr
                val = loss_of().item()
                params.tensors[name].data = saved
                return val

            fd = fd_gradient(scalar_fn, params[name].data.copy(), step=1e-5)
            assert rel_error(analytic, fd) < 1e-3, name


class TestPredict:
    def test_tie_break_to_lowest_class(self):
        params = tiny_params()
        for t in params.tensors.values():
            t.data[:] = 0.0
        pred = predict(params, rand_img(np.random.default_rng(23)))
        assert (pred == 0).all()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(ModelConfig(), seed=9)
        path = tmp_path / "model.osseg"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert loaded.names() == params.names()
        for name in params.names():
            assert np.array_equal(loaded[name].data, params[name].data)
        save_checkpoint(tmp_path / "again.osseg", loaded)
        assert (tmp_path / "model.osseg").read_bytes() == (tmp_path / "again.osseg").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.osseg"
        path.write_bytes(b"NOTOSG" + bytes(64))
        with pytest.raises(FormatError, match="bad checkpoint"):
            load_checkpoint(path)

    def test_truncated_blob(self, tmp_path):
        params = init_params(TINY, seed=1)
        path = tmp_path / "model.osseg"
        save_checkpoint(path, params)
        (tmp_path / "cut.osseg").write_bytes(path.read_bytes()[:100])
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "cut.osseg")

    @staticmethod
    def _defective(tmp_path, defect):
        params = init_params(TINY, seed=1)
        tensors = params.tensors
        if defect == "missing":
            del tensors["dec.1.ffn.w2"]
        elif defect == "wrong_shape":
            tensors["query_embed"] = Tensor(np.zeros((2, 8)))
        elif defect == "nan":
            tensors["pixdec.0.w"].data[0, 0, 1, 1] = np.nan
        elif defect == "unexpected":
            tensors["extra.w"] = Tensor(np.zeros((2, 2)))
        path = tmp_path / f"{defect}.osseg"
        save_checkpoint(path, params)
        if defect == "trailing":
            path.write_bytes(path.read_bytes() + b"\0")
        elif defect == "duplicate":
            # Rename the last tensor to the name of a same-shaped earlier one.
            blob = path.read_bytes()
            last = b"dec.1.ln3.b"
            assert blob.count(last) == 1
            path.write_bytes(blob.replace(last, b"dec.1.ln3.g"))
        return path

    @pytest.mark.parametrize("defect,message", [
        ("missing", "lacks tensor 'dec.1.ffn.w2'"),
        ("wrong_shape", "'query_embed' of shape \\(2, 8\\) does not match the config \\(\\(3, 8\\)\\)"),
        ("nan", "non-finite value in checkpoint tensor 'pixdec.0.w'"),
        ("trailing", "1 trailing bytes"),
        ("unexpected", "'extra.w' of shape \\(2, 2\\) does not match the config \\(no such"),
        ("duplicate", "duplicate checkpoint tensor 'dec.1.ln3.g'"),
    ])
    def test_defective_checkpoint_rejected(self, tmp_path, defect, message):
        with pytest.raises(FormatError, match=message):
            load_checkpoint(self._defective(tmp_path, defect))
