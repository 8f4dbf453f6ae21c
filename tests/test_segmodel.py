import errno
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osseg import autograd as ag
from osseg import segmodel
from osseg.autograd import Tensor, cross_entropy_pixelwise
from osseg.errors import (
    ArgumentError,
    ConfigurationError,
    DimensionError,
    FormatError,
    NumericError,
)
from osseg.gradcheck import fd_gradient, rel_error
from osseg.segmodel import (
    ModelConfig,
    build_class_bias,
    forward,
    forward_cross,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)

TINY = ModelConfig(num_classes=3, embed_dim=8, decoder_layers=2, heads=1,
                   backbone_channels=(2, 4, 8))


def tiny_params(seed=0):
    return init_params(TINY, seed=seed)


def rand_img(rng, size=8):
    return rng.random((size, size, 3))


def attention(q, k, v, scaled=False, bias=None, heads=1):
    """One query block on one key block, with an optional N x M bias Tensor.

    `scaled` divides the logits by the square root of a head's width, as a
    `scaled_attention` network does. The op's projections are identities:
    the memory is [k | v], and W_k and W_v pick its columns (exact products).
    """
    scale = 1.0 / np.sqrt(q.shape[1] // heads) if scaled else None
    d, dv = k.shape[1], v.shape[1]
    pick = np.eye(d + dv)
    return ag.block_attention(q, Tensor(np.concatenate([k.data, v.data], axis=1)),
                              Tensor(np.eye(q.shape[1])), Tensor(pick[:, :d]),
                              Tensor(pick[:, d:]), Tensor(np.eye(dv)), [0], k.shape[0],
                              None if bias is None else bias.data[None], scale, heads)


def assert_grads_match_fd(params, loss_of, names):
    """Analytic gradients of `loss_of()` against central differences."""
    params.zero_grad()
    ag.backward(loss_of())
    for name in names:
        fd = fd_gradient(lambda: loss_of().item(), params[name].data, step=1e-5)
        assert rel_error(params[name].grad, fd) < 1e-3, name


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
        out = attention(q, k, v)
        assert np.allclose(np.diag(out.data), 1.0, atol=1e-12)


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
        out = attention(q, k, v, bias=bias)
        assert np.array_equal(out.data, attention(q, k, v).data)

    def test_all_classes_masked_gives_zero_rows(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.standard_normal((4, 3)))
        k = Tensor(rng.standard_normal((4, 3)))
        v = Tensor(rng.standard_normal((4, 3)))
        out = attention(q, k, v, bias=build_class_bias(4, {0, 1, 2, 3}))
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
            attention(q, q, q, bias=Tensor(np.zeros((2, 2))))


class TestForward:
    def test_logits_shape(self):
        params = tiny_params()
        logits = forward(params, [rand_img(np.random.default_rng(9), 16)])
        assert logits[0].shape == (3, 16, 16)
        assert len(logits) == 1

    def test_zero_params_give_uniform_softmax(self):
        params = tiny_params()
        for t in params.tensors.values():
            t.data[:] = 0.0
        logits = forward(params, [rand_img(np.random.default_rng(10))])
        assert not logits[0].data.any()

    def test_logits_equal_product_of_embeddings(self):
        params = tiny_params()
        img = rand_img(np.random.default_rng(11))
        features, e_pixel = segmodel._backbone_and_pixels(params, img)
        e_class = segmodel._decoder(params, [features], [])
        assert e_pixel.shape == (8, 4, 4) and e_class.shape == (3, 8)
        manual = (e_class.data @ e_pixel.data.reshape(8, -1)).reshape(3, 4, 4)
        assert np.array_equal(forward(params, [img])[0].data,
                              ag.bilinear_upsample2x(Tensor(manual)).data)

    def test_size_not_divisible_by_8(self):
        with pytest.raises(ConfigurationError):
            forward(tiny_params(), [np.zeros((12, 12, 3))])

    def test_forward_is_pure(self):
        params = tiny_params()
        img = rand_img(np.random.default_rng(12))
        a = forward(params, [img])[0].data
        b = forward(params, [img])[0].data
        assert np.array_equal(a, b)

    def test_permutation_consistency(self):
        params = tiny_params(seed=5)
        img = rand_img(np.random.default_rng(13))
        base = forward(params, [img])[0].data
        perm = np.array([2, 0, 1])
        permuted = params.copy()
        permuted.tensors["query_embed"].data = params["query_embed"].data[perm]
        out = forward(permuted, [img])[0].data
        assert np.allclose(out, base[perm], atol=1e-12)

    def test_two_heads_run(self):
        cfg = ModelConfig(num_classes=3, embed_dim=8, decoder_layers=1, heads=2,
                          backbone_channels=(2, 4, 8))
        logits = forward(init_params(cfg, seed=1), [rand_img(np.random.default_rng(14))])
        assert logits[0].shape == (3, 8, 8)

    def test_gradient_of_ce_loss(self):
        params = tiny_params(seed=2)
        img = rand_img(np.random.default_rng(15))
        label = np.random.default_rng(16).integers(0, 3, (8, 8)).astype(np.uint8)
        assert_grads_match_fd(
            params, lambda: cross_entropy_pixelwise(forward(params, [img])[0], label),
            ["backbone.0.w", "pixdec.1.w", "query_embed", "dec.0.sa.wq",
             "dec.1.ffn.w1", "dec.0.ln1.g", "dec.1.ca.wv"],
        )


class TestMultihead:
    HEADS2 = ModelConfig(num_classes=3, embed_dim=8, decoder_layers=2, heads=2,
                         backbone_channels=(2, 4, 8))

    @staticmethod
    def _reference(q, k, v, heads, scaled, sampled):
        """Per-head softmax over the unmasked keys, heads joined along channels."""
        n, m = q.shape[0], k.shape[0]
        alive = np.ones((n, m), dtype=bool)
        for c in sampled or ():
            alive[c, :] = alive[:, c] = False
        d = q.shape[1] // heads
        outs = []
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            logits = q[:, cols] @ k[:, cols].T / (np.sqrt(d) if scaled else 1.0)
            weights = np.zeros((n, m))
            for r in range(n):
                if alive[r].any():
                    e = np.exp(logits[r, alive[r]] - logits[r, alive[r]].max())
                    weights[r, alive[r]] = e / e.sum()
            outs.append(weights @ v[:, cols])
        return np.concatenate(outs, axis=1)

    @pytest.mark.parametrize("sampled,scaled", [
        (None, False), (None, True), ({1}, False), ({0, 2}, True), ({0, 1, 2}, False),
    ])
    def test_two_heads_match_numpy_reference(self, sampled, scaled):
        rng = np.random.default_rng(24)
        q, k, v = (rng.standard_normal((3, 8)) for _ in range(3))
        bias = None if sampled is None else build_class_bias(3, sampled)
        out = attention(Tensor(q), Tensor(k), Tensor(v), scaled, bias, heads=2)
        assert np.allclose(out.data, self._reference(q, k, v, 2, scaled, sampled),
                           rtol=0.0, atol=1e-12)

    def test_two_heads_over_image_memory(self):
        # Cross-attention shape: 3 queries over 6 keys, no bias.
        rng = np.random.default_rng(25)
        q = rng.standard_normal((3, 8))
        k, v = rng.standard_normal((6, 8)), rng.standard_normal((6, 8))
        out = attention(Tensor(q), Tensor(k), Tensor(v), heads=2)
        assert np.allclose(out.data, self._reference(q, k, v, 2, False, None),
                           rtol=0.0, atol=1e-12)

    def test_gradient_of_two_head_cross_loss(self):
        params = init_params(self.HEADS2, seed=8)
        rng = np.random.default_rng(26)
        img_m, img_pt = rand_img(rng), rand_img(rng)
        label = rng.integers(0, 3, (8, 8)).astype(np.uint8)
        bias = build_class_bias(3, {2})

        def loss_of():
            logits = forward_cross(params, [img_m, img_pt], [(0, 1, bias)])
            return cross_entropy_pixelwise(logits[2], label)

        assert_grads_match_fd(params, loss_of,
                              ["dec.0.sa.wq", "dec.1.sa.wv", "dec.0.ca.wk", "dec.1.sa.wo"])


class TestForwardCross:
    def test_identical_images_empty_set_equals_forward(self):
        params = tiny_params(seed=3)
        img = rand_img(np.random.default_rng(18))
        plain = forward(params, [img])[0].data
        cross = forward_cross(params, [img], [(0, 0, build_class_bias(3, set()))])[1].data
        assert np.abs(cross - plain).max() < 1e-9

    def test_fully_masked_bias_matches_identity_sublayer_path(self):
        params = tiny_params(seed=4)
        rng = np.random.default_rng(19)
        img_m = rand_img(rng)
        img_pt = rand_img(rng)
        cross = forward_cross(
            params, [img_m, img_pt], [(0, 1, build_class_bias(3, {0, 1, 2}))],
        )[2].data
        # With every token-attention output projection at 0, a plain pass
        # leaves the tokens to the residual connection, as full masking does.
        silent = params.copy()
        for layer in range(TINY.decoder_layers):
            silent[f"dec.{layer}.sa.wo"].data[:] = 0.0
        reference = forward(silent, [img_m])[0].data
        assert np.abs(cross - reference).max() < 1e-9

    def test_distinct_branches_differ_from_plain_forward(self):
        params = tiny_params(seed=6)
        rng = np.random.default_rng(20)
        img_m = rand_img(rng)
        img_pt = rand_img(rng)
        cross = forward_cross(
            params, [img_m, img_pt], [(0, 1, build_class_bias(3, set()))],
        )[2].data
        plain = forward(params, [img_m])[0].data
        assert np.abs(cross - plain).max() > 1e-9

    def test_gradient_of_cross_loss(self):
        params = tiny_params(seed=7)
        rng = np.random.default_rng(21)
        img_m = rand_img(rng)
        img_pt = rand_img(rng)
        label = np.random.default_rng(22).integers(0, 3, (8, 8)).astype(np.uint8)
        bias = build_class_bias(3, {1})

        def loss_of():
            logits = forward_cross(params, [img_m, img_pt], [(0, 1, bias)])
            return cross_entropy_pixelwise(logits[2], label)

        assert_grads_match_fd(params, loss_of,
                              ["dec.0.sa.wq", "dec.1.sa.wk", "backbone.1.w", "query_embed"])

    def test_wrong_bias_shape(self):
        params = tiny_params()
        img = rand_img(np.random.default_rng(17))
        with pytest.raises(DimensionError):
            forward_cross(params, [img], [(0, 0, build_class_bias(4, set()))])


class TestBatchedDecoder:
    """One decoder pass over a batch equals one pass per image."""

    CLASS_SETS = [set(), {1}, {0, 1, 2}]  # no mask, partial, every token masked

    @staticmethod
    def _passes(params, mains, conds, sampled, labels):
        """Logits of both branches' own blocks and of the cross blocks, and their summed loss."""
        batch = len(mains)
        cross = [(b, batch + b, build_class_bias(3, s)) for b, s in enumerate(sampled)]
        logits = forward_cross(params, mains + conds, cross)
        total = None
        for out, label in zip(logits, labels * 3):
            term = cross_entropy_pixelwise(out, label)
            total = term if total is None else ag.add(total, term)
        return logits, total

    @pytest.mark.parametrize("shift", range(3))
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("batch", [2, 3])
    def test_batch_equals_per_image_passes(self, batch, heads, shift):
        cfg = ModelConfig(num_classes=3, embed_dim=8, decoder_layers=2, heads=heads,
                          backbone_channels=(2, 4, 8))
        params = init_params(cfg, seed=batch + 2 * heads).trainable(True)
        rng = np.random.default_rng(30 + shift)
        mains = [rand_img(rng) for _ in range(batch)]
        conds = [rand_img(rng) for _ in range(batch)]
        labels = [rng.integers(0, 3, (8, 8)).astype(np.uint8) for _ in range(batch)]
        sampled = [self.CLASS_SETS[(b + shift) % 3] for b in range(batch)]

        params.zero_grad()
        logits, total = self._passes(params, mains, conds, sampled, labels)
        ag.backward(total)
        grads = {name: t.grad.copy() for name, t in params.tensors.items()}

        single_logits = [[] for _ in range(3)]
        summed = {name: np.zeros_like(g) for name, g in grads.items()}
        for b in range(batch):
            params.zero_grad()
            out, loss = self._passes(params, [mains[b]], [conds[b]], [sampled[b]], [labels[b]])
            ag.backward(loss)
            for role in range(3):
                single_logits[role].append(out[role])
            for name in summed:
                summed[name] += params[name].grad
        for got, want in zip(logits, sum(single_logits, [])):
            assert np.abs(got.data - want.data).max() <= 1e-12
        # Relative to the largest gradient entry: some tensors, such as the
        # last layer-norm bias, lie in a flat direction of the loss (a shift
        # common to every class logit) and carry only rounding noise.
        scale = max(np.abs(want).max() for want in summed.values())
        for name, want in summed.items():
            assert np.abs(grads[name] - want).max() <= 1e-10 * scale, name

    def test_mismatched_batches_rejected(self):
        params = tiny_params()
        rng = np.random.default_rng(33)
        two = [rand_img(rng), rand_img(rng)]
        bias = build_class_bias(3, set())
        with pytest.raises(DimensionError):
            forward_cross(params, two, [(2, 0, bias)])
        with pytest.raises(DimensionError):
            forward_cross(params, two, [(0, -1, bias)])
        with pytest.raises(DimensionError):
            forward(params, [rand_img(rng, 8), rand_img(rng, 16)])
        with pytest.raises(DimensionError):
            forward(params, [])

    def test_forward_logits_are_bitwise_those_of_one_image(self):
        # The default network at 64x64, whose image memory has 64 rows.
        params = init_params(ModelConfig(), seed=3)
        rng = np.random.default_rng(34)
        imgs = [rand_img(rng, 64) for _ in range(6)]
        alone = [forward(params, [img])[0].data for img in imgs]
        for chunk in (2, 3, 6):
            for start in range(0, len(imgs), chunk):
                batched = forward(params, imgs[start:start + chunk])
                for got, want in zip(batched, alone[start:start + chunk]):
                    assert np.array_equal(got.data, want)

    # 8x8 is the one size whose image memory has a single row per image; there
    # a batched pass differed from one-image passes by at most 6.0e-15 of the
    # largest |logit| over 400 passes (heads 1 and 2, 10 parameter seeds).
    ONE_ROW_BOUND = 5e-14

    @example(h=8, w=8, batch=3, heads=1, seed=0)
    @example(h=8, w=8, batch=2, heads=2, seed=1)
    @example(h=8, w=16, batch=3, heads=2, seed=2)
    @given(h=st.integers(1, 16).map(lambda i: 8 * i), w=st.integers(1, 16).map(lambda i: 8 * i),
           batch=st.integers(1, 3), heads=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_forward_batch_invariance_over_sizes(self, h, w, batch, heads, seed):
        params = init_params(ModelConfig(heads=heads), seed=seed)
        rng = np.random.default_rng(seed)
        imgs = [rng.random((h, w, 3)) for _ in range(batch)]
        for got, img in zip(forward(params, imgs), imgs):
            want = forward(params, [img])[0].data
            if (h, w) == (8, 8):
                assert np.abs(got.data - want).max() <= self.ONE_ROW_BOUND * np.abs(want).max()
            else:
                assert np.array_equal(got.data, want)

    def test_cross_blocks_match_one_sample_passes(self):
        params = init_params(ModelConfig(), seed=4)
        rng = np.random.default_rng(35)
        imgs = [rand_img(rng, 32) for _ in range(4)]
        cross = [(0, 2, build_class_bias(5, {1})), (3, 3, build_class_bias(5, set())),
                 (0, 1, build_class_bias(5, {0, 2, 4})), (2, 0, build_class_bias(5, range(5)))]
        batched = forward_cross(params, imgs, cross)[len(imgs):]
        for got, (main, cond, bias) in zip(batched, cross):
            want = forward_cross(params, [imgs[main], imgs[cond]], [(0, 1, bias)])[2]
            assert np.abs(got.data - want.data).max() <= 1e-12


class TestForwardBits:
    """`forward`, `forward_cross` and `label_maps` equal, bit for bit, a head that
    the test builds from primitive ops (`matmul`, `softmax_lastdim`, a numpy layer
    norm, `bilinear_upsample2x`) over one block and one head at a time, on the
    trunk's features and pixel embeddings."""

    @staticmethod
    def _layer_norm(s, gamma, beta):
        centered = s - s.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return gamma.data * (centered * (1.0 / np.sqrt(var + 1e-5))) + beta.data

    @staticmethod
    def _attend(q, k, v, heads, scale, bias):
        """One query block on one key block, head by head, joined along channels."""
        d, outs = q.shape[1] // heads, []
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            # K^T as a transposed view, as the op reads it: BLAS may round a product
            # of a transposed copy differently.
            logits = ag.matmul(Tensor(q[:, cols]), Tensor(k[:, cols].T))
            if scale is not None:
                logits = ag.scale(logits, scale)
            if bias is not None:
                logits = ag.add(logits, bias)
            outs.append(ag.matmul(ag.softmax_lastdim(logits), Tensor(v[:, cols])).data)
        return np.concatenate(outs, axis=1)

    def _reference(self, params, imgs, cross):
        cfg = params.config
        n, heads = cfg.num_classes, cfg.heads
        scale = 1.0 / np.sqrt(cfg.embed_dim // heads) if cfg.scaled_attention else None
        trunk = [segmodel._backbone_and_pixels(params, img) for img in imgs]
        memory = np.concatenate([f.data.reshape(f.shape[0], -1).T for f, _ in trunk])
        per_image = memory.shape[0] // len(imgs)
        owners = list(range(len(imgs))) + [main for main, _, _ in cross]
        conds = list(range(len(imgs))) + [cond for _, cond, _ in cross]
        biases = [None] * len(imgs) + [bias for _, _, bias in cross]
        tokens = np.concatenate([params["query_embed"].data] * len(owners))

        def block(a, b, size=n):
            return a[b * size:(b + 1) * size]

        for layer in range(cfg.decoder_layers):
            p = {name[len(f"dec.{layer}."):]: t for name, t in params.tensors.items()
                 if name.startswith(f"dec.{layer}.")}
            q, k, v = (ag.matmul(Tensor(src), p[name]).data for src, name in
                       ((tokens, "ca.wq"), (memory, "ca.wk"), (memory, "ca.wv")))
            a = np.concatenate([self._attend(block(q, b), block(k, o, per_image),
                                             block(v, o, per_image), heads, scale, None)
                                for b, o in enumerate(owners)])
            tokens = self._layer_norm(ag.matmul(Tensor(a), p["ca.wo"]).data + tokens,
                                      p["ln1.g"], p["ln1.b"])
            q, k, v = (ag.matmul(Tensor(tokens), p[name]).data for name in
                       ("sa.wq", "sa.wk", "sa.wv"))
            a = np.concatenate([self._attend(block(q, c), block(k, b), block(v, b), heads,
                                             scale, bias)
                                for b, (c, bias) in enumerate(zip(conds, biases))])
            tokens = self._layer_norm(ag.matmul(Tensor(a), p["sa.wo"]).data + tokens,
                                      p["ln2.g"], p["ln2.b"])
            h = ag.relu(ag.add(ag.matmul(Tensor(tokens), p["ffn.w1"]), p["ffn.b1"]))
            h = ag.add(ag.matmul(h, p["ffn.w2"]), p["ffn.b2"])
            tokens = self._layer_norm(h.data + tokens, p["ln3.g"], p["ln3.b"])
        logits = []
        for b, owner in enumerate(owners):
            e_pixel = trunk[owner][1].data
            ce, h, w = e_pixel.shape
            product = ag.matmul(Tensor(block(tokens, b)), Tensor(e_pixel.reshape(ce, h * w)))
            logits.append(ag.bilinear_upsample2x(ag.reshape(product, (n, h, w))).data)
        return logits

    @pytest.mark.parametrize("size", [16, 64])
    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_passes_equal_the_primitive_reference(self, heads, scaled, size):
        cfg = ModelConfig(heads=heads, scaled_attention=scaled)
        params = init_params(cfg, seed=heads + 2 * scaled)
        rng = np.random.default_rng(size + heads)
        imgs = [rand_img(rng, size) for _ in range(3)]
        cross = [(0, 2, build_class_bias(5, {1, 3})), (2, 2, build_class_bias(5, set())),
                 (1, 0, build_class_bias(5, range(5)))]
        for got, want in zip(forward(params, imgs), self._reference(params, imgs, [])):
            assert np.array_equal(got.data, want)
        want = self._reference(params, imgs, cross)
        got = forward_cross(params, imgs, cross)
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            assert np.array_equal(g.data, w)
        for labels, logits in zip(segmodel.label_maps(params, imgs), want):
            assert np.array_equal(labels, logits.argmax(axis=0))


class TestPredict:
    def test_non_finite_logits_raise(self):
        params = tiny_params()
        params["dec.1.ln3.b"].data[:] = 1e300
        params["pixdec.1.b"].data[:] = 1e300
        with pytest.raises(NumericError, match="non-finite logits"):
            predict(params, rand_img(np.random.default_rng(24)))

    def test_tie_break_to_lowest_class(self):
        params = tiny_params()
        for t in params.tensors.values():
            t.data[:] = 0.0
        pred = predict(params, rand_img(np.random.default_rng(23)))
        assert (pred == 0).all()


class TestCheckpoint:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.osseg"
        save_checkpoint(path, init_params(TINY, seed=0))
        before = path.read_bytes()

        class HalfWrite:
            """A file whose write stores half the bytes, then fails as a full disk does."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(segmodel, "open", lambda *a, **kw: HalfWrite(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, init_params(TINY, seed=1))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.osseg"]

    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(ModelConfig(), seed=9)
        path = tmp_path / "model.osseg"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert list(loaded.tensors) == list(params.tensors)
        for name, t in params.tensors.items():
            assert np.array_equal(loaded[name].data, t.data)
        save_checkpoint(tmp_path / "again.osseg", loaded)
        assert (tmp_path / "model.osseg").read_bytes() == (tmp_path / "again.osseg").read_bytes()

    @pytest.mark.parametrize("config,block", [
        (ModelConfig(), b"num_classes=5\nembed_dim=32\ndecoder_layers=2\nheads=1\n"
                        b"backbone_channels=8,16,32\nscaled_attention=0\n"),
        (ModelConfig(heads=2, scaled_attention=True),
         b"num_classes=5\nembed_dim=32\ndecoder_layers=2\nheads=2\n"
         b"backbone_channels=8,16,32\nscaled_attention=1\n"),
    ])
    def test_config_block_bytes(self, config, block):
        # Checkpoints written before hold these bytes; they must still load.
        assert segmodel._config_block(config) == block
        assert segmodel._parse_config_block(block) == config

    def test_attention_pairing_line_is_skipped(self, tmp_path):
        # Checkpoints written while the model config recorded the trainer's
        # pairing carry an `attention_pairing=` line; it selects nothing.
        params = init_params(TINY, seed=2)
        path = tmp_path / "model.osseg"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", blob[6:10])
        cfg_blob = blob[10:10 + cfg_len].replace(
            b"scaled_attention=", b"attention_pairing=variant_st\nscaled_attention=")
        old = tmp_path / "old.osseg"
        old.write_bytes(blob[:6] + struct.pack("<I", len(cfg_blob)) + cfg_blob
                        + blob[10 + cfg_len:])
        loaded = load_checkpoint(old)
        assert loaded.config == params.config
        assert list(loaded.tensors) == list(params.tensors)
        for name, t in params.tensors.items():
            assert np.array_equal(loaded[name].data, t.data)

    @pytest.mark.parametrize("old,new", [
        (b"heads=1", b"heads=0"),
        (b"heads=1", b"heads=-2"),
        (b"decoder_layers=2", b"decoder_layers=-3"),
        (b"decoder_layers=2", b"decoder_layers=0"),
        (b"decoder_layers=2", b"decoder_layers=999999999999"),
        (b"num_classes=3", b"num_classes=0"),
        (b"num_classes=3", b"num_classes=300"),
        (b"embed_dim=8", b"embed_dim=0"),
        (b"backbone_channels=2,4,8", b"backbone_channels=2,0,8"),
        (b"backbone_channels=2,4,8", b"backbone_channels=2,4"),
    ])
    def test_crafted_config_block_rejected(self, tmp_path, old, new):
        params = init_params(TINY, seed=2)
        path = tmp_path / "model.osseg"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", blob[6:10])
        cfg_blob = blob[10:10 + cfg_len]
        assert old in cfg_blob
        cfg_blob = cfg_blob.replace(old, new)
        path.write_bytes(blob[:6] + struct.pack("<I", len(cfg_blob)) + cfg_blob
                         + blob[10 + cfg_len:])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_tensor_count_matches_the_network(self):
        for layers in (1, 2, 5):
            cfg = ModelConfig(decoder_layers=layers)
            assert len(segmodel._param_shapes(cfg)) == (
                segmodel._TRUNK_TENSORS + segmodel._LAYER_TENSORS * layers)

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
