import platform
import resource

import numpy as np
import pytest

from osseg import autograd as ag
from osseg import trainer
from osseg.errors import ArgumentError
from osseg.segmodel import ModelConfig, init_params, predict
from osseg.synthdata import (
    IGNORE,
    TARGET_PALETTE,
    DomainSample,
    DomainTag,
    LayoutMode,
    SceneSpec,
    generate_dataset,
    generate_sample,
)
from osseg.trainer import (
    AdamW,
    AttentionPairing,
    TrainConfig,
    TrainData,
    ema_update,
    parse_config_file,
    pseudo_label,
    train,
)

TINY_MODEL = ModelConfig(num_classes=5, embed_dim=8, decoder_layers=1,
                         backbone_channels=(2, 4, 8))


# (l_pt, l_idr, l_cd, l_total, l_src) of the first 10 steps of quick_cfg(iterations=10,
# pairing=...) on small_data() and TINY_MODEL, recorded when every loss term ran its
# own forward pass. Sharing traces only reorders float sums, hence a 1e-10 tolerance.
PINNED_LOSSES = {
    "none": [
        (1.555473724531251, 1.5039649264921895, 0.0, 3.0594386510234406, None),
        (1.6700795806182749, 1.6700795806182749, 0.0, 3.3401591612365498, None),
        (1.6107311975712337, 1.5833762549131034, 0.0, 3.194107452484337, None),
        (1.5744109967603153, 1.5404428788573254, 0.0, 3.1148538756176407, None),
        (1.5643199683336664, 1.5430109263030702, 0.0, 3.1073308946367364, None),
        (1.5838336024779167, 1.5859165408653066, 0.0, 3.169750143343223, None),
        (1.5946618077450654, 1.5845243406224474, 0.0, 3.1791861483675126, None),
        (1.5183945879320841, 1.5114528457772232, 0.0, 3.0298474337093073, None),
        (1.534070322178887, 1.4196540930838877, 0.0, 2.9537244152627746, None),
        (1.4827677716148593, 1.464062908465674, 0.0, 2.9468306800805335, None),
    ],
    "ours_pt_to_intermediate": [
        (1.555473724531251, 1.5039649264921895, 1.5359149258845657, 3.0747978002822864, None),
        (1.6700850936332334, 1.6700850936332334, 1.6789135308143235, 3.35695932257461, None),
        (1.6107010168845513, 1.583351719339463, 1.6038465968850115, 3.2100912021928645, None),
        (1.5743858917764255, 1.5404321776226015, 1.6004780769909615, 3.130822850168937, None),
        (1.564313267901209, 1.542984344068714, 1.5566830004681123, 3.1228644419746043, None),
        (1.5837562609690923, 1.5858320403386366, 1.5893862706063788, 3.1854821640137927, None),
        (1.594669192594833, 1.5845202519180117, 1.600892536208153, 3.1951983698749262, None),
        (1.5183293792153558, 1.5115005780457405, 1.5186734839146188, 3.045016692100243, None),
        (1.534031894326569, 1.4193617639347302, 1.4364181841120616, 2.9677578401024194, None),
        (1.482492604230961, 1.4635057008572288, 1.4543053352260285, 2.96054135844045, None),
    ],
    "variant_st": [
        (1.555473724531251, 1.5039649264921895, 1.584827791265997, 4.623479559958245, 1.5481926310221445),
        (1.669014226080808, 1.669014226080808, 1.6785052798845277, 5.0121080629926595, 1.657294558032198),
        (1.6113010038531506, 1.5844238238829211, 1.636494970873167, 4.826375046525731, 1.6142852690809275),
        (1.574969321870415, 1.5413450441571492, 1.6441002775009665, 4.705549834236596, 1.5727944654340218),
        (1.5648473552398448, 1.5452037718212681, 1.575536325876656, 4.678481888661983, 1.5526753983421033),
        (1.5828638489640836, 1.5853491011322374, 1.5845935819941688, 4.774498527061434, 1.590439641145171),
        (1.593296941087208, 1.5848887224675146, 1.6128301588042921, 4.766839229927886, 1.5725252647851202),
        (1.520953951984108, 1.514973513876426, 1.5572349486762682, 4.550066428491048, 1.4985666131437512),
        (1.5322155830207624, 1.422753138700387, 1.5134372410462753, 4.492762480907171, 1.5226593867755591),
        (1.4816300432010325, 1.4668751155029172, 1.4569338143827304, 4.442250852229651, 1.479176355381874),
    ],
    "variant_s": [
        (1.555473724531251, 1.5039649264921895, 1.53612871106785, 3.074799938134119, None),
        (1.6700850935848683, 1.6700850935848683, 1.6791196505405295, 3.356961383675142, None),
        (1.6107007443275283, 1.5833517346434163, 1.604106024301645, 3.210093539213961, None),
        (1.5743857612541778, 1.5404324540148142, 1.6012314252546789, 3.130830529521539, None),
        (1.5643133515502217, 1.542984512026396, 1.5566266535721387, 3.122864130112339, None),
        (1.583755588714423, 1.5858313302036289, 1.5897865114389846, 3.1854847840324414, None),
        (1.5946680429480886, 1.5845194664461673, 1.6026550047844301, 3.1952140594421, None),
        (1.5183306738129383, 1.511502412624402, 1.5190062596018183, 3.0450231490333586, None),
        (1.534029520755775, 1.4193634481928847, 1.4367835130680882, 2.967760804079341, None),
        (1.4824908073957923, 1.4635061789795962, 1.4556100479210246, 2.9605530868545986, None),
    ],
}


def small_data(n=4, seed=0):
    src = generate_dataset(SceneSpec(seed=seed), n)
    ref = generate_sample(
        SceneSpec(palette=TARGET_PALETTE, layout_mode=LayoutMode.DENSE_CITY, seed=seed + 77), 0
    ).image
    return TrainData(source=src, reference=ref)


def quick_cfg(**kw):
    base = dict(iterations=2, batch=2, crop=16, seed=1, lr=1e-3)
    base.update(kw)
    return TrainConfig(**base)


class TestPseudoLabel:
    def test_dominant_class_everywhere(self):
        params = init_params(TINY_MODEL, seed=0)
        for t in params.tensors.values():
            t.data[:] = 0.0
        params.tensors["query_embed"].data[2, :] = 1.0
        # Zero pixel embeddings keep logits at zero; force via bias trick:
        # instead run on real params and just check argmax agreement below.
        img = np.random.default_rng(0).random((16, 16, 3))
        from osseg.segmodel import forward
        logits = forward(params, [img])[0].data
        pred = pseudo_label(params, [img])[0]
        assert np.array_equal(pred, logits.argmax(axis=0))

    def test_forced_dominant_logits(self):
        # Zero weights + unit layer norms turn e_class into the
        # row-normalized query embeddings; a one-hot pixel-decoder bias
        # projects out coordinate 0, so class 2's logit dominates exactly.
        params = init_params(TINY_MODEL, seed=1)
        for name, t in params.tensors.items():
            if name.endswith(".g"):
                t.data[:] = 1.0
            else:
                t.data[:] = 0.0
        params.tensors["pixdec.1.b"].data[0] = 1.0
        fq = params.tensors["query_embed"].data
        fq[:, 0] = -10.0
        fq[2, 0] = 10.0
        img = np.random.default_rng(1).random((16, 16, 3))
        from osseg.segmodel import forward
        logits = forward(params, [img])[0].data
        assert (logits[2] > np.delete(logits, 2, axis=0).max(axis=0)).all()
        assert (pseudo_label(params, [img])[0] == 2).all()

    def test_threshold_one_gives_all_ignore(self):
        params = init_params(TINY_MODEL, seed=2)
        img = np.random.default_rng(2).random((16, 16, 3))
        pred = pseudo_label(params, [img], threshold=1.0)[0]
        assert (pred == IGNORE).all()

    def test_matches_brute_force_argmax_with_tie_break(self):
        params = init_params(TINY_MODEL, seed=3)
        img = np.random.default_rng(3).random((16, 16, 3))
        from osseg.segmodel import forward
        logits = forward(params, [img])[0].data
        pred = pseudo_label(params, [img])[0]
        for i in range(16):
            for j in range(16):
                best, arg = -np.inf, None
                for c in range(5):
                    if logits[c, i, j] > best:
                        best, arg = logits[c, i, j], c
                assert pred[i, j] == arg


class TestLossArithmetic:
    def test_weighted_total_hand_value(self):
        # Component values 1, 2, 3 under the 0.01 cross-term weighting.
        assert abs((1.0 + 2.0 + 0.01 * 3.0) - 3.03) < 1e-12

    def test_lambda_zero_pairing_none(self):
        cfg = quick_cfg(lambda_cd=0.0, pairing=AttentionPairing.NONE)
        _, log = train(cfg, small_data(), model_config=TINY_MODEL)
        for rep in log:
            assert rep.l_cd == 0.0
            assert rep.l_total == rep.l_pt + rep.l_idr

    def test_additivity_identity_every_step(self):
        for pairing in [AttentionPairing.OURS_PT_TO_INTERMEDIATE,
                        AttentionPairing.VARIANT_S,
                        AttentionPairing.VARIANT_ST]:
            cfg = quick_cfg(pairing=pairing, iterations=3)
            _, log = train(cfg, small_data(), model_config=TINY_MODEL)
            for rep in log:
                expect = rep.l_pt + rep.l_idr + cfg.lambda_cd * rep.l_cd
                if pairing is AttentionPairing.VARIANT_ST:
                    expect += rep.l_src
                assert abs(rep.l_total - expect) <= 1e-12

    def test_variant_st_reports_source_loss(self):
        cfg = quick_cfg(pairing=AttentionPairing.VARIANT_ST)
        _, log = train(cfg, small_data(), model_config=TINY_MODEL)
        assert all(rep.l_src is not None and rep.l_src > 0 for rep in log)
        cfg2 = quick_cfg(pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE)
        _, log2 = train(cfg2, small_data(), model_config=TINY_MODEL)
        assert all(rep.l_src is None for rep in log2)


class TestEma:
    def test_ema_arithmetic(self):
        cfg = ModelConfig(num_classes=2, embed_dim=8, decoder_layers=1,
                          backbone_channels=(2, 2, 2))
        student = init_params(cfg, seed=0)
        teacher = init_params(cfg, seed=0)
        for t in student.tensors.values():
            t.data[:] = 1.0
        for t in teacher.tensors.values():
            t.data[:] = 0.0
        ema_update(teacher, student, alpha=0.99)
        for t in teacher.tensors.values():
            assert np.allclose(t.data, 0.01, atol=1e-15)

    def test_teacher_never_gets_gradients(self):
        cfg = quick_cfg(iterations=2)
        teacher, _ = train(cfg, small_data(), model_config=TINY_MODEL)
        for t in teacher.tensors.values():
            assert t.grad is None and not t.requires_grad


class _PerTensorAdamW:
    """Reference AdamW: the same arithmetic, tensor by tensor."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.params, self.lr, self.eps, self.weight_decay = params, lr, eps, weight_decay
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.tensors.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.tensors.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.tensors.items():
            m, v, g = self.m[name], self.v[name], p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= self.lr * (update + self.weight_decay * p.data)


def _per_tensor_ema(teacher, student, alpha):
    for name, t in teacher.tensors.items():
        t.data *= alpha
        t.data += (1.0 - alpha) * student[name].data


class TestFlatParameters:
    @pytest.mark.parametrize("pairing", ["none", "ours_pt_to_intermediate"])
    def test_flat_update_equals_per_tensor_reference(self, monkeypatch, pairing):
        cfg = quick_cfg(iterations=20, batch=2, pairing=pairing)
        data = small_data()
        flat_teacher, flat_log = train(cfg, data, model_config=TINY_MODEL)
        with monkeypatch.context() as patch:
            patch.setattr(trainer, "AdamW", _PerTensorAdamW)
            patch.setattr(trainer, "ema_update", _per_tensor_ema)
            ref_teacher, ref_log = train(cfg, data, model_config=TINY_MODEL)
        assert flat_log == ref_log
        assert flat_teacher.flat.tobytes() == ref_teacher.flat.tobytes()

    def test_tensors_are_views_of_the_flat_vectors(self):
        params = init_params(TINY_MODEL, seed=0).trainable(True)
        assert params.flat.shape == params.grad.shape == (
            sum(t.size for t in params.tensors.values()),)
        for name, t in params.tensors.items():
            assert np.shares_memory(t.data, params.flat), name
            assert np.shares_memory(t.grad, params.grad), name
        params.zero_grad()
        params["query_embed"].grad[...] = 2.0
        params["query_embed"].data[...] = 3.0
        assert params.grad.sum() == 2.0 * params["query_embed"].size
        assert (params.flat == 3.0).sum() == params["query_embed"].size

    def test_copy_shares_nothing(self):
        params = init_params(TINY_MODEL, seed=0).trainable(True)
        clone = params.copy()
        assert clone.grad is None and not np.shares_memory(clone.flat, params.flat)
        for name in params.tensors:
            assert not np.shares_memory(clone[name].data, params[name].data), name
            assert np.array_equal(clone[name].data, params[name].data), name
            assert clone[name].grad is None and not clone[name].requires_grad


class TestAdamW:
    def test_moves_against_gradient(self):
        cfg = ModelConfig(num_classes=2, embed_dim=8, decoder_layers=1,
                          backbone_channels=(2, 2, 2))
        params = init_params(cfg, seed=0)
        opt = AdamW(params, lr=0.1)
        t = params.tensors["query_embed"]
        before = t.data.copy()
        params.zero_grad()
        t.grad[...] = 1.0
        opt.step()
        assert (t.data < before).all()


class TestTrain:
    def test_zero_iterations_returns_init(self):
        cfg = quick_cfg(iterations=0)
        teacher, log = train(cfg, small_data(), model_config=TINY_MODEL)
        fresh = init_params(TINY_MODEL, seed=cfg.seed)
        assert log == []
        for name in fresh.tensors:
            assert np.array_equal(teacher[name].data, fresh[name].data)

    def test_deterministic_given_seed(self):
        cfg = quick_cfg(iterations=3, pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE)
        t1, log1 = train(cfg, small_data(), model_config=TINY_MODEL)
        t2, log2 = train(cfg, small_data(), model_config=TINY_MODEL)
        assert log1 == log2
        for name in t1.tensors:
            assert np.array_equal(t1[name].data, t2[name].data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ArgumentError):
            train(quick_cfg(), TrainData(source=[], reference=None))

    def test_ground_truth_mix_changes_only_labels(self):
        data = small_data()
        cfg_a = quick_cfg(iterations=3, use_ground_truth_mix=False, seed=5)
        cfg_b = quick_cfg(iterations=3, use_ground_truth_mix=True, seed=5)
        _, log_a = train(cfg_a, data, model_config=TINY_MODEL)
        _, log_b = train(cfg_b, data, model_config=TINY_MODEL)
        # Same pseudo-target pipeline and same crops: l_pt streams identical.
        assert log_a[0].l_pt == log_b[0].l_pt

    @pytest.mark.parametrize("gt_mix,calls", [(False, 3), (True, 0)])
    def test_teacher_labels_only_for_a_pseudo_label_mix(self, monkeypatch, gt_mix, calls):
        count = []
        real = trainer.pseudo_label
        monkeypatch.setattr(trainer, "pseudo_label",
                            lambda *args: count.append(1) or real(*args))
        train(quick_cfg(iterations=3, use_ground_truth_mix=gt_mix,
                        pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE),
              small_data(), model_config=TINY_MODEL)
        assert len(count) == calls

    def test_loss_decreases_over_200_steps(self):
        cfg = TrainConfig(iterations=200, batch=2, crop=16, seed=9, lr=1e-3,
                          pairing=AttentionPairing.NONE)
        _, log = train(cfg, small_data(n=6), model_config=TINY_MODEL)
        first = np.mean([r.l_total for r in log[:50]])
        last = np.mean([r.l_total for r in log[-50:]])
        assert last < first

    def test_crop_must_fit(self):
        with pytest.raises(ArgumentError):
            train(quick_cfg(crop=128), small_data())

    def test_batch_order_invariance(self):
        # With full-size crops (no crop randomness) and no class sampling,
        # the batch-mean losses are exchangeable: swapping the two samples
        # gives bit-identical loss values.
        from osseg.rng import derive_rng
        from osseg.segmodel import init_params
        from osseg.trainer import AdamW, train_step

        data = small_data(n=2)
        pt = [DomainSample(s.image.copy(), s.label.copy(), DomainTag.PSEUDO_TARGET)
              for s in data.source]
        cfg = TrainConfig(iterations=1, batch=2, crop=64, seed=3,
                          pairing=AttentionPairing.NONE, use_idr=False)
        reports = []
        for order in ([0, 1], [1, 0]):
            student = init_params(TINY_MODEL, seed=7).trainable(True)
            teacher = student.copy()
            opt = AdamW(student, lr=cfg.lr)
            rep = train_step(
                student, teacher,
                [data.source[i] for i in order], [pt[i] for i in order],
                [data.source[i] for i in order],
                derive_rng(cfg.seed, "step"), cfg, opt,
            )
            reports.append(rep)
        assert reports[0].l_pt == reports[1].l_pt
        assert reports[0].l_total == reports[1].l_total

    def test_prebuilt_pseudo_target_used(self):
        from osseg.styletransfer import build_pseudo_target
        data = small_data()
        pt = build_pseudo_target(data.source, data.reference)
        cfg = quick_cfg(iterations=1)
        _, log1 = train(cfg, TrainData(source=data.source, pseudo_target=pt),
                        model_config=TINY_MODEL)
        _, log2 = train(cfg, data, model_config=TINY_MODEL)
        assert log1[0].l_pt == log2[0].l_pt


class TestConvIndexCache:
    def test_many_input_sizes_stay_bounded(self):
        params = init_params(TINY_MODEL)
        ag._conv_indices.cache_clear()
        for width in range(8, 8 * 41, 8):
            predict(params, np.zeros((8, width, 3)))
        assert ag._conv_indices.cache_info().currsize <= 32

    def test_train_and_predict_working_set_is_cached(self):
        cfg = quick_cfg(iterations=2, crop=32, pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE)
        data = small_data()
        ag._conv_indices.cache_clear()
        teacher, _ = train(cfg, data)
        predict(teacher, data.source[0].image)
        first = ag._conv_indices.cache_info()
        train(cfg, data)
        predict(teacher, data.source[0].image)
        again = ag._conv_indices.cache_info()
        assert again.misses == first.misses
        assert again.hits > first.hits


class TestWarmSteps:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc settings")
    def test_a_warm_train_call_does_not_page_fault(self):
        # With glibc's default trimming a 32x32 step page-faulted about 500 times;
        # autograd's mallopt call keeps the freed heap for the next call to reuse.
        cfg = quick_cfg(iterations=10, crop=32, pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE)
        data = small_data()
        train(cfg, data)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(cfg, data)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20 * cfg.iterations


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "lambda_cd = 0.02\nema_alpha = 0.95\nlr = 0.005\niterations = 7\n"
            "batch = 1\ncrop = 24\nseed = 13\npseudo_label_threshold = 0.5\n"
            "use_ground_truth_mix = true\nuse_idr = false\npairing = variant_s\n"
        )
        cfg = parse_config_file(path)
        assert cfg == TrainConfig(
            lambda_cd=0.02, ema_alpha=0.95, lr=0.005, iterations=7, batch=1,
            crop=24, seed=13, pseudo_label_threshold=0.5,
            use_ground_truth_mix=True, use_idr=False,
            pairing=AttentionPairing.VARIANT_S,
        )

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(ArgumentError):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("iterations = soon\n")
        with pytest.raises(ArgumentError):
            parse_config_file(path)

    def test_default_values(self):
        cfg = TrainConfig()
        assert cfg.lambda_cd == 0.01
        assert cfg.ema_alpha == 0.99
        assert cfg.iterations == 2000
        assert cfg.batch == 2
        assert cfg.crop == 32
        assert cfg.pseudo_label_threshold == 0.0
        assert cfg.use_ground_truth_mix is False


class TestSharedTraces:
    """A step makes one student call, read by every loss, and one teacher call;
    the decoder runs once per call, the trunk once per image."""

    @staticmethod
    def _count_calls(monkeypatch, cfg):
        from osseg import autograd, segmodel, trainer

        calls = {"forward": 0, "forward_cross": 0, "decoder": 0, "conv2d": 0, "matmul": 0,
                 "bilinear_upsample2x": 0, "nodes": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def graph_nodes(loss):
            # The nodes `backward` visits, found by the same walk.
            seen, stack = set(), [loss]
            while stack:
                t = stack.pop()
                if id(t) not in seen and t._backward_fn is not None:
                    seen.add(id(t))
                    stack.extend(t._parents)
            return len(seen)

        backward = autograd.backward

        def counting_backward(loss):
            calls["nodes"] += graph_nodes(loss)
            return backward(loss)

        forward = counting("forward", segmodel.forward)
        monkeypatch.setattr(segmodel, "forward", forward)
        monkeypatch.setattr(trainer, "forward", forward)
        forward_cross = counting("forward_cross", segmodel.forward_cross)
        monkeypatch.setattr(segmodel, "forward_cross", forward_cross)
        monkeypatch.setattr(trainer, "forward_cross", forward_cross)
        monkeypatch.setattr(segmodel, "_decoder", counting("decoder", segmodel._decoder))
        for op in ("conv2d", "matmul", "bilinear_upsample2x"):
            monkeypatch.setattr(autograd, op, counting(op, getattr(autograd, op)))
        monkeypatch.setattr(autograd, "backward", counting_backward)
        # The default network, so that matmul and node counts are those of
        # a default-config train step.
        train(cfg, small_data())
        return calls

    def test_full_step_builds_each_trace_once(self, monkeypatch):
        # The teacher's pseudo-label pass, then one student call over the
        # pseudo-target and mixed crops and one cross block per sample.
        cfg = quick_cfg(iterations=1, pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE)
        assert self._count_calls(monkeypatch, cfg) == {
            "forward": 1, "forward_cross": 1, "decoder": 2, "conv2d": 30, "matmul": 58,
            "bilinear_upsample2x": 20, "nodes": 127,
        }

    def test_variant_st_step_reuses_source_and_pt_traces(self, monkeypatch):
        # Per sample: pseudo-target, teacher pseudo-label, mixed, source;
        # one student call over all but the teacher's crops.
        cfg = quick_cfg(iterations=1, pairing=AttentionPairing.VARIANT_ST, use_idr=True)
        calls = self._count_calls(monkeypatch, cfg)
        assert (calls["conv2d"], calls["forward"], calls["forward_cross"],
                calls["decoder"]) == (40, 1, 1, 2)

    def test_supervised_step_counts(self, monkeypatch):
        cfg = quick_cfg(iterations=1, pairing=AttentionPairing.NONE, use_idr=False)
        assert self._count_calls(monkeypatch, cfg) == {
            "forward": 1, "forward_cross": 0, "decoder": 1, "conv2d": 10, "matmul": 24,
            "bilinear_upsample2x": 6, "nodes": 78,
        }

    @pytest.mark.parametrize("pairing", sorted(PINNED_LOSSES))
    def test_losses_match_pinned_values(self, pairing):
        _, log = train(quick_cfg(iterations=10, pairing=AttentionPairing(pairing)),
                       small_data(), model_config=TINY_MODEL)
        assert len(log) == len(PINNED_LOSSES[pairing])
        for rep, pinned in zip(log, PINNED_LOSSES[pairing]):
            got = (rep.l_pt, rep.l_idr, rep.l_cd, rep.l_total, rep.l_src)
            for value, expect in zip(got, pinned):
                if expect is None:
                    assert value is None
                else:
                    assert abs(value - expect) <= 1e-10 * abs(expect)
