"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete (criterion 7 trains 12 models and takes the longest).
"""

import time
from itertools import chain, combinations

import numpy as np

from osseg import autograd as ag
from osseg import cli, evalmetrics, gradcheck, mixer, styletransfer, synthdata
from osseg.autograd import Tensor
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
from osseg.styletransfer import fda_stylize
from osseg.synthdata import (
    SOURCE_PALETTE,
    TARGET_PALETTE,
    DomainSample,
    DomainTag,
    LayoutMode,
    SceneSpec,
)
from osseg.trainer import AttentionPairing, TrainConfig, TrainData, train


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_gradient_fidelity():
    started = time.time()
    results = gradcheck.run_gradcheck(seed=0)
    elapsed = time.time() - started
    worst = max(results.values())
    ok = all(err < 1e-3 for err in results.values()) and elapsed < 300.0
    _report(1, ok, f"worst rel error {worst:.2e}, {elapsed:.0f}s")


def test_criterion_2_fda_identities():
    rng = np.random.default_rng(0)
    src = rng.random((8, 8, 3))
    ref = rng.random((8, 8, 3))
    beta0 = np.abs(fda_stylize(src, ref, beta=0.0) - src).max()
    self_ref = np.abs(fda_stylize(src, src, beta=0.5) - src).max()
    dc = fda_stylize(np.full((4, 4, 3), 0.5), np.full((4, 4, 3), 0.25), beta=0.25)
    dc_err = np.abs(dc - 0.25).max()
    ok = beta0 < 1e-9 and self_ref < 1e-9 and dc_err < 1e-9
    _report(2, ok, f"beta0 {beta0:.1e}, self {self_ref:.1e}, dc {dc_err:.1e}")


def test_criterion_3_mix_algebra():
    rng = np.random.default_rng(1)
    exact = True
    for _ in range(1000):
        donor = DomainSample(rng.random((8, 8, 3)), rng.integers(0, 5, (8, 8)).astype(np.uint8),
                             DomainTag.PSEUDO_TARGET)
        acceptor = DomainSample(rng.random((8, 8, 3)), rng.integers(0, 5, (8, 8)).astype(np.uint8),
                                DomainTag.SOURCE)
        pl = rng.integers(0, 5, (8, 8)).astype(np.uint8)
        mask = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        out = mixer.mix(donor, acceptor, mask, pl)
        sel = mask.astype(bool)
        want_img = np.where(sel[:, :, None], donor.image, acceptor.image)
        want_lbl = np.where(sel, donor.label, pl)
        if not (np.array_equal(out.image, want_img) and np.array_equal(out.label, want_lbl)):
            exact = False
            break
    ones = np.ones((8, 8), dtype=np.uint8)
    zeros = np.zeros((8, 8), dtype=np.uint8)
    donor = DomainSample(rng.random((8, 8, 3)), rng.integers(0, 5, (8, 8)).astype(np.uint8),
                         DomainTag.PSEUDO_TARGET)
    acceptor = DomainSample(rng.random((8, 8, 3)), rng.integers(0, 5, (8, 8)).astype(np.uint8),
                            DomainTag.SOURCE)
    pl = rng.integers(0, 5, (8, 8)).astype(np.uint8)
    all_ones = mixer.mix(donor, acceptor, ones, pl)
    all_zeros = mixer.mix(donor, acceptor, zeros, pl)
    edge_ok = (np.array_equal(all_ones.image, donor.image)
               and np.array_equal(all_ones.label, donor.label)
               and np.array_equal(all_zeros.image, acceptor.image)
               and np.array_equal(all_zeros.label, pl))
    _report(3, exact and edge_ok, "1000 pairs bit-exact vs oracle")


def test_criterion_4_cacda_masking():
    rng = np.random.default_rng(2)
    n = 5
    q = Tensor(rng.standard_normal((n, 6)))
    k = Tensor(rng.standard_normal((n, 6)))
    v = Tensor(rng.standard_normal((n, 6)))
    logits = ag.matmul(q, ag.transpose(k))
    masking_ok = True
    for subset in chain.from_iterable(combinations(range(n), r) for r in range(n + 1)):
        bias = build_class_bias(n, set(subset))
        w = ag.softmax_lastdim(ag.add(logits, bias)).data
        masked = bias.data <= ag.MASK_THRESHOLD
        row_masked = masked.all(axis=1)
        sums = w.sum(axis=1)
        if (w[masked] != 0.0).any():
            masking_ok = False
        if (np.abs(sums[~row_masked] - 1.0) > 1e-12).any():
            masking_ok = False
        if (sums[row_masked] != 0.0).any():
            masking_ok = False

    # The op with identity projections: the memory is [k | v], W_k and W_v pick its columns.
    pick = np.eye(12)
    mats = (q, Tensor(np.concatenate([k.data, v.data], axis=1)), Tensor(np.eye(6)),
            Tensor(pick[:, :6]), Tensor(pick[:, 6:]), Tensor(np.eye(6)))
    empty = ag.block_attention(*mats, [0], n, bias=build_class_bias(n, set()).data[None])
    plain = ag.block_attention(*mats, [0], n)
    reduces = np.array_equal(empty.data, plain.data)

    model = ModelConfig(num_classes=n, embed_dim=8, decoder_layers=2,
                        backbone_channels=(2, 4, 8))
    params = init_params(model, seed=3)
    img_m = rng.random((8, 8, 3))
    img_pt = rng.random((8, 8, 3))
    cross = forward_cross(params, [img_m, img_pt],
                          [(0, 1, build_class_bias(n, set(range(n))))])[2].data
    # The reference pass: every token-attention output projection at 0, so
    # the tokens pass that sublayer on the residual connection alone.
    silent = params.copy()
    for layer in range(model.decoder_layers):
        silent[f"dec.{layer}.sa.wo"].data[:] = 0.0
    reference = forward(silent, [img_m])[0].data
    residual_err = np.abs(cross - reference).max()
    ok = masking_ok and reduces and residual_err < 1e-9
    _report(4, ok, f"all 32 subsets, identity-residual err {residual_err:.1e}")


def test_criterion_5_loss_identity():
    source = synthdata.generate_dataset(SceneSpec(seed=40), 6)
    reference = synthdata.generate_sample(
        SceneSpec(palette=TARGET_PALETTE, layout_mode=LayoutMode.DENSE_CITY, seed=41), 0
    ).image
    model = ModelConfig(num_classes=5, embed_dim=8, decoder_layers=1,
                        backbone_channels=(2, 4, 8))
    worst = 0.0
    steps = 0
    for seed in (0, 1):
        cfg = TrainConfig(iterations=50, batch=2, crop=16, seed=seed,
                          lambda_cd=0.01, pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE)
        _, log = train(cfg, TrainData(source=source, reference=reference),
                       model_config=model)
        for rep in log:
            worst = max(worst, abs(rep.l_total - (rep.l_pt + rep.l_idr + 0.01 * rep.l_cd)))
            steps += 1
    assert steps == 100
    # The variant adds its supervised source term on top of the identity.
    cfg = TrainConfig(iterations=10, batch=2, crop=16, seed=2,
                      lambda_cd=0.01, pairing=AttentionPairing.VARIANT_ST)
    _, log = train(cfg, TrainData(source=source, reference=reference), model_config=model)
    worst_st = max(
        abs(rep.l_total - (rep.l_pt + rep.l_idr + 0.01 * rep.l_cd + rep.l_src))
        for rep in log
    )
    _report(5, worst <= 1e-12 and worst_st <= 1e-12,
            f"{steps} steps, worst gap {worst:.2e}")


def test_criterion_6_metric_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        counts = rng.integers(0, 40, (n, n)).astype(np.int64)
        report = evalmetrics.iou_report(evalmetrics.ConfusionMatrix(n, counts=counts))
        scored = []
        for c in range(n):
            tp = counts[c, c]
            union = counts[c, :].sum() + counts[:, c].sum() - tp
            if union > 0:
                direct = tp / union
                worst = max(worst, abs(report.per_class[c] - direct))
                scored.append(direct)
            else:
                assert report.per_class[c] is None
        if scored:
            worst = max(worst, abs(report.miou - np.mean(scored)))
    hand = evalmetrics.iou_report(
        evalmetrics.ConfusionMatrix(2, counts=np.array([[2, 1], [1, 2]]))
    )
    hand_ok = hand.miou == 0.5 and hand.per_class == [0.5, 0.5]
    _report(6, worst <= 1e-12 and hand_ok, f"500 matrices, worst gap {worst:.2e}")


def test_criterion_7_end_to_end_adaptation_gain():
    started = time.time()
    source = synthdata.generate_dataset(
        SceneSpec(palette=SOURCE_PALETTE, layout_mode=LayoutMode.OPEN_FIELD, seed=100), 200
    )
    target_test = synthdata.generate_dataset(
        SceneSpec(palette=TARGET_PALETTE, layout_mode=LayoutMode.DENSE_CITY, seed=200), 50
    )
    reference = synthdata.generate_sample(
        SceneSpec(palette=TARGET_PALETTE, layout_mode=LayoutMode.DENSE_CITY, seed=300), 0
    ).image
    pseudo_target = styletransfer.build_pseudo_target(source, reference)
    source_as_pt = [
        DomainSample(s.image.copy(), s.label.copy(), DomainTag.PSEUDO_TARGET)
        for s in source
    ]

    def target_miou(teacher):
        cm = evalmetrics.ConfusionMatrix(5)
        for s in target_test:
            evalmetrics.accumulate(cm, predict(teacher, s.image), s.label)
        return evalmetrics.iou_report(cm).miou

    configs = [
        ("source-only", source_as_pt, dict(use_idr=False, pairing=AttentionPairing.NONE)),
        ("+PT", pseudo_target, dict(use_idr=False, pairing=AttentionPairing.NONE)),
        ("+PT+CIDR", pseudo_target, dict(use_idr=True, pairing=AttentionPairing.NONE)),
        ("full", pseudo_target, dict(use_idr=True, pairing=AttentionPairing.OURS_PT_TO_INTERMEDIATE)),
    ]
    scores = {name: [] for name, _, _ in configs}
    for seed in (0, 1, 2):
        for name, pt_set, kw in configs:
            cfg = TrainConfig(iterations=2000, seed=seed, **kw)
            teacher, _ = train(cfg, TrainData(source=source, pseudo_target=pt_set))
            m = target_miou(teacher)
            scores[name].append(m)
            print(f"  criterion 7: seed {seed} {name:12s} mIoU {m:.4f}", flush=True)
    means = {name: float(np.mean(vals)) for name, vals in scores.items()}
    elapsed = time.time() - started
    gain = means["full"] - means["source-only"]
    gain_ok = gain >= 0.05
    order_ok = means["source-only"] <= means["+PT"] <= means["+PT+CIDR"]
    time_ok = elapsed < 1800.0
    detail = (f"means src {means['source-only']:.3f} pt {means['+PT']:.3f} "
              f"cidr {means['+PT+CIDR']:.3f} full {means['full']:.3f}, "
              f"gain {gain:+.3f}, {elapsed:.0f}s")
    _report(7, gain_ok and order_ok and time_ok, detail)


def test_criterion_8_determinism(tmp_path):
    roots = []
    for sub in ("a", "b"):
        root = tmp_path / sub / "source"
        code = cli.main(["gen-data", "--domain", "source", "--count", "6", "--seed", "9",
                         "--out", str(root)])
        assert code == 0
        roots.append(root)
    gen_ok = (roots[0] / "manifest.txt").read_bytes() == (roots[1] / "manifest.txt").read_bytes()
    for x, y in zip(sorted((roots[0] / "source").iterdir()),
                    sorted((roots[1] / "source").iterdir())):
        gen_ok = gen_ok and x.name == y.name and x.read_bytes() == y.read_bytes()

    ref = synthdata.generate_sample(
        SceneSpec(palette=TARGET_PALETTE, layout_mode=LayoutMode.DENSE_CITY, seed=50), 0
    ).image
    synthdata.write_image(tmp_path / "a" / "reference.ppm", ref)
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("iterations = 30\nseed = 21\ncrop = 32\n")
    blobs = []
    for name in ("c1", "c2"):
        ckpt = tmp_path / f"{name}.osseg"
        code = cli.main(["train", "--config", str(cfg_file),
                         "--data-root", str(tmp_path / "a"),
                         "--out", str(ckpt), "--log", str(tmp_path / f"{name}.csv")])
        assert code == 0
        blobs.append(ckpt.read_bytes())
    train_ok = blobs[0] == blobs[1]
    _report(8, gen_ok and train_ok, "gen-data and train byte-identical")


def test_criterion_9_round_trips(tmp_path):
    params = init_params(ModelConfig(), seed=7)
    ckpt = tmp_path / "m.osseg"
    save_checkpoint(ckpt, params)
    loaded = load_checkpoint(ckpt)
    again = tmp_path / "m2.osseg"
    save_checkpoint(again, loaded)
    ckpt_ok = ckpt.read_bytes() == again.read_bytes()
    ckpt_ok = ckpt_ok and all(
        np.array_equal(loaded[name].data, t.data) for name, t in params.tensors.items()
    )

    rng = np.random.default_rng(6)
    lbl = rng.integers(0, 5, (64, 64)).astype(np.uint8)
    lbl[0, 0] = synthdata.IGNORE
    synthdata.write_label(tmp_path / "l.pgm", lbl)
    lbl_ok = np.array_equal(synthdata.read_label(tmp_path / "l.pgm", num_classes=5), lbl)

    img = np.round(rng.random((32, 32, 3)) * 255.0) / 255.0  # representable exactly
    synthdata.write_image(tmp_path / "i.ppm", img)
    img_back = synthdata.read_image(tmp_path / "i.ppm")
    img_ok = np.array_equal(img_back, img)
    quant = rng.random((16, 16, 3))
    synthdata.write_image(tmp_path / "q.ppm", quant)
    quant_ok = np.abs(synthdata.read_image(tmp_path / "q.ppm") - quant).max() <= 1.0 / 510.0
    _report(9, ckpt_ok and lbl_ok and img_ok and quant_ok, "checkpoint and raster round trips")
