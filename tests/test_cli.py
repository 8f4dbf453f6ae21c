import errno
import hashlib
import itertools
import os
import re
import shlex
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from osseg import autograd as ag
from osseg import cli, evalmetrics, gradcheck, mixer, segmodel, synthdata, trainer
from osseg.autograd import Tensor
from osseg.rng import derive_rng
from osseg.segmodel import (
    ModelConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from osseg.synthdata import DomainSample, DomainTag, SceneSpec, read_image, read_label
from osseg.trainer import AttentionPairing, TrainConfig, TrainData, train


def run(*argv):
    return cli.main(list(argv))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest_fields(path):
    """The `key = value` lines of a run manifest, as a dict of strings."""
    return dict(line.split(" = ", 1) for line in Path(path).read_text().splitlines())


def tree_bytes(root):
    """Map of relative path -> file bytes, skipping the wall-time run manifests:
    `run_manifest.txt` and `<out>.manifest.txt`."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name == "run_manifest.txt" or name.endswith(".manifest.txt"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


class TestGenData:
    def test_count_zero_is_usage_error(self, tmp_path):
        assert run("gen-data", "--domain", "source", "--count", "0",
                   "--out", str(tmp_path / "d")) == 2

    @pytest.mark.parametrize("size", ["0", "-8", "4", "12"])
    def test_size_not_a_positive_multiple_of_8_is_usage_error(self, tmp_path, capsys, size):
        out = tmp_path / "d"
        assert run("gen-data", "--domain", "source", "--count", "1", "--size", size,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_size_8_generates(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen-data", "--domain", "target", "--count", "2", "--size", "8",
                   "--out", str(out)) == 0
        assert read_image(out / "target" / "img_0.ppm").shape == (8, 8, 3)

    def test_bad_flag_is_usage_error(self, tmp_path):
        assert run("gen-data", "--domain", "moon", "--count", "1",
                   "--out", str(tmp_path / "d")) == 2

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--domain", "source", "--count", "3", "--seed", "7",
                   "--out", str(a)) == 0
        assert run("gen-data", "--domain", "source", "--count", "3", "--seed", "7",
                   "--out", str(b)) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_manifest_lists_exactly_count_pairs(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen-data", "--domain", "target", "--count", "5", "--seed", "1",
                   "--out", str(out)) == 0
        lines = (out / "manifest.txt").read_text().strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            img, lbl = line.split("\t")
            assert (out / img).exists() and (out / lbl).exists()

    def test_run_manifest_written(self, tmp_path):
        out = tmp_path / "d"
        run("gen-data", "--domain", "source", "--count", "1", "--out", str(out))
        text = (out / "run_manifest.txt").read_text()
        assert "command = gen-data" in text
        assert "wall_time_s" in text


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared small end-to-end pipeline: data, reference, pt, checkpoint."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert run("gen-data", "--domain", "source", "--count", "4", "--seed", "1",
               "--out", str(data / "source")) == 0
    assert run("gen-data", "--domain", "target", "--count", "2", "--seed", "2",
               "--out", str(data / "targets")) == 0
    ref = data / "reference.ppm"
    ref.write_bytes((data / "targets" / "target" / "img_0.ppm").read_bytes())
    assert run("stylize", "--src-dir", str(data / "source"), "--reference", str(ref),
               "--beta", "0.05", "--out-dir", str(data / "pt")) == 0
    cfgfile = root / "cfg.txt"
    cfgfile.write_text("iterations = 15\nseed = 3\ncrop = 32\npairing = ours_pt_to_intermediate\n")
    ckpt = root / "ckpt.osseg"
    log = root / "train.csv"
    assert run("train", "--config", str(cfgfile), "--data-root", str(data),
               "--out", str(ckpt), "--log", str(log)) == 0
    return root


class TestStylize:
    def test_labels_copied(self, pipeline):
        data = pipeline / "data"
        src_lbl = read_label(data / "source" / "source" / "lbl_0.pgm")
        pt_lbl = read_label(data / "pt" / "pt" / "lbl_0.pgm")
        assert np.array_equal(src_lbl, pt_lbl)


def _mixed_size_data(root, defect):
    """A data root whose source or pseudo-target sample 2 is 16x16, the rest 64x64."""
    samples = synthdata.generate_dataset(SceneSpec(seed=4), 2)
    small = synthdata.generate_dataset(SceneSpec(seed=4, image_size=(16, 16)), 1)
    synthdata.write_dataset(root / "source", "source",
                            samples + (small if defect == "source" else samples[:1]))
    pt = [DomainSample(s.image, s.label, DomainTag.PSEUDO_TARGET)
          for s in samples + (small if defect == "pt" else samples[:1])]
    synthdata.write_dataset(root / "pt", "pt", pt)
    return root


class TestMix:
    def _mix(self, pipeline, out, cfgfile=None):
        return run("mix", "--ckpt", str(pipeline / "ckpt.osseg"),
                   "--config", str(cfgfile or pipeline / "cfg.txt"),
                   "--data-root", str(pipeline / "data"), "--out-dir", str(out))

    def test_mix_outputs_and_sidecars(self, pipeline, tmp_path, monkeypatch):
        out = tmp_path / "mixed"
        assert self._mix(pipeline, out) == 0

        # Step 0 of the run, rebuilt from the same inputs, teacher and RNG
        # streams, recording what `step_loss` mixes and what the student sees.
        data = pipeline / "data"
        cfg = trainer.parse_config_file(pipeline / "cfg.txt")
        source = synthdata.read_dataset(data / "source")
        pt = synthdata.read_dataset(data / "pt", domain_tag=DomainTag.PSEUDO_TARGET)
        sampling = derive_rng(cfg.seed, "sampling")
        idx_i = sampling.integers(0, len(source), size=cfg.batch)
        idx_j = sampling.integers(0, len(source), size=cfg.batch)
        teacher = load_checkpoint(pipeline / "ckpt.osseg")
        mixes, student_imgs = [], []
        real_mix, real_cross = mixer.mix, trainer.forward_cross

        def recording_mix(donor, acceptor, mask, acceptor_label):
            mixes.append((donor, acceptor, mask, acceptor_label,
                          real_mix(donor, acceptor, mask, acceptor_label)))
            return mixes[-1][-1]

        def recording_cross(params, imgs, cross):
            student_imgs.extend(imgs)
            return real_cross(params, imgs, cross)

        monkeypatch.setattr(mixer, "mix", recording_mix)
        monkeypatch.setattr(trainer, "forward_cross", recording_cross)
        trainer.step_loss(teacher.copy(), teacher, [source[i] for i in idx_i],
                          [pt[i] for i in idx_i], [source[j] for j in idx_j],
                          derive_rng(cfg.seed, "step"), cfg)

        assert len(mixes) == cfg.batch
        assert len((out / "manifest.txt").read_text().splitlines()) == cfg.batch
        for n, (donor, acceptor, mask, pl, mixed) in enumerate(mixes):
            assert np.array_equal(student_imgs[cfg.batch + n], mixed.image)
            assert np.array_equal(read_label(out / "mix" / f"lbl_{n}.pgm"), mixed.label)
            written = np.rint(read_image(out / "mix" / f"img_{n}.ppm") * 255.0)
            assert np.array_equal(written, np.rint(np.clip(mixed.image, 0.0, 1.0) * 255.0))
            known = acceptor.label != synthdata.IGNORE
            accuracy = (pl == acceptor.label)[known].mean()
            classes = sorted(np.unique(donor.label[mask == 1]).tolist())
            assert (out / "mix" / f"mix_{n}.txt").read_text() == (
                f"donor_i = {idx_i[n]}\nacceptor_j = {idx_j[n]}\n"
                f"classes = {','.join(map(str, classes))}\n"
                f"pasted_fraction = {float(mask.mean())!r}\n"
                f"pseudo_label_accuracy = {float(accuracy)!r}\n")

    def test_ground_truth_mix_has_no_pseudo_label_accuracy(self, pipeline, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text((pipeline / "cfg.txt").read_text() + "use_ground_truth_mix = true\n")
        assert self._mix(pipeline, tmp_path / "mixed", cfgfile) == 0
        for n in range(2):
            text = (tmp_path / "mixed" / "mix" / f"mix_{n}.txt").read_text()
            assert text.endswith("\npseudo_label_accuracy = nan\n")

    def test_config_without_mixed_crops_is_usage_error(self, pipeline, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("use_idr = false\npairing = none\n")
        assert self._mix(pipeline, tmp_path / "mixed", cfgfile) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfgfile}: a step of this config builds no mixed crop\n"
        assert not (tmp_path / "mixed").exists()


class TestTrain:
    def test_log_format(self, pipeline):
        lines = (pipeline / "train.csv").read_text().strip().splitlines()
        assert lines[0] == "step,l_pt,l_idr,l_cd,l_total,l_src"
        assert len(lines) == 16
        assert all(line.endswith(",") for line in lines[1:])  # no l_src without variant_st

    def test_variant_st_log_terms_sum_to_total(self, pipeline, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 4\nseed = 5\nlambda_cd = 0.5\npairing = variant_st\n")
        log = tmp_path / "train.csv"
        assert run("train", "--config", str(cfgfile), "--data-root", str(pipeline / "data"),
                   "--out", str(tmp_path / "c.osseg"), "--log", str(log)) == 0
        rows = log.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            _, l_pt, l_idr, l_cd, l_total, l_src = map(float, row.split(","))
            assert l_src > 0
            assert abs(l_pt + l_idr + 0.5 * l_cd + l_src - l_total) <= 1e-12

    def test_checkpoint_loads(self, pipeline):
        params = load_checkpoint(pipeline / "ckpt.osseg")
        assert params.config.num_classes == 5

    def test_deterministic_checkpoints(self, pipeline, tmp_path):
        data = pipeline / "data"
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 8\nseed = 11\n")
        outs = []
        for name in ("a", "b"):
            ckpt = tmp_path / f"{name}.osseg"
            assert run("train", "--config", str(cfgfile), "--data-root", str(data),
                       "--out", str(ckpt), "--log", str(tmp_path / f"{name}.csv")) == 0
            outs.append(ckpt.read_bytes())
        assert outs[0] == outs[1]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_missing_inputs_is_usage_error(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 1\n")
        (tmp_path / "empty").mkdir()
        assert run("train", "--config", str(cfgfile), "--data-root",
                   str(tmp_path / "empty"), "--out", str(tmp_path / "c.osseg"),
                   "--log", str(tmp_path / "l.csv")) == 2

    @pytest.mark.parametrize("line", [
        "batch = -1", "batch = 0", "batch = 65", "batch = 99999999999999999999",
        "crop = 0", "crop = -8", "crop = 12", "iterations = -1",
        "lr = -1", "lr = 0", "lr = nan", "lambda_cd = nan", "lambda_cd = inf",
    ])
    def test_impossible_config_is_usage_error(self, pipeline, tmp_path, capsys, line):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(line + "\n")
        ckpt = tmp_path / "c.osseg"
        assert run("train", "--config", str(cfgfile), "--data-root", str(pipeline / "data"),
                   "--out", str(ckpt), "--log", str(tmp_path / "l.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("content,message", [
        (b"iterations = 1\nseed = \xff\n", "cfg.txt:2: not UTF-8"),
        (b"iterations = 1\ncrop = 16\niterations = 2\n", "cfg.txt:3: iterations is set twice"),
    ])
    def test_malformed_config_file_is_usage_error(self, tmp_path, capsys, content, message):
        # The config is read before the data root, which does not exist here.
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_bytes(content)
        assert run("train", "--config", str(cfgfile), "--data-root", str(tmp_path / "none"),
                   "--out", str(tmp_path / "c.osseg"), "--log", str(tmp_path / "l.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("line", ["lr = 1e6", "lambda_cd = 1e300"])
    def test_diverging_run_is_data_error_naming_the_step(self, pipeline, tmp_path, capsys,
                                                         line):
        # Each overflows within a few steps. The run must stop with one
        # error line naming the step; a numpy RuntimeWarning on the way
        # would fail this test, as the suite turns warnings into errors.
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"iterations = 40\npairing = ours_pt_to_intermediate\n{line}\n")
        ckpt = tmp_path / "c.osseg"
        assert run("train", "--config", str(cfgfile), "--data-root", str(pipeline / "data"),
                   "--out", str(ckpt), "--log", str(tmp_path / "l.csv")) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: step \d+: [^\n]+\n", err), err
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", ["train", "mix"])
    @pytest.mark.parametrize("defect,name", [("source", "source"), ("pt", "pseudo-target")])
    def test_mixed_image_sizes_are_usage_error(self, pipeline, tmp_path, capsys, command,
                                               defect, name):
        # Without the size check, seed 3 crops the 16x16 sample with a 32x32
        # window: a `ValueError: high <= 0` traceback.
        data = _mixed_size_data(tmp_path / "data", defect)
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 2\ncrop = 32\nseed = 3\n")
        out = tmp_path / "out"
        if command == "train":
            code = run("train", "--config", str(cfgfile), "--data-root", str(data),
                       "--out", str(out), "--log", str(tmp_path / "l.csv"))
        else:
            code = run("mix", "--ckpt", str(pipeline / "ckpt.osseg"), "--config", str(cfgfile),
                       "--data-root", str(data), "--out-dir", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {name} sample 2 is not 64x64 like source sample 0\n"
        assert not out.exists()

    def test_out_and_log_parents_are_created(self, pipeline, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 1\n")
        ckpt = tmp_path / "run" / "a" / "ckpt.osseg"
        log = tmp_path / "logs" / "b" / "train.csv"
        assert run("train", "--config", str(cfgfile), "--data-root", str(pipeline / "data"),
                   "--out", str(ckpt), "--log", str(log)) == 0
        assert load_checkpoint(ckpt).config == ModelConfig()
        assert len(log.read_text().splitlines()) == 2

    @pytest.mark.parametrize("blocked", ["out", "log"])
    def test_file_in_the_way_fails_before_training(self, pipeline, tmp_path, capsys,
                                                   monkeypatch, blocked):
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 1\n")
        (tmp_path / "file").write_text("")
        ckpt, log = tmp_path / "ckpt.osseg", tmp_path / "train.csv"
        if blocked == "out":
            ckpt = tmp_path / "file" / "sub" / "ckpt.osseg"
        else:
            log = tmp_path / "file" / "train.csv"
        assert run("train", "--config", str(cfgfile), "--data-root", str(pipeline / "data"),
                   "--out", str(ckpt), "--log", str(log)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize("blocked", ["out", "log"])
    def test_directory_in_the_way_fails_before_training(self, pipeline, tmp_path, capsys,
                                                        monkeypatch, blocked):
        def no_training(*args, **kwargs):
            raise AssertionError("trainer.train ran")

        monkeypatch.setattr(trainer, "train", no_training)
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 1\n")
        (tmp_path / "dir").mkdir()
        paths = {"out": tmp_path / "ckpt.osseg", "log": tmp_path / "train.csv"}
        paths[blocked] = tmp_path / "dir"
        assert run("train", "--config", str(cfgfile), "--data-root", str(pipeline / "data"),
                   "--out", str(paths["out"]), "--log", str(paths["log"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err and str(tmp_path / "dir") in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "dir"]
        assert os.listdir(tmp_path / "dir") == []

    def test_all_ignore_labels_is_data_error(self, tmp_path, capsys):
        # Every crop of an all-ignore label map has no class to sample:
        # a fault in the data (exit 1), not in the command line (exit 2).
        data = tmp_path / "data"
        samples = synthdata.generate_dataset(SceneSpec(seed=4), 2)
        for sample in samples:
            sample.label[:] = synthdata.IGNORE
        synthdata.write_dataset(data / "source", "source", samples)
        synthdata.write_image(data / "reference.ppm", samples[0].image)
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 1\ncrop = 16\n")
        assert run("train", "--config", str(cfgfile), "--data-root", str(data),
                   "--out", str(tmp_path / "c.osseg"), "--log", str(tmp_path / "l.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestEval:
    def test_report_format(self, pipeline, tmp_path):
        report = tmp_path / "report.csv"
        assert run("eval", "--ckpt", str(pipeline / "ckpt.osseg"), "--data-root",
                   str(pipeline / "data" / "targets"), "--subset", "0,2",
                   "--out", str(report)) == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 7
        assert lines[5].startswith("miou,")
        assert lines[6].startswith("miou_subset,")

    def test_chunks_label_like_per_image_predict(self, pipeline):
        # 41 images of 64x64: chunks of 16, 16 and 9, then all at once.
        params = load_checkpoint(pipeline / "ckpt.osseg")
        rng = np.random.default_rng(40)
        samples = [DomainSample(rng.random((64, 64, 3)), np.zeros((64, 64), np.uint8),
                                DomainTag.TARGET) for _ in range(41)]
        chunks = list(cli._chunks(samples))
        assert [len(c) for c in chunks] == [16, 16, 9]
        want = [segmodel.predict(params, s.image) for s in samples]
        chunked = [m for c in chunks for m in segmodel.label_maps(params, [s.image for s in c])]
        at_once = segmodel.label_maps(params, [s.image for s in samples])
        for got_chunked, got_at_once, pred in zip(chunked, at_once, want):
            assert np.array_equal(got_chunked, pred) and np.array_equal(got_at_once, pred)

    def test_chunks_split_at_size_changes_and_the_pixel_limit(self):
        assert cli.EVAL_CHUNK_PIXELS == 16 * 64 * 64
        sizes = [64] * 5 + [32] * 70 + [64] + [256] * 2 + [512]
        samples = [DomainSample(np.zeros((s, s, 3)), np.zeros((s, s), np.uint8),
                                DomainTag.TARGET) for s in sizes]
        chunks = list(cli._chunks(samples))
        assert [(c[0].label.shape[0], len(c)) for c in chunks] == [
            (64, 5), (32, 64), (32, 6), (64, 1), (256, 1), (256, 1), (512, 1)]
        assert list(cli._chunks([])) == []

    def test_a_run_of_more_than_16_images_at_64_splits_at_16(self):
        samples = [DomainSample(np.zeros((64, 64, 3)), np.zeros((64, 64), np.uint8),
                                DomainTag.TARGET) for _ in range(50)]
        assert [len(c) for c in cli._chunks(samples)] == [16, 16, 16, 2]

    def test_mixed_sizes_match_per_image_predict(self, pipeline, tmp_path):
        data = tmp_path / "targets"
        samples = [s for size in (64, 32, 64) for s in synthdata.generate_dataset(
            SceneSpec(palette=synthdata.TARGET_PALETTE, seed=size, image_size=(size, size)), 3)]
        synthdata.write_dataset(data, "target", samples)
        report = tmp_path / "report.csv"
        assert run("eval", "--ckpt", str(pipeline / "ckpt.osseg"), "--data-root", str(data),
                   "--out", str(report)) == 0
        params = load_checkpoint(pipeline / "ckpt.osseg")
        cm = evalmetrics.ConfusionMatrix(5)
        for sample in synthdata.read_dataset(data, num_classes=5):
            evalmetrics.accumulate(cm, segmodel.predict(params, sample.image), sample.label)
        want = evalmetrics.iou_report(cm)
        rows = [line.split(",") for line in report.read_text().splitlines()]
        assert rows[:5] == [[str(c), "" if v is None else repr(v)]
                            for c, v in enumerate(want.per_class)]
        assert rows[5] == ["miou", repr(want.miou)]

    def test_empty_manifest_is_usage_error(self, pipeline, tmp_path, capsys):
        (tmp_path / "manifest.txt").write_text("")
        assert run("eval", "--ckpt", str(pipeline / "ckpt.osseg"), "--data-root",
                   str(tmp_path), "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path}: manifest.txt lists no samples\n"
        assert not (tmp_path / "r.csv").exists()

    def test_all_ignore_labels_is_usage_error(self, pipeline, tmp_path, capsys, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass ran")

        monkeypatch.setattr(cli, "label_maps", no_forward)
        samples = synthdata.generate_dataset(SceneSpec(seed=5), 3)
        for sample in samples:
            sample.label[:] = synthdata.IGNORE
        synthdata.write_dataset(tmp_path, "target", samples)
        assert run("eval", "--ckpt", str(pipeline / "ckpt.osseg"), "--data-root",
                   str(tmp_path), "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path}: every label pixel is 255 (ignore)\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("subset", ["9", "0,5", "-1"])
    def test_out_of_range_subset_fails_before_any_forward_pass(self, pipeline, tmp_path,
                                                                capsys, monkeypatch, subset):
        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass ran")

        monkeypatch.setattr(cli, "label_maps", no_forward)
        assert run("eval", "--ckpt", str(pipeline / "ckpt.osseg"), "--data-root",
                   str(pipeline / "data" / "targets"), "--subset", subset,
                   "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert err == f"error: --subset {subset} out of range for 5 classes\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("subset", ["a", "0,,1", "1.5"])
    def test_non_integer_subset_is_usage_error(self, tmp_path, capsys, subset):
        # The list is parsed before the checkpoint loads: a missing
        # checkpoint would exit 1.
        assert run("eval", "--ckpt", str(tmp_path / "missing.osseg"), "--data-root",
                   str(tmp_path), "--subset", subset, "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --subset") and err.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("defect", ["no_tab", "size_mismatch"])
    def test_malformed_dataset_is_data_error(self, pipeline, tmp_path, capsys, defect):
        data = tmp_path / "targets"
        synthdata.write_dataset(data, "target", synthdata.generate_dataset(SceneSpec(seed=8), 2))
        manifest = data / "manifest.txt"
        if defect == "no_tab":
            manifest.write_text(manifest.read_text().replace("\t", " ", 1))
        else:
            synthdata.write_label(data / "target" / "lbl_1.pgm", np.zeros((8, 8), np.uint8))
        assert run("eval", "--ckpt", str(pipeline / "ckpt.osseg"), "--data-root", str(data),
                   "--out", str(tmp_path / "r.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("manifest.txt:1:" if defect == "no_tab" else "manifest.txt:2:") in err
        assert not (tmp_path / "r.csv").exists()


class TestInfer:
    def test_non_finite_logits_are_numeric_error(self, pipeline, tmp_path, capsys):
        # Finite parameters whose logits overflow to inf and nan.
        params = init_params(ModelConfig(), seed=0)
        params["dec.1.ln3.b"].data[:] = 1e300
        params["pixdec.1.b"].data[:] = 1e300
        ckpt = tmp_path / "huge.osseg"
        save_checkpoint(ckpt, params)
        img = pipeline / "data" / "targets" / "target" / "img_0.ppm"
        assert run("infer", "--ckpt", str(ckpt), "--image", str(img),
                   "--out", str(tmp_path / "p.pgm")) == 1
        assert run("eval", "--ckpt", str(ckpt), "--data-root", str(pipeline / "data" / "targets"),
                   "--out", str(tmp_path / "r.csv")) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: non-finite logits: the parameters overflow on this image"] * 2
        assert not (tmp_path / "p.pgm").exists() and not (tmp_path / "r.csv").exists()


    def test_output_matches_input_dimensions_and_is_deterministic(self, pipeline, tmp_path):
        img = pipeline / "data" / "targets" / "target" / "img_0.ppm"
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run("infer", "--ckpt", str(pipeline / "ckpt.osseg"), "--image", str(img),
                   "--out", str(a), "--color-out", str(tmp_path / "a.ppm")) == 0
        assert run("infer", "--ckpt", str(pipeline / "ckpt.osseg"), "--image", str(img),
                   "--out", str(b)) == 0
        pred = read_label(a)
        assert pred.shape == read_image(img).shape[:2]
        assert a.read_bytes() == b.read_bytes()
        color = read_image(tmp_path / "a.ppm")
        assert color.shape[:2] == pred.shape

    def test_color_out_beyond_the_palette(self, tmp_path):
        # An 8-class network; ids 5-7 have no scene colour.
        ckpt = tmp_path / "c8.osseg"
        save_checkpoint(ckpt, init_params(ModelConfig(num_classes=8), seed=2))
        img = tmp_path / "img.ppm"
        synthdata.write_image(img, np.random.default_rng(8).random((64, 64, 3)))
        assert run("infer", "--ckpt", str(ckpt), "--image", str(img),
                   "--out", str(tmp_path / "p.pgm"), "--color-out", str(tmp_path / "p.ppm")) == 0
        pred = read_label(tmp_path / "p.pgm", num_classes=8)
        color = np.rint(read_image(tmp_path / "p.ppm") * 255).astype(int)
        ids = np.unique(pred)
        assert ids.max() >= 5
        colors = {tuple(color[pred == k][0]) for k in ids}
        assert len(colors) == len(ids)
        for k in ids:
            assert (color[pred == k] == color[pred == k][0]).all()

    def test_every_class_id_has_its_own_color(self):
        colors = np.rint(cli._label_colors(254) * 255)
        assert len({tuple(c) for c in colors}) == 254
        assert np.array_equal(cli._label_colors(5), np.asarray(synthdata.SOURCE_PALETTE))

    def test_bad_checkpoint_exit_1(self, tmp_path, capsys):
        junk = tmp_path / "junk.osseg"
        junk.write_bytes(b"GARBAGE0000000")
        img = tmp_path / "img.ppm"
        synthdata.write_image(img, np.zeros((8, 8, 3)))
        assert run("infer", "--ckpt", str(junk), "--image", str(img),
                   "--out", str(tmp_path / "p.pgm")) == 1
        assert "bad checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["missing", "wrong_shape", "nan", "trailing",
                                        "zero_heads"])
    def test_defective_checkpoint_exit_1(self, tmp_path, capsys, defect):
        params = init_params(ModelConfig(), seed=0)
        if defect == "missing":
            del params.tensors["dec.0.ca.wk"]
        elif defect == "wrong_shape":
            params.tensors["query_embed"] = Tensor(np.zeros((3, 32)))
        elif defect == "nan":
            params.tensors["backbone.1.w"].data[0, 0, 0, 0] = np.nan
        ckpt = tmp_path / "model.osseg"
        save_checkpoint(ckpt, params)
        if defect == "trailing":
            ckpt.write_bytes(ckpt.read_bytes() + b"tail")
        elif defect == "zero_heads":
            ckpt.write_bytes(ckpt.read_bytes().replace(b"heads=1", b"heads=0"))
        img = tmp_path / "img.ppm"
        synthdata.write_image(img, np.zeros((8, 8, 3)))
        assert run("infer", "--ckpt", str(ckpt), "--image", str(img),
                   "--out", str(tmp_path / "p.pgm")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "p.pgm").exists()

    def test_overfit_model_predicts_training_image(self, tmp_path):
        sample = synthdata.generate_dataset(SceneSpec(seed=6), 1)[0]
        pt = DomainSample(image=sample.image.copy(), label=sample.label.copy(),
                          domain_tag=DomainTag.PSEUDO_TARGET)
        cfg = TrainConfig(iterations=500, batch=2, crop=32, seed=5, lr=1e-3,
                          pairing=AttentionPairing.NONE, use_idr=False)
        teacher, _ = train(cfg, TrainData(source=[sample], pseudo_target=[pt]))
        ckpt = tmp_path / "overfit.osseg"
        save_checkpoint(ckpt, teacher)
        img = tmp_path / "img.ppm"
        synthdata.write_image(img, sample.image)
        out = tmp_path / "pred.pgm"
        assert run("infer", "--ckpt", str(ckpt), "--image", str(img), "--out", str(out)) == 0
        pred = read_label(out)
        acc = (pred == sample.label).mean()
        assert acc > 0.9


class TestGradcheckCommand:
    def test_corrupted_backward_rule_fails(self, monkeypatch, capsys):
        real_relu = ag.relu

        def broken_relu(a):
            out = real_relu(a)
            if out._backward_fn is not None:
                orig = out._backward_fn
                out._backward_fn = lambda g: orig(g * 1.5)
            return out

        monkeypatch.setattr(ag, "relu", broken_relu)
        assert run("gradcheck") == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out
        assert re.fullmatch(r"error: failed groups: [^\n]+\n", out.err), out.err

    def test_corrupted_cross_pass_fails_both_step_groups(self, monkeypatch, capsys):
        # Only the cross-domain pass's logit gradients are wrong, for every
        # sample of the batch: the op groups pass, and each step group must
        # catch it through `step_loss`.
        real_cross = segmodel.forward_cross

        def scaled(orig):
            return lambda g: orig(g * 1.5)

        def broken_cross(params, imgs, cross):
            out = real_cross(params, imgs, cross)
            for logits in out[len(imgs):]:
                logits._backward_fn = scaled(logits._backward_fn)
            return out

        monkeypatch.setattr(segmodel, "forward_cross", broken_cross)
        monkeypatch.setattr(trainer, "forward_cross", broken_cross)
        assert run("gradcheck") == 1
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert lines["step.ours"].endswith("FAIL")
        assert lines["step.variant_st"].endswith("FAIL")
        assert lines["ops.conv2d"].endswith("PASS")

    def test_missing_subcommand_is_usage_error(self):
        assert run() == 2


class TestRunManifests:
    def test_train_eval_infer_into_one_directory_keep_three_manifests(self, pipeline,
                                                                       tmp_path):
        # README's layout: all three commands write into run/.
        data, out = pipeline / "data", tmp_path / "run"
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("iterations = 1\n")
        ckpt = str(out / "ckpt.osseg")
        assert run("train", "--config", str(cfgfile), "--data-root", str(data),
                   "--out", ckpt, "--log", str(out / "train.csv")) == 0
        assert run("eval", "--ckpt", ckpt, "--data-root", str(data / "targets"),
                   "--out", str(out / "report.csv")) == 0
        assert run("infer", "--ckpt", ckpt, "--image", str(data / "reference.ppm"),
                   "--out", str(out / "pred.pgm")) == 0
        manifests = {"ckpt.osseg.manifest.txt": "train",
                     "report.csv.manifest.txt": "eval",
                     "pred.pgm.manifest.txt": "infer"}
        assert sorted(p.name for p in out.glob("*manifest*")) == sorted(manifests)
        for name, command in manifests.items():
            assert (out / name).read_text().startswith(f"command = {command}\n")

    def test_train_manifest_names_the_inputs_of_its_checkpoint(self, pipeline):
        got = manifest_fields(pipeline / "ckpt.osseg.manifest.txt")
        cfg = trainer.parse_config_file(pipeline / "cfg.txt")
        train_keys = [f.name for f in fields(TrainConfig)]
        assert len(train_keys) == 11
        for key in train_keys:
            value = getattr(cfg, key)
            assert got[key] == str(value.value if key == "pairing" else value), key
        assert (got["iterations"], got["seed"], got["pairing"]) == (
            "15", "3", "ours_pt_to_intermediate")
        for f in fields(ModelConfig):
            assert got[f.name] == str(getattr(ModelConfig(), f.name)), f.name
        for key, path in (("out", "ckpt.osseg"), ("log", "train.csv"), ("config", "cfg.txt")):
            assert got[key] == str(pipeline / path)
            assert got[f"sha256.{key}"] == sha256(pipeline / path)
        assert "sha256.data_root" not in got  # a directory

    def test_mix_manifest_names_its_config_seed(self, pipeline, tmp_path):
        out = tmp_path / "mixed"
        assert run("mix", "--ckpt", str(pipeline / "ckpt.osseg"), "--config",
                   str(pipeline / "cfg.txt"), "--data-root", str(pipeline / "data"),
                   "--out-dir", str(out)) == 0
        got = manifest_fields(out / "run_manifest.txt")
        assert got["command"] == "mix" and got["seed"] == "3"
        assert got["sha256.ckpt"] == sha256(pipeline / "ckpt.osseg")

    def test_infer_without_color_out_skips_it(self, pipeline, tmp_path):
        pred = tmp_path / "pred.pgm"
        assert run("infer", "--ckpt", str(pipeline / "ckpt.osseg"), "--image",
                   str(pipeline / "data" / "reference.ppm"), "--out", str(pred)) == 0
        got = manifest_fields(f"{pred}.manifest.txt")
        assert got["color_out"] == "None" and "sha256.color_out" not in got
        assert got["sha256.out"] == sha256(pred)
        assert sorted(os.listdir(tmp_path)) == ["pred.pgm", "pred.pgm.manifest.txt"]


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


class TestAtomicOutputs:
    """A write that fails partway leaves the previous output and no temporary file."""

    @staticmethod
    def _argv(pipeline, tmp_path, command, second):
        """`command`'s arguments, writing into tmp_path/out; the second run writes
        other bytes than the first."""
        data, ckpt, out = pipeline / "data", str(pipeline / "ckpt.osseg"), tmp_path / "out"
        if command == "train":
            cfg = tmp_path / f"cfg{int(second)}.txt"
            cfg.write_text(f"iterations = {1 + second}\n")
            return ["train", "--config", str(cfg), "--data-root", str(data),
                    "--out", str(out / "ckpt.osseg"), "--log", str(out / "train.csv")]
        if command == "eval":
            return ["eval", "--ckpt", ckpt, "--data-root", str(data / "targets"),
                    "--subset", "0,2" if second else "", "--out", str(out / "report.csv")]
        image = data / "targets" / "target" / f"img_{int(second)}.ppm"
        return ["infer", "--ckpt", ckpt, "--image", str(image),
                "--out", str(out / "pred.pgm"), "--color-out", str(out / "pred.ppm")]

    @pytest.mark.parametrize("command, target", [
        ("train", "train.csv"), ("eval", "report.csv"), ("infer", "pred.pgm"),
        ("infer", "pred.ppm")])
    def test_failed_write_keeps_previous_output(self, pipeline, tmp_path, monkeypatch,
                                                command, target):
        out = tmp_path / "out"
        assert run(*self._argv(pipeline, tmp_path, command, False)) == 0
        before, names = (out / target).read_bytes(), sorted(os.listdir(out))
        prefix = f"{out / target}."

        def half_open(path, *args, **kwargs):
            f = open(path, *args, **kwargs)
            return HalfWrite(f) if os.fspath(path).startswith(prefix) else f

        # Every output goes through segmodel.write_atomic; only `target` fails.
        monkeypatch.setattr(segmodel, "open", half_open, raising=False)
        assert run(*self._argv(pipeline, tmp_path, command, True)) == 1
        monkeypatch.undo()
        assert (out / target).read_bytes() == before
        assert sorted(os.listdir(out)) == names


def snapshot(root):
    """Every file under `root`, run manifests included: relative path -> bytes."""
    return {p.relative_to(root): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


class TestPathCollisions:
    # Each names one existing file or directory twice, once as an output,
    # or an output directory inside an input one. Without the check the
    # command overwrote the checkpoint, the input image, the label map or
    # the source set's manifest.txt.
    CASES = {
        "train_out_is_log": ["train", "--config", "{tmp}/cfg.txt", "--data-root", "{data}",
                             "--out", "{tmp}/ckpt.osseg", "--log", "{tmp}/ckpt.osseg"],
        "eval_out_is_ckpt": ["eval", "--ckpt", "{tmp}/ckpt.osseg", "--data-root",
                             "{data}/targets", "--out", "{tmp}/./ckpt.osseg"],
        "infer_out_is_image": ["infer", "--ckpt", "{tmp}/ckpt.osseg", "--image",
                               "{tmp}/img.ppm", "--out", "{tmp}/img.ppm"],
        "infer_color_out_is_out": ["infer", "--ckpt", "{tmp}/ckpt.osseg", "--image",
                                   "{tmp}/img.ppm", "--out", "{tmp}/pred.pgm",
                                   "--color-out", "{tmp}/pred.pgm"],
        "stylize_out_dir_is_src_dir": ["stylize", "--src-dir", "{tmp}/source", "--reference",
                                       "{tmp}/img.ppm", "--out-dir", "{tmp}/source"],
        "mix_out_dir_inside_data_root": ["mix", "--ckpt", "{tmp}/ckpt.osseg", "--config",
                                         "{tmp}/cfg.txt", "--data-root", "{tmp}",
                                         "--out-dir", "{tmp}/source"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_path_twice_is_usage_error_before_any_work(self, pipeline, tmp_path, capsys,
                                                           monkeypatch, case):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran")

        for module, name in ((cli, "read_dataset"), (cli, "read_image"),
                             (cli, "load_checkpoint"), (trainer, "parse_config_file")):
            monkeypatch.setattr(module, name, no_work)
        data = pipeline / "data"
        shutil.copy(pipeline / "ckpt.osseg", tmp_path / "ckpt.osseg")
        shutil.copy(pipeline / "cfg.txt", tmp_path / "cfg.txt")
        shutil.copy(data / "reference.ppm", tmp_path / "img.ppm")
        shutil.copy(data / "source" / "source" / "lbl_0.pgm", tmp_path / "pred.pgm")
        shutil.copytree(data / "source", tmp_path / "source")
        before = snapshot(tmp_path)
        argv = [a.format(tmp=tmp_path, data=data) for a in self.CASES[case]]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: --[a-z-]+ (and --[a-z-]+ name the same path|[^\n]+ lies "
                            r"inside --[a-z-]+) [^\n]+\n", err)
        assert snapshot(tmp_path) == before


class TestReadFilesAreNotReplaced:
    """An output may lie inside a directory a command reads, but replacing a
    file that the command read is a usage error, raised before any output is
    written."""

    CASES = {
        "eval_out_is_test_manifest": ["eval", "--ckpt", "{tmp}/ckpt.osseg", "--data-root",
                                      "{tmp}/tgt", "--out", "{tmp}/tgt/manifest.txt"],
        "eval_out_is_listed_label": ["eval", "--ckpt", "{tmp}/ckpt.osseg", "--data-root",
                                     "{tmp}/tgt", "--out", "{tmp}/tgt/target/lbl_1.pgm"],
        "train_log_is_source_manifest": ["train", "--config", "{tmp}/cfg.txt", "--data-root",
                                         "{tmp}/data", "--out", "{tmp}/data/ckpt.osseg",
                                         "--log", "{tmp}/data/source/manifest.txt"],
        "stylize_out_is_reference": ["stylize", "--src-dir", "{tmp}/data/source", "--reference",
                                     "{tmp}/styled/pt/img_0.ppm", "--out-dir", "{tmp}/styled"],
        # The last of the four images: written after three others without the up-front claim.
        "stylize_later_out_is_reference": ["stylize", "--src-dir", "{tmp}/data/source",
                                           "--reference", "{tmp}/styled/pt/img_3.ppm",
                                           "--out-dir", "{tmp}/styled"],
        # A sidecar, written after the mixed dataset without the up-front claim.
        "mix_sidecar_is_config": ["mix", "--ckpt", "{tmp}/ckpt.osseg", "--config",
                                  "{tmp}/mixed/mix/mix_1.txt", "--data-root", "{tmp}/data",
                                  "--out-dir", "{tmp}/mixed"],
    }

    @staticmethod
    def _inputs(pipeline, tmp_path):
        shutil.copy(pipeline / "ckpt.osseg", tmp_path / "ckpt.osseg")
        (tmp_path / "styled" / "pt").mkdir(parents=True)
        for n in (0, 3):
            shutil.copy(pipeline / "data" / "reference.ppm",
                        tmp_path / "styled" / "pt" / f"img_{n}.ppm")
        (tmp_path / "mixed" / "mix").mkdir(parents=True)
        shutil.copy(pipeline / "cfg.txt", tmp_path / "mixed" / "mix" / "mix_1.txt")
        (tmp_path / "cfg.txt").write_text("iterations = 1\ncrop = 32\n")
        shutil.copytree(pipeline / "data" / "targets", tmp_path / "tgt")
        shutil.copytree(pipeline / "data" / "source", tmp_path / "data" / "source")
        shutil.copy(pipeline / "data" / "reference.ppm", tmp_path / "data" / "reference.ppm")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_replacing_a_read_file_is_a_usage_error(self, pipeline, tmp_path, capsys, case):
        self._inputs(pipeline, tmp_path)
        before = snapshot(tmp_path)
        assert run(*[a.format(tmp=tmp_path) for a in self.CASES[case]]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: refusing to replace [^\n]+: this command read it\n", err)
        assert snapshot(tmp_path) == before

    def test_outputs_beside_the_read_files_are_written(self, pipeline, tmp_path):
        self._inputs(pipeline, tmp_path)
        before = snapshot(tmp_path)
        assert run("train", "--config", str(tmp_path / "cfg.txt"), "--data-root",
                   str(tmp_path / "data"), "--out", str(tmp_path / "data" / "ckpt.osseg"),
                   "--log", str(tmp_path / "data" / "source" / "train.csv")) == 0
        assert run("eval", "--ckpt", str(tmp_path / "ckpt.osseg"), "--data-root",
                   str(tmp_path / "tgt"), "--out", str(tmp_path / "tgt" / "report.csv")) == 0
        after = snapshot(tmp_path)
        assert {k: after[k] for k in before} == before
        assert {"data/ckpt.osseg", "data/source/train.csv", "tgt/report.csv"} <= {
            str(k) for k in after}

    def test_library_calls_record_nothing(self, pipeline, tmp_path):
        # Outside a command, reading a dataset and writing it back in place works.
        shutil.copytree(pipeline / "data" / "targets", tmp_path / "tgt")
        before = snapshot(tmp_path / "tgt")
        samples = synthdata.read_dataset(tmp_path / "tgt")
        assert segmodel._READS.get() is None
        synthdata.write_dataset(tmp_path / "tgt", "target", samples)
        assert snapshot(tmp_path / "tgt") == before


README = Path(__file__).resolve().parents[1] / "README.md"


def _sh_lines(text):
    """The lines of every ```sh block in `text`, continuations joined."""
    return [line.strip() for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
            for line in block.replace("\\\n", " ").splitlines()]


class TestReadme:
    def test_every_osseg_command_parses(self):
        # Catches flags the README names that the parser no longer has.
        commands = [shlex.split(line, comments=True) for line in _sh_lines(README.read_text())
                    if line.startswith("osseg ")]
        assert len(commands) >= 9
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")

    def test_walkthrough_runs_in_order(self, tmp_path, monkeypatch):
        # The sh blocks of README's "CLI walkthrough" section, in order, in a
        # temp dir; `cp` and the cfg.txt heredoc are done in Python. Two
        # departures keep this to a few seconds: cfg.txt sets `iterations = 2`
        # in place of README's value, and `osseg gradcheck` runs on a stub of
        # `gradcheck.run_gradcheck` that passes one group (the real check
        # takes about 27 s; criterion 1 and TestGradcheckCommand run it).
        section = README.read_text().split("## CLI walkthrough\n", 1)[1].split("\n## ", 1)[0]
        lines = iter(_sh_lines(section))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(gradcheck, "run_gradcheck", lambda seed: {"stub": 0.0})
        ran, outs = [], []
        for line in lines:
            argv = shlex.split(line, comments=True)
            if not argv:
                continue
            if argv[0] == "cp":
                shutil.copy(*argv[1:])
            elif argv[:2] == ["cat", ">"] and argv[3:] == ["<<EOF"]:
                body = "".join(f"{ln}\n" for ln in itertools.takewhile("EOF".__ne__, lines))
                body, n = re.subn(r"(?m)^iterations = \d+$", "iterations = 2", body)
                assert n == 1
                Path(argv[2]).write_text(body)
            else:
                assert argv[0] == "osseg", line
                assert run(*argv[1:]) == 0, line
                ran.append(argv[1])
                if argv[1] in ("train", "eval", "infer"):
                    outs.append(argv[argv.index("--out") + 1])
        assert ran == ["gen-data"] * 3 + ["stylize", "train", "eval", "infer", "gradcheck", "mix"]
        assert len(outs) == 3
        for out in outs:
            assert Path(f"{out}.manifest.txt").is_file(), out
