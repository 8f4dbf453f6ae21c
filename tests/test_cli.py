import os

import numpy as np
import pytest

from osseg import autograd as ag
from osseg import cli, synthdata
from osseg.autograd import Tensor
from osseg.segmodel import (
    AttentionPairing,
    ModelConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from osseg.synthdata import DomainSample, DomainTag, SceneSpec, read_image, read_label
from osseg.trainer import TrainConfig, TrainData, train


def run(*argv):
    return cli.main(list(argv))


def tree_bytes(root, skip=("run_manifest.txt",)):
    """Map of relative path -> file bytes, skipping the wall-time manifest."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


class TestGenData:
    def test_count_zero_is_usage_error(self, tmp_path):
        assert run("gen-data", "--domain", "source", "--count", "0",
                   "--out", str(tmp_path / "d")) == 2

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


class TestMix:
    def test_mix_outputs_and_sidecars(self, pipeline, tmp_path):
        data = pipeline / "data"
        pl = tmp_path / "pl"
        pl.mkdir()
        for j in range(4):
            lbl = read_label(data / "source" / "source" / f"lbl_{j}.pgm")
            synthdata.write_label(pl / f"lbl_{j}.pgm", lbl)
        out = tmp_path / "mixed"
        assert run("mix", "--pt-dir", str(data / "pt"), "--src-dir", str(data / "source"),
                   "--pseudo-dir", str(pl), "--seed", "5", "--out-dir", str(out),
                   "--count", "3") == 0
        lines = (out / "manifest.txt").read_text().strip().splitlines()
        assert len(lines) == 3
        side = (out / "mix" / "mix_0.txt").read_text()
        assert "donor_i" in side and "acceptor_j" in side and "classes" in side


class TestTrain:
    def test_log_format(self, pipeline):
        lines = (pipeline / "train.csv").read_text().strip().splitlines()
        assert lines[0] == "step,l_pt,l_idr,l_cd,l_total"
        assert len(lines) == 16

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
        "batch = -1", "batch = 0", "crop = 0", "crop = -8", "crop = 12", "iterations = -1",
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


class TestInfer:
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

    def test_bad_checkpoint_exit_1(self, tmp_path, capsys):
        junk = tmp_path / "junk.osseg"
        junk.write_bytes(b"GARBAGE0000000")
        img = tmp_path / "img.ppm"
        synthdata.write_image(img, np.zeros((8, 8, 3)))
        assert run("infer", "--ckpt", str(junk), "--image", str(img),
                   "--out", str(tmp_path / "p.pgm")) == 1
        assert "bad checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["missing", "wrong_shape", "nan", "trailing"])
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
        assert "FAIL" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        assert run() == 2
