"""Tests of the benchmark itself: tracing, restoration, metric names, checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import run as bench_run
import tracer as tr
from osseg import cli, segmodel, trainer

from conftest import BENCH, ROOT

TINY = harness.Sizes(n_source=4, n_test=2, image=32, setups=2, warmup_steps=1)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture
def short_calls(monkeypatch):
    for name, wl in list(harness.WORKLOADS.items()):
        monkeypatch.setitem(harness.WORKLOADS, name, dataclasses.replace(wl, steps_per_call=3))


def _osseg_bindings():
    """Every attribute of every osseg module and of trainer.AdamW."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "osseg" or name.startswith("osseg."):
            for key, value in vars(module).items():
                out[(name, key)] = value
    for key, value in vars(trainer.AdamW).items():
        out[("AdamW", key)] = value
    return out


def test_self_times_under_train_step_sum_to_its_duration(tmp_path):
    data = harness.setup(3, TINY, str(tmp_path))
    cfg = trainer.TrainConfig(iterations=2, seed=3, **harness.FULL)
    tracer = tr.Tracer()
    with tr.patched(tracer, harness.traced_functions(harness.load_layer_map())):
        trainer.train(cfg, trainer.TrainData(source=data.source, pseudo_target=data.pseudo))

    spans = tracer.spans
    own = tr.self_times_ns(spans)
    children = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent != tr.NO_PARENT:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start <= end <= p_end
            children.setdefault(parent, []).append(i)

    def subtree_self(i):
        return own[i] + sum(subtree_self(c) for c in children.get(i, []))

    steps = [i for i, s in enumerate(spans) if s[0] == "trainer.train_step"]
    assert len(steps) == 2
    for i in steps:
        _, start, end, _, root = spans[i]
        assert subtree_self(i) == end - start
        assert all(own[c] >= 0 for c in children[i])
        assert root == i


def test_wrappers_are_installed_on_imported_names_and_removed_after(tmp_path, short_calls):
    before = _osseg_bindings()
    functions = harness.traced_functions(harness.load_layer_map())
    with tr.patched(tr.Tracer(), functions):
        # trainer and cli bound these with `from ... import`.
        assert trainer.forward is segmodel.forward
        assert trainer.forward is not before[("osseg.segmodel", "forward")]
        assert cli.predict is segmodel.predict
        assert trainer.AdamW.step is not before[("AdamW", "step")]
    assert _osseg_bindings() == before

    result = harness.run("train_full", 5, 0, True, str(tmp_path), TINY)
    assert result.correct
    after = _osseg_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_every_emitted_metric_is_declared(tmp_path, short_calls, workload):
    spec = _benchmark_json()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = harness.run(workload, 2, 0, trace, str(tmp_path / str(trace)), TINY)
        assert result.correct, result.details["problems"]
        declared = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {name: unit for name, (_, unit) in result.metrics.items()}
        assert emitted == declared
        assert all(np.isfinite(v) for v, _ in result.metrics.values())


def test_layer_map_describes_exactly_the_per_layer_metrics():
    names = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert list(harness.load_layer_map()) == names


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(harness.WORKLOADS)


def test_counts_per_step_match_the_model_structure(tmp_path, short_calls):
    full = harness.run("train_full", 1, 0, True, str(tmp_path / "f"), TINY).metrics
    sup = harness.run("train_supervised", 1, 0, True, str(tmp_path / "s"), TINY).metrics
    assert full["segmodel.forward.calls"][0] == 8
    assert full["segmodel.forward_cross.calls"][0] == 2
    assert full["mixer.mix.calls"][0] == 2
    assert sup["segmodel.forward.calls"][0] == 2
    assert sup["segmodel.forward_cross.calls"][0] == 0
    assert sup["trainer.pseudo_label.calls"][0] == 0
    assert sup["autograd.conv2d.calls"][0] == 10


def test_setup_is_a_function_of_the_seed(tmp_path):
    a = harness.setup(7, TINY, str(tmp_path / "a"))
    b = harness.setup(7, TINY, str(tmp_path / "b"))
    c = harness.setup(8, TINY, str(tmp_path / "c"))
    assert all(np.array_equal(x.image, y.image) for x, y in zip(a.pseudo, b.pseudo))
    assert all(np.array_equal(x.label, y.label) for x, y in zip(a.test, b.test))
    assert not all(np.array_equal(x.image, y.image) for x, y in zip(a.source, c.source))


def test_a_failed_check_fails_the_run(monkeypatch, capsys, short_calls):
    original_predict = segmodel.predict
    monkeypatch.setattr(segmodel, "predict",
                        lambda params, img: original_predict(params, img) + harness.NUM_CLASSES)
    monkeypatch.setattr(harness, "run", functools.partial(harness.run, sizes=TINY))
    code = bench_run.main(["--workload", "infer_eval", "--seed", "4", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert 0 < last["failed"] <= last["attempted"]


def test_a_loss_that_does_not_sum_fails_its_step(monkeypatch, tmp_path, short_calls):
    original_step = trainer.train_step

    def off_by_1e_9(*args, **kwargs):
        report = original_step(*args, **kwargs)
        return dataclasses.replace(report, l_total=report.l_total + 1e-9)

    monkeypatch.setattr(trainer, "train_step", off_by_1e_9)
    result = harness.run("train_supervised", 4, 0, False, str(tmp_path), TINY)
    assert not result.correct
    assert result.failed == result.details["train_steps"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
