"""The osseg benchmark's workloads: set-up, timed phases, checks and metrics.

Every workload runs the same pipeline through osseg's public API, in one
process and one thread, as a closed loop (each call starts when the
previous one has returned):

  set-up   generate the source and target sets, build the pseudo-target set
           from one reference image, write the target test set to disk
  train    `trainer.train` calls with a fixed step count
  serve    save the teacher with `segmodel.save_checkpoint`, then passes of
           `cli.main(["eval", ...])` over the test set followed by warm
           `segmodel.predict` on each test image

A run repeats cycles of one train call and a few serve passes until the
deadline, so every metric samples the whole run and not one stretch of it.
The workloads differ in the training configuration and in which phase
fills the cycle: train_full and train_supervised spend most of it
training, infer_eval most of it serving.

A traced run alternates untraced and traced cycles. A traced cycle traces
only the workload's main phase (training, or serving on infer_eval), so
that per-layer metrics are per train step or per served image; the
difference between traced and untraced main-phase latency is the tracing
overhead.
"""

import csv
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from osseg import cli, evalmetrics, segmodel, styletransfer, synthdata, trainer
from osseg.errors import OssegError
from osseg.synthdata import SOURCE_PALETTE, TARGET_PALETTE, DomainTag, LayoutMode, SceneSpec

import tracer as tr

HERE = os.path.dirname(os.path.abspath(__file__))
NUM_CLASSES = 5
LOSS_IDENTITY_TOL = 1e-12

# The benchmark's own checks call these originals, so that a traced pass
# charges the layers only for the work the workload itself does.
_accumulate = evalmetrics.accumulate
_iou_report = evalmetrics.iou_report

FULL = {"use_idr": True, "pairing": "ours_pt_to_intermediate"}
SUPERVISED = {"use_idr": False, "pairing": "none"}


@dataclass(frozen=True)
class Workload:
    train_config: dict
    steps_per_call: int
    passes_per_cycle: int
    main_phase: str  # "train" or "serve": what a traced cycle traces


# A cycle takes about 1.5 s on a 2-core x86 host: short enough that every
# metric is sampled all through the run, and that the last cycle
# overshoots the deadline by little.
WORKLOADS = {
    "train_full": Workload(FULL, 25, 1, "train"),
    "train_supervised": Workload(SUPERVISED, 100, 1, "train"),
    "infer_eval": Workload(SUPERVISED, 20, 3, "serve"),
}


@dataclass(frozen=True)
class Sizes:
    n_source: int = 200
    n_test: int = 50
    image: int = 64
    batch: int = 2
    crop: int = 32
    setups: int = 5
    warmup_steps: int = 5  # dropped from the start of the first train call


E2E_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "eval_images_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def load_layer_map():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as f:
        return json.load(f)["per_layer"]


def _split_metric(name):
    """'trainer.AdamW.step.calls' -> ('trainer.AdamW.step', 'calls')."""
    function, _, stat = name.rpartition(".")
    return function, stat


def traced_functions(layer_map):
    """Every osseg function ('module.name') that a per-layer metric names."""
    functions = []
    for name in layer_map:
        function, _ = _split_metric(name)
        if function and function not in functions:
            functions.append(function)
    return functions


STEP_TIMER = ["trainer.train_step"]


@dataclass
class SetupData:
    source: list
    pseudo: list
    test_dir: str
    test: list


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    details: dict
    tracers: dict  # phase -> Tracer; empty unless traced


def setup(seed, sizes, workdir):
    size = (sizes.image, sizes.image)
    source = synthdata.generate_dataset(
        SceneSpec(palette=SOURCE_PALETTE, layout_mode=LayoutMode.OPEN_FIELD,
                  seed=4 * seed, image_size=size), sizes.n_source)
    target = synthdata.generate_dataset(
        SceneSpec(palette=TARGET_PALETTE, layout_mode=LayoutMode.DENSE_CITY,
                  seed=4 * seed + 1, image_size=size), sizes.n_test)
    reference = synthdata.generate_dataset(
        SceneSpec(palette=TARGET_PALETTE, layout_mode=LayoutMode.DENSE_CITY,
                  seed=4 * seed + 2, image_size=size), 1)[0].image
    pseudo = styletransfer.build_pseudo_target(source, reference)
    test_dir = os.path.join(workdir, "targets")
    synthdata.write_dataset(test_dir, "target", target)
    # Predictions are checked on the images as eval reads them back: the
    # PPM files hold 8-bit values, not the generated floats.
    test = synthdata.read_dataset(test_dir, num_classes=NUM_CLASSES, domain_tag=DomainTag.TARGET)
    return SetupData(source, pseudo, test_dir, test)


def _loss_ok(rep, lambda_cd):
    terms = (rep.l_pt, rep.l_idr, rep.l_cd, rep.l_total)
    if not all(math.isfinite(v) for v in terms):
        return False
    return abs(rep.l_total - (rep.l_pt + rep.l_idr + lambda_cd * rep.l_cd)) <= LOSS_IDENTITY_TOL


class TrainPhase:
    """Repeated `trainer.train` calls on one configuration and seed.

    Every call after the first must reproduce the first call's losses and
    teacher exactly: the same seed gives the same bytes.
    """

    def __init__(self, data, cfg, tally):
        self.data, self.cfg, self.tally = data, cfg, tally
        self.step_ms = {False: [], True: []}  # by traced, warm-up steps dropped
        self.wall_s = 0.0
        self.steps = 0
        self.traced_steps = 0
        self.teacher = None
        self._reference = None

    def call(self, tracer, functions, warmup):
        traced = tracer is not None
        tracer = tracer or tr.Tracer()
        first_span = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            with tr.patched(tracer, functions):
                teacher, log = trainer.train(self.cfg, trainer.TrainData(
                    source=self.data.source, pseudo_target=self.data.pseudo))
        except OssegError as exc:
            self.tally.record(False, f"trainer.train raised {exc}")
            return
        self.wall_s += time.perf_counter() - t0
        self.steps += len(log)
        if traced:
            self.traced_steps += len(log)
        self.step_ms[traced] += tracer.durations_ms("trainer.train_step", first_span)[warmup:]

        losses = [r.l_total for r in log]
        if self._reference is None:
            self._reference = (losses, teacher)
            self.teacher = teacher
        ref_losses, ref_teacher = self._reference
        for step, rep in enumerate(log):
            ok = _loss_ok(rep, self.cfg.lambda_cd) and rep.l_total == ref_losses[step]
            self.tally.record(ok, f"step {step}: losses not finite, not summing or not reproduced")
        same = all(np.array_equal(t.data, ref_teacher[name].data)
                   for name, t in teacher.tensors.items())
        if not same:
            self.tally.record(False, "teacher differs from the first call's")


class ServePhase:
    """`osseg eval` over the test set, then warm `predict` on each image."""

    def __init__(self, data, teacher, workdir, tally):
        self.data, self.tally = data, tally
        self.ckpt = os.path.join(workdir, "teacher.osseg")
        self.report = os.path.join(workdir, "eval", "report.csv")
        os.makedirs(os.path.dirname(self.report), exist_ok=True)
        segmodel.save_checkpoint(self.ckpt, teacher)
        self.params = segmodel.load_checkpoint(self.ckpt)
        segmodel.predict(self.params, data.test[0].image)  # warm-up
        self.predict_ms = {False: [], True: []}
        self.eval_images = 0
        self.eval_wall_s = 0.0
        self.traced_images = 0
        self.target_miou = None

    def one_pass(self, tracer, functions):
        traced = tracer is not None
        n = len(self.data.test)
        with tr.patched(tracer or tr.Tracer(), functions if traced else []):
            t0 = time.perf_counter()
            code = cli.main(["eval", "--ckpt", self.ckpt, "--data-root", self.data.test_dir,
                             "--out", self.report])
            wall = time.perf_counter() - t0
            cm = evalmetrics.ConfusionMatrix(NUM_CLASSES)
            for sample in self.data.test:
                t0 = time.perf_counter()
                try:
                    pred = segmodel.predict(self.params, sample.image)
                except OssegError as exc:
                    self.tally.record(False, f"predict raised {exc}")
                    continue
                self.predict_ms[traced].append((time.perf_counter() - t0) * 1e3)
                ok = pred.shape == sample.label.shape and int(pred.max()) < NUM_CLASSES
                self.tally.record(ok, f"predict gave ids outside 0..{NUM_CLASSES - 1}")
                if ok:
                    _accumulate(cm, pred, sample.label)
        if traced:
            self.traced_images += 2 * n
        direct_miou = _iou_report(cm).miou
        csv_miou = _read_miou(self.report) if code == 0 else None
        self.tally.record(code == 0 and csv_miou == direct_miou,
                          f"eval exit {code}, csv mIoU {csv_miou} != predict mIoU {direct_miou}")
        if code == 0:
            self.eval_images += n
            self.eval_wall_s += wall
        if self.target_miou is None:
            self.target_miou = direct_miou


def _read_miou(path):
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.reader(f):
            if row and row[0] == "miou":
                return float(row[1])
    return None


def _pct(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def run(workload, seed, seconds, trace, workdir, sizes=Sizes()):
    """Run one workload; returns a Result."""
    wl = WORKLOADS[workload]
    layer_map = load_layer_map()
    functions = traced_functions(layer_map)
    tally = Tally()

    setup_tracer = tr.Tracer()
    setup_s = []

    def timed_setup(traced=False):
        with tr.patched(setup_tracer, functions if traced else []):
            t0 = time.perf_counter()
            data = setup(seed, sizes, workdir)
            setup_s.append(time.perf_counter() - t0)
        return data

    data = timed_setup()
    work_tracer = tr.Tracer()
    cfg = trainer.TrainConfig(iterations=wl.steps_per_call, batch=sizes.batch,
                              crop=sizes.crop, seed=seed, **wl.train_config)
    train = TrainPhase(data, cfg, tally)
    serve = None
    cycles = 0
    start = time.perf_counter()
    while True:
        traced = trace and cycles % 2 == 1
        trace_train = traced and wl.main_phase == "train"
        trace_serve = traced and wl.main_phase == "serve"
        train.call(work_tracer if trace_train else None,
                   functions if trace_train else STEP_TIMER,
                   sizes.warmup_steps if cycles == 0 else 0)
        if train.teacher is None:
            break  # the first call failed; there is nothing to serve
        serve = serve or ServePhase(data, train.teacher, workdir, tally)
        for _ in range(wl.passes_per_cycle):
            serve.one_pass(work_tracer if trace_serve else None, functions)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or cycles >= 2):
            break
        # Repeat the set-up at even intervals, so that its median samples
        # the same stretch of time as the other metrics. Its products are
        # identical to the first set-up's and are dropped.
        if len(setup_s) < sizes.setups - 1 and elapsed >= seconds * len(setup_s) / (sizes.setups - 1):
            timed_setup()
    while len(setup_s) < sizes.setups:
        timed_setup(traced=trace and len(setup_s) == sizes.setups - 1)

    details = {
        "setup_s_samples": setup_s,
        "cycles": cycles,
        "train_steps": train.steps,
        "step_samples": len(train.step_ms[False]),
        "warmup_steps_dropped": sizes.warmup_steps,
        "predict_samples": len(serve.predict_ms[False]) if serve else 0,
        "eval_images": serve.eval_images if serve else 0,
        "target_miou": serve.target_miou if serve else None,
        "problems": tally.problems,
    }
    if trace:
        metrics = _layer_metrics(layer_map, setup_tracer, work_tracer, wl, train, serve)
    else:
        metrics = _e2e_metrics(setup_s, train, serve)
    correct = tally.failed == 0 and serve is not None
    tracers = {"setup": setup_tracer, "work": work_tracer} if trace else {}
    return Result(correct, tally.attempted, tally.failed, metrics, details, tracers)


def _e2e_metrics(setup_s, train, serve):
    step_ms = train.step_ms[False]
    values = {
        "setup_s": statistics.median(setup_s),
        "train_steps_per_s": train.steps / train.wall_s if train.wall_s else float("nan"),
        "step_ms_p50": _pct(step_ms, 50),
        "step_ms_p90": _pct(step_ms, 90),
        "predict_ms_p50": _pct(serve.predict_ms[False], 50) if serve else float("nan"),
        "predict_ms_p90": _pct(serve.predict_ms[False], 90) if serve else float("nan"),
        "eval_images_per_s": serve.eval_images / serve.eval_wall_s if serve and serve.eval_wall_s
        else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def _layer_metrics(layer_map, setup_tracer, work_tracer, wl, train, serve):
    work = tr.summarize(work_tracer.spans)
    setup = tr.summarize(setup_tracer.spans)
    if wl.main_phase == "serve":
        units = serve.traced_images if serve else 0
        timings = serve.predict_ms if serve else {False: [], True: []}
    else:
        units = train.traced_steps
        timings = train.step_ms
    units = units or float("nan")
    metrics = {}
    for name, spec in layer_map.items():
        function, stat = _split_metric(name)
        if name == "trace_overhead_ms":
            metrics[name] = (_pct(timings[True], 50) - _pct(timings[False], 50), "ms")
        elif stat == "nodes":
            metrics[name] = (work_tracer.counts.get(name, 0) / units, "count")
        else:
            per, source = (1, setup) if spec["phase"] == "setup" else (units, work)
            calls, self_ns = source.get(function, (0, 0))
            if stat == "calls":
                metrics[name] = (calls / per, "count")
            else:
                metrics[name] = (self_ns / 1e6 / per, "ms")
    return metrics
