"""Single command-line binary wiring all pipeline stages.

Subcommands: gen-data, stylize, mix, train, eval, infer, gradcheck.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import csv
import dataclasses
import errno
import hashlib
import io
import os
import sys
import time

import numpy as np

from . import __version__
from . import evalmetrics, gradcheck, styletransfer, synthdata, trainer
from .errors import ArgumentError, OssegError
from .segmodel import (claim_outputs, label_maps, load_checkpoint, predict, recording_reads,
                       save_checkpoint, write_atomic)
from .synthdata import (
    SOURCE_PALETTE,
    TARGET_PALETTE,
    DomainTag,
    LayoutMode,
    SceneSpec,
    read_dataset,
    read_image,
    write_dataset,
    write_image,
    write_label,
)


def cmd_gen_data(args):
    palette, layout = {"source": (SOURCE_PALETTE, LayoutMode.OPEN_FIELD),
                       "target": (TARGET_PALETTE, LayoutMode.DENSE_CITY)}[args.domain]
    spec = SceneSpec(palette=palette, layout_mode=layout, seed=args.seed,
                     image_size=(args.size, args.size))
    write_dataset(args.out, args.domain, synthdata.generate_dataset(spec, args.count))


def cmd_stylize(args):
    data = read_dataset(args.src_dir)
    reference = read_image(args.reference)
    styled = styletransfer.build_pseudo_target(data, reference, beta=args.beta)
    write_dataset(args.out_dir, "pt", styled)


def _read_train_data(root):
    """<root>/source, with <root>/pt if it has a manifest.txt, else <root>/reference.ppm."""
    source = read_dataset(os.path.join(root, "source"))
    if os.path.exists(os.path.join(root, "pt", "manifest.txt")):
        pseudo = read_dataset(os.path.join(root, "pt"), domain_tag=DomainTag.PSEUDO_TARGET)
        return trainer.TrainData(source=source, pseudo_target=pseudo)
    if os.path.exists(os.path.join(root, "reference.ppm")):
        reference = read_image(os.path.join(root, "reference.ppm"))
        return trainer.TrainData(source=source, reference=reference)
    raise ArgumentError(f"{root}: need either pt/manifest.txt or reference.ppm")


def cmd_mix(args):
    cfg = trainer.parse_config_file(args.config)
    source, pseudo = trainer.prepare_data(cfg, _read_train_data(args.data_root))
    teacher = load_checkpoint(args.ckpt)
    idx_i, idx_j, *batches, rng = next(trainer.step_draws(cfg, source, pseudo))
    sidecars = [os.path.join(args.out_dir, "mix", f"mix_{n}.txt") for n in range(len(idx_i))]
    claim_outputs(sidecars)
    crops = trainer.build_crops(teacher, *batches, rng, cfg)
    if crops[0].mixed is None:
        raise ArgumentError(f"{args.config}: a step of this config builds no mixed crop")
    write_dataset(args.out_dir, "mix", [c.mixed for c in crops])
    for path, i, j, c in zip(sidecars, idx_i, idx_j, crops):
        pl, gt = c.pseudo_label, c.acceptor.label  # no pl under a ground-truth mix
        hits = np.empty(0) if pl is None else (pl == gt)[gt != synthdata.IGNORE]
        write_atomic(path, (
            f"donor_i = {i}\nacceptor_j = {j}\n"
            f"classes = {','.join(str(k) for k in sorted(c.classes))}\n"
            f"pasted_fraction = {float(c.mask.mean())!r}\n"
            f"pseudo_label_accuracy = {float(hits.mean()) if hits.size else 'nan'}\n").encode())
    return {"seed": cfg.seed}


def _write_csv(path, rows):
    """`rows` as a UTF-8 CSV file (the csv module's dialect), written atomically."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def cmd_train(args):
    cfg = trainer.parse_config_file(args.config)
    data = _read_train_data(args.data_root)
    claim_outputs()  # every input is read: an output that names one fails before training
    teacher, log = trainer.train(cfg, data)
    save_checkpoint(args.out, teacher)
    _write_csv(args.log, [["step", *(f.name for f in dataclasses.fields(trainer.LossReport))]]
               + [[step, *("" if v is None else repr(v) for v in dataclasses.astuple(rep))]
                  for step, rep in enumerate(log)])
    return {**dataclasses.asdict(cfg), "pairing": cfg.pairing.value,
            **dataclasses.asdict(teacher.config)}


# `osseg eval` runs one forward pass per chunk of at most this many pixels,
# or per larger image. Each pass costs a fixed Python overhead, so larger
# chunks are faster; the bound caps the memory a pass holds, each image's
# pixel embeddings and logits until it ends: about 430 KB per 64x64 image at
# 5 classes, growing with the class count.
EVAL_CHUNK_PIXELS = 16 * 64 * 64


def _chunks(samples):
    """Runs of consecutive equal-size samples of at most EVAL_CHUNK_PIXELS pixels, or one."""
    chunk = []
    for sample in samples:
        if chunk and (sample.image.shape != chunk[0].image.shape
                      or (len(chunk) + 1) * sample.label.size > EVAL_CHUNK_PIXELS):
            yield chunk
            chunk = []
        chunk.append(sample)
    if chunk:
        yield chunk


def cmd_eval(args):
    try:
        subset = [int(c) for c in args.subset.split(",")] if args.subset else []
    except ValueError as exc:
        raise ArgumentError(
            f"--subset must list class ids separated by commas, got {args.subset!r}"
        ) from exc
    params = load_checkpoint(args.ckpt)
    n = params.config.num_classes
    if any(not 0 <= c < n for c in subset):
        raise ArgumentError(f"--subset {args.subset} out of range for {n} classes")
    data = read_dataset(args.data_root, num_classes=n, domain_tag=DomainTag.TARGET)
    if not data:
        raise ArgumentError(f"{args.data_root}: manifest.txt lists no samples")
    if all((s.label == synthdata.IGNORE).all() for s in data):
        raise ArgumentError(f"{args.data_root}: every label pixel is {synthdata.IGNORE} (ignore)")
    claim_outputs()  # every input is read
    total = evalmetrics.ConfusionMatrix(n)
    for chunk in _chunks(data):
        for sample, pred in zip(chunk, label_maps(params, [s.image for s in chunk])):
            evalmetrics.accumulate(total, pred, sample.label)
    report = evalmetrics.iou_report(total, subset=subset)
    _write_csv(args.out, [[c, "" if iou is None else repr(iou)]
                          for c, iou in enumerate(report.per_class)]
               + [["miou", repr(report.miou)], ["miou_subset", repr(report.miou_subset)]])


def _label_colors(num_classes):
    """An RGB row in [0, 1] per class id: SOURCE_PALETTE's for the first five, then
    one whose 8-bit red value is the id, so that no two ids share a colour."""
    ids = np.arange(len(SOURCE_PALETTE), max(num_classes, len(SOURCE_PALETTE)))
    extra = np.stack([ids, ids * 67 % 256, ids * 151 % 256], axis=1) / 255.0
    return np.concatenate([np.asarray(SOURCE_PALETTE), extra])[:num_classes]


def cmd_infer(args):
    params = load_checkpoint(args.ckpt)
    image = read_image(args.image)
    pred = predict(params, image)
    write_label(args.out, pred)
    if args.color_out:
        write_image(args.color_out, _label_colors(params.config.num_classes)[pred])


def cmd_gradcheck(args):
    results = gradcheck.run_gradcheck(seed=args.seed)
    failed = [name for name, err in results.items() if not err < gradcheck.GATE]
    for name, err in results.items():
        print(f"{name:22s} max_rel_error={err:.3e} {'FAIL' if name in failed else 'PASS'}")
    if failed:
        raise OssegError("failed groups: " + ", ".join(failed))


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _run(args):
    """Run a subcommand between one check of its paths and its one manifest.

    Its subparser names the path arguments it `reads` and `writes` (files,
    or directories if `dirs`); an unset one is skipped. Before any work, two
    paths with one `os.path.realpath`, or an output directory inside a
    directory it reads, are a usage error, a file output that is a
    directory fails, and the outputs' parents are made. While the command
    runs, replacing a file that it read is a usage error (`recording_reads`),
    so an output inside a read directory cannot clobber one of its inputs;
    the check of every declared file output, the manifest included, comes
    at the first write, before any output is touched.
    The manifest, named after the first output, lists the parsed arguments,
    the settings dict the command returns and the SHA-256 of each path that
    is a file.
    """
    paths = {dest: getattr(args, dest) for dest in args.reads + args.writes
             if getattr(args, dest)}
    seen = {}
    for dest, path in paths.items():
        other = seen.setdefault(os.path.realpath(path), dest)
        if other != dest:
            raise ArgumentError(f"{_flag(other)} and {_flag(dest)} name the same path {path}")
    for real, dest in seen.items():
        for outer, read in seen.items():
            if (args.dirs and dest in args.writes and read in args.reads
                    and os.path.isdir(outer) and real.startswith(os.path.join(outer, ""))):
                raise ArgumentError(f"{_flag(dest)} {paths[dest]} lies inside "
                                    f"{_flag(read)} {paths[read]}")
    outputs = [paths[dest] for dest in args.writes if dest in paths]
    for path in outputs:
        if not args.dirs and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    for path in outputs:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    declared = []  # the files it writes that are known before it runs
    if outputs:
        manifest = (os.path.join(outputs[0], "run_manifest.txt") if args.dirs
                    else f"{outputs[0]}.manifest.txt")
        declared = ([] if args.dirs else outputs) + [manifest]
    started = time.time()
    with recording_reads(declared):
        settings = args.func(args) or {}
        if not outputs:
            return 0
        fields = {k: v for k, v in vars(args).items()
                  if k not in ("command", "func", "reads", "writes", "dirs")}
        fields.update(settings)
        fields.update({f"sha256.{dest}": _sha256(path) for dest, path in paths.items()
                       if os.path.isfile(path)})
        lines = [f"command = {args.command}", f"build = osseg-{__version__}",
                 f"wall_time_s = {time.time() - started:.3f}"]
        lines += [f"{k} = {v}" for k, v in sorted(fields.items())]
        write_atomic(manifest, ("\n".join(lines) + "\n").encode("utf-8"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="osseg",
        description="One-shot domain-adaptive segmentation on a synthetic benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--domain", choices=["source", "target"], required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data, reads=(), writes=("out",), dirs=True)

    p = sub.add_parser("stylize", help="build the pseudo-target domain")
    p.add_argument("--src-dir", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--beta", type=float, default=styletransfer.DEFAULT_BETA)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_stylize, reads=("src_dir", "reference"), writes=("out_dir",), dirs=True)

    p = sub.add_parser("mix", help="write the class-mixed crops of a run's first step")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_mix, reads=("ckpt", "config", "data_root"), writes=("out_dir",),
                   dirs=True)

    p = sub.add_parser("train", help="run the mean-teacher training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_train, reads=("config", "data_root"), writes=("out", "log"), dirs=False)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--subset", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval, reads=("ckpt", "data_root"), writes=("out",), dirs=False)

    p = sub.add_parser("infer", help="predict a label map for one image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--color-out", default=None)
    p.set_defaults(func=cmd_infer, reads=("ckpt", "image"), writes=("out", "color_out"),
                   dirs=False)

    p = sub.add_parser("gradcheck", help="finite-difference self-check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck, reads=(), writes=(), dirs=False)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return _run(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OssegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
