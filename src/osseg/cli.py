"""Single command-line binary wiring all pipeline stages.

Subcommands: gen-data, stylize, mix, train, eval, infer, gradcheck.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from . import __version__
from . import evalmetrics, gradcheck, mixer, styletransfer, synthdata, trainer
from .errors import ArgumentError, OssegError
from .rng import derive_rng
from .segmodel import load_checkpoint, predict, save_checkpoint
from .synthdata import (
    SOURCE_PALETTE,
    TARGET_PALETTE,
    DomainTag,
    LayoutMode,
    SceneSpec,
    read_dataset,
    read_image,
    read_label,
    write_dataset,
    write_image,
    write_label,
)


def _write_run_manifest(out_dir, command, config, seed, started):
    os.makedirs(out_dir, exist_ok=True)
    lines = [
        f"command = {command}",
        f"seed = {seed}",
        f"build = osseg-{__version__}",
        f"wall_time_s = {time.time() - started:.3f}",
    ]
    lines += [f"{k} = {v}" for k, v in sorted(config.items())]
    with open(os.path.join(out_dir, "run_manifest.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def cmd_gen_data(args):
    started = time.time()
    if args.domain == "source":
        spec = SceneSpec(palette=SOURCE_PALETTE, layout_mode=LayoutMode.OPEN_FIELD,
                         seed=args.seed, image_size=(args.size, args.size))
    else:
        spec = SceneSpec(palette=TARGET_PALETTE, layout_mode=LayoutMode.DENSE_CITY,
                         seed=args.seed, image_size=(args.size, args.size))
    if args.count < 1:
        raise ArgumentError(f"count must be >= 1, got {args.count}")
    samples = [synthdata.generate_sample(spec, i) for i in range(args.count)]
    write_dataset(args.out, args.domain, samples)
    _write_run_manifest(
        args.out, "gen-data",
        {"domain": args.domain, "count": args.count, "size": args.size},
        args.seed, started,
    )
    return 0


def cmd_stylize(args):
    started = time.time()
    data = read_dataset(args.src_dir)
    reference = read_image(args.reference)
    cfg = styletransfer.FdaConfig(beta=args.beta)
    styled = styletransfer.build_pseudo_target(data, reference, cfg)
    write_dataset(args.out_dir, "pt", styled)
    _write_run_manifest(
        args.out_dir, "stylize",
        {"src_dir": args.src_dir, "reference": args.reference, "beta": args.beta},
        0, started,
    )
    return 0


def cmd_mix(args):
    started = time.time()
    if args.count < 1:
        raise ArgumentError(f"count must be >= 1, got {args.count}")
    donors = read_dataset(args.pt_dir, domain_tag=DomainTag.PSEUDO_TARGET)
    acceptors = read_dataset(args.src_dir, domain_tag=DomainTag.SOURCE)
    rng = derive_rng(args.seed, "mix")
    out_samples = []
    sidecars = []
    for _ in range(args.count):
        i = int(rng.integers(0, len(donors)))
        j = int(rng.integers(0, len(acceptors)))
        acceptor = acceptors[j]
        acceptor.pseudo_label = read_label(os.path.join(args.pseudo_dir, f"lbl_{j}.pgm"))
        sampled = mixer.sample_classes(donors[i].label, rng, drawn_from=i)
        mask = mixer.build_mask(donors[i].label, sampled)
        pair = mixer.MixPair(donor=donors[i], acceptor=acceptor)
        out_samples.append(mixer.mix(pair, mask))
        sidecars.append((i, j, sorted(sampled.classes)))
    write_dataset(args.out_dir, "mix", out_samples)
    for n, (i, j, classes) in enumerate(sidecars):
        side = os.path.join(args.out_dir, "mix", f"mix_{n}.txt")
        with open(side, "w", encoding="utf-8") as f:
            f.write(f"donor_i = {i}\nacceptor_j = {j}\n")
            f.write("classes = " + ",".join(str(c) for c in classes) + "\n")
    _write_run_manifest(
        args.out_dir, "mix",
        {"pt_dir": args.pt_dir, "src_dir": args.src_dir, "count": args.count},
        args.seed, started,
    )
    return 0


def cmd_train(args):
    started = time.time()
    cfg = trainer.parse_config_file(args.config)
    source = read_dataset(os.path.join(args.data_root, "source"))
    pt_dir = os.path.join(args.data_root, "pt")
    ref_path = os.path.join(args.data_root, "reference.ppm")
    pseudo = None
    reference = None
    if os.path.exists(os.path.join(pt_dir, "manifest.txt")):
        pseudo = read_dataset(pt_dir, domain_tag=DomainTag.PSEUDO_TARGET)
    elif os.path.exists(ref_path):
        reference = read_image(ref_path)
    else:
        raise ArgumentError(
            f"{args.data_root}: need either pt/manifest.txt or reference.ppm"
        )
    data = trainer.TrainData(source=source, reference=reference, pseudo_target=pseudo)
    teacher, log = trainer.train(cfg, data)
    save_checkpoint(args.out, teacher)
    with open(args.log, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "l_pt", "l_idr", "l_cd", "l_total"])
        for step, rep in enumerate(log):
            writer.writerow([step, repr(rep.l_pt), repr(rep.l_idr),
                             repr(rep.l_cd), repr(rep.l_total)])
    _write_run_manifest(
        os.path.dirname(os.path.abspath(args.out)), "train",
        {"config": args.config, "data_root": args.data_root,
         "iterations": cfg.iterations, "pairing": cfg.pairing.value},
        cfg.seed, started,
    )
    return 0


def cmd_eval(args):
    started = time.time()
    params = load_checkpoint(args.ckpt)
    n = params.config.num_classes
    data = read_dataset(args.data_root, num_classes=n, domain_tag=DomainTag.TARGET)
    subset = [int(c) for c in args.subset.split(",")] if args.subset else []
    total = evalmetrics.ConfusionMatrix(n)
    for sample in data:
        evalmetrics.accumulate(total, predict(params, sample.image), sample.label)
    report = evalmetrics.iou_report(total, subset=subset)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        for c, iou in enumerate(report.per_class):
            writer.writerow([c, "" if iou is None else repr(iou)])
        writer.writerow(["miou", repr(report.miou)])
        writer.writerow(["miou_subset", repr(report.miou_subset)])
    _write_run_manifest(
        os.path.dirname(os.path.abspath(args.out)), "eval",
        {"ckpt": args.ckpt, "data_root": args.data_root, "subset": args.subset},
        0, started,
    )
    return 0


def cmd_infer(args):
    started = time.time()
    params = load_checkpoint(args.ckpt)
    image = read_image(args.image)
    pred = predict(params, image)
    write_label(args.out, pred)
    if args.color_out:
        palette = np.asarray(SOURCE_PALETTE[:params.config.num_classes])
        write_image(args.color_out, palette[pred])
    _write_run_manifest(
        os.path.dirname(os.path.abspath(args.out)), "infer",
        {"ckpt": args.ckpt, "image": args.image},
        0, started,
    )
    return 0


def cmd_gradcheck(args):
    results = gradcheck.run_gradcheck(seed=args.seed)
    failed = []
    for name, err in results.items():
        ok = err < gradcheck.GATE
        print(f"{name:22s} max_rel_error={err:.3e} {'PASS' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    if failed:
        print("failed groups: " + ", ".join(failed))
        return 1
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
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("stylize", help="build the pseudo-target domain")
    p.add_argument("--src-dir", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--beta", type=float, default=styletransfer.DEFAULT_BETA)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_stylize)

    p = sub.add_parser("mix", help="emit class-mixed intermediate samples")
    p.add_argument("--pt-dir", required=True)
    p.add_argument("--src-dir", required=True)
    p.add_argument("--pseudo-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train", help="run the mean-teacher training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--subset", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="predict a label map for one image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--color-out", default=None)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference self-check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OssegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
