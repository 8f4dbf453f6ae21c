"""Alternating parent/change pairs of the benchmark, collected into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent <commit> --pr <n> [--pairs 10] [--out PATH]

Run from anywhere inside a git checkout. The parent commit is extracted with
`git archive` into a temporary directory (no worktree is registered, so a
killed run leaves nothing in the repository); the change is this checkout's
working tree, named by its HEAD and the SHA-256 of its src/osseg/*.py (the
digest perfbench puts in each run's fingerprint; a run whose digest differs
from its side's stops the script). Each pair runs `perfbench/run.py --trace 0`
once on each side, for every workload in BENCHMARK.json, with its
`run_seconds` and seed 1, and the side that goes first alternates from pair
to pair, so that a host whose speed drifts favours neither. Every end-to-end
metric that BENCHMARK.json declares is summarised per workload: both sides'
medians, the parent's interquartile range and in how many pairs the change
was better.
"""

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", default=None, help="default: BENCH_<pr>.json in the repository root")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def git(*argv):
    return subprocess.run(["git", "-C", ROOT, *argv], check=True, capture_output=True).stdout


def extract(commit, dest):
    """The tree of `commit`, written under `dest`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")


def source_digest(checkout):
    """SHA-256 over `checkout`'s src/osseg/*.py, as perfbench's fingerprint computes it."""
    h = hashlib.sha256()
    pkg = os.path.join(checkout, "src", "osseg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_once(checkout, digest, workload, seconds):
    """One `--trace 0` run in `checkout`: its record (metrics, fingerprint, ...)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    path = os.path.join(checkout, ".perfbench_runs", f"{workload}-seed{SEED}-trace0.json")
    if proc.returncode not in (0, 1) or not os.path.exists(path):
        raise SystemExit(f"error: {workload} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(path, encoding="utf-8") as f:
        record = json.load(f)
    os.remove(path)  # the next run of this workload must not find a stale record
    if record["fingerprint"]["source_sha256"] != digest:
        raise SystemExit(f"error: src/osseg in {checkout} changed during the pairs")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "fingerprint": record["fingerprint"],
            "metrics": {k: m["value"] for k, m in record["metrics"].items()}}


def summarise(pairs, metrics):
    """Per metric: medians, the parent's interquartile range and the change's wins."""
    out = {}
    for name, better in metrics.items():
        both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        parent, change = [a for a, _ in both], [b for _, b in both]
        q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
        out[name] = {
            "better": better,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "median_ratio": statistics.median(b / a for a, b in both if a),
            "parent_iqr": q[2] - q[0],
            "change_better_in": sum((b < a) if better == "lower" else (b > a) for a, b in both),
            "pairs": len(both),
        }
    return out


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    correct = True
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        extract(parent, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        digests = {side: source_digest(path) for side, path in sides.items()}
        result = {"pr": args.pr,
                  "parent": {"commit": parent, "source_sha256": digests["parent"]},
                  "change": {"working_tree_at": git("rev-parse", "HEAD").decode().strip(),
                             "source_sha256": digests["change"]},
                  "seconds": seconds, "seed": SEED, "workloads": {}}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"order": list(order)}
                for side in order:
                    pair[side] = run_once(sides[side], digests[side], workload, seconds)
                    correct &= pair[side]["correct"] and not pair[side]["failed"]
                    print(f"{workload} pair {i} {side}: " + ", ".join(
                        f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()
                        if k in metrics and v is not None), flush=True)
                pairs.append(pair)
            result["workloads"][workload] = {"summary": summarise(pairs, metrics),
                                             "pairs": pairs}
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out + ".tmp", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    os.replace(out + ".tmp", out)
    for workload, res in result["workloads"].items():
        for name, s in res["summary"].items():
            print(f"{workload:17s} {name:18s} parent {s['parent_median']:.4g} "
                  f"change {s['change_median']:.4g} (ratio {s['median_ratio']:.3f}, "
                  f"better in {s['change_better_in']}/{s['pairs']}, "
                  f"parent IQR {s['parent_iqr']:.3g})")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
