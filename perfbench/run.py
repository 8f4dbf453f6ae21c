"""Run one workload of the osseg benchmark and print its metrics.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: it imports osseg from ./src,
never from an installed copy. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced run (see layer_map.json).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
exit code is 0 only when every correctness check passed.

Each run also writes .perfbench_runs/<workload>-seed<seed>-trace<t>.json
with the machine fingerprint, sample counts and the target mIoU; a traced
run writes its set-up and work spans next to it as CSV files.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import sys

# One BLAS thread: the benchmark measures a single-threaded program. These
# must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_osseg():
    """Import osseg from this checkout's src/ or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "osseg", "__init__.py")):
        print(f"error: no osseg sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import osseg

    if os.path.dirname(os.path.dirname(os.path.abspath(osseg.__file__))) != SRC:
        print(f"error: osseg imported from {osseg.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return osseg


def _blas():
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}", _blas_threads()


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-256 over src/osseg/*.py, so a result names its code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "osseg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def fingerprint(seed):
    import numpy as np

    blas, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    import_osseg()
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{tag}-work-{os.getpid()}")
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fp = fingerprint(args.seed)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fp, "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        # A metric a failed run could not measure is null, not NaN.
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in result.metrics.items()},
        "details": result.details,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for phase, tracer in result.tracers.items():
        tracer.write_csv(os.path.join(OUT_DIR, f"{tag}-spans-{phase}.csv"))

    for key, value in fp.items():
        print(f"# {key}: {value}")
    for key, value in result.details.items():
        print(f"# {key}: {value}")
    print(f"# failed_ratio: {result.failed / max(result.attempted, 1)!r}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": record["metrics"],
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
