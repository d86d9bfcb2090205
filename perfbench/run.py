"""kpplab benchmark: wall time to a correct verdict, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload fronts_1d --seed 1 --seconds 22 --trace 0

One process runs one workload, one job at a time (a closed loop with a
single client), with BLAS/OpenMP pools pinned to one thread.  It repeats
the workload until ``--seconds`` have passed and prints human-readable
lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half
of the time untraced and half traced and reports the per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# Names of workloads.WORKLOADS; that module imports numpy, which must wait
# until the thread pools are pinned and the set-up clock runs.
WORKLOADS = ("fronts_1d", "spread_2d", "dispersion_cells", "stationary_1d")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help=argparse.SUPPRESS)  # internal: time one set-up in DIR
    return p.parse_args(argv)


def hermetic_env():
    """Drop KPPLAB_* overrides (the CLI ignores bad values silently) and
    pin native thread pools; must run before numpy is imported."""
    for key in [k for k in os.environ if k.startswith("KPPLAB_")]:
        del os.environ[key]
    for key in THREAD_VARS:
        os.environ[key] = "1"


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def make_workdir():
    """A fresh directory for this run; removes those of dead runs."""
    os.makedirs(WORK, exist_ok=True)
    for stale in glob.glob(os.path.join(WORK, "run-*")):
        pid = stale.rsplit("-", 1)[-1]
        if not pid.isdigit() or not _alive(int(pid)):
            shutil.rmtree(stale, ignore_errors=True)
    path = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass  # another run still uses it


def timed_setup(args, workdir):
    """Import kpplab and build the workload; returns (units, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    units = workloads.WORKLOADS[args.workload](ROOT, BENCH, workdir, args.seed)
    return units, time.perf_counter() - t0


def probe_setup(args, workdir, k):
    """Time one set-up in a fresh interpreter."""
    probe_dir = os.path.join(workdir, f"probe-{k}")
    os.makedirs(probe_dir)
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", probe_dir]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_reps(workloads, units, seconds):
    """Repeat the workload until `seconds` have passed.  Returns the wall
    time and the verdicts of each repetition."""
    walls, reps = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        verdicts = []
        t0 = time.perf_counter()
        for unit in units:
            verdicts.extend(workloads.run_unit(unit))
        walls.append(time.perf_counter() - t0)
        reps.append(verdicts)
    return walls, reps


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_header(args):
    import numpy
    import scipy

    print(f"kpplab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} commit={git_commit()}")


def print_verdicts(reps):
    """The last repetition's verdicts, then every mismatch of the others."""
    shown = reps[-1] + [v for rep in reps[:-1] for v in rep if not v.ok]
    for v in shown:
        room = "" if v.headroom is None else f"  headroom={v.headroom:.6g}"
        print(f"verdict {v.name:32s} {'ok' if v.ok else 'MISMATCH'}  {v.detail}{room}")


def metric_line(name, value, unit, note=""):
    print(f"{name:26s} {value:<14.6g} {unit:6s} {note}".rstrip())


def bench(args, workdir):
    units, first_setup = timed_setup(args, workdir)
    import workloads

    print_header(args)

    if args.trace == 0:
        setups = [first_setup] + [probe_setup(args, workdir, k)
                                  for k in range(1, SETUP_SAMPLES)]
        walls, reps = run_reps(workloads, units, args.seconds)
        verdicts = [v for rep in reps for v in rep]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "margin_min": (workloads.margin_min(verdicts), "ratio"),
        }
    else:
        untraced, reps = run_reps(workloads, units, args.seconds / 2)
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced, traced_reps = run_reps(workloads, units, args.seconds / 2)
        reps += traced_reps
        verdicts = [v for rep in reps for v in rep]
        metrics = tracer.metrics(len(traced), statistics.fmean(traced),
                                 statistics.fmean(untraced))

    print_verdicts(reps)
    failed = sum(not v.ok for v in verdicts)
    if args.trace == 0:
        metric_line("wall_s", *metrics["wall_s"], f"median of {len(walls)} repetitions")
        print("wall_s samples:", " ".join(f"{w:.4f}" for w in walls))
        metric_line("setup_s", *metrics["setup_s"], f"median of {len(setups)} set-ups")
        metric_line("peak_rss_mb", *metrics["peak_rss_mb"])
        metric_line("verdict_fail_ratio", failed / len(verdicts), "ratio",
                    f"{failed} of {len(verdicts)} verdicts differ from the expected verdict")
        metric_line("margin_min", *metrics["margin_min"])
    else:
        print(f"repetitions: {len(traced)} traced, {len(untraced)} untraced")
        for entry in tracer.absent:
            print(f"absent: {entry}")
        for entry in sorted(tracer.hook_errors):
            print(f"absent counters: {entry}")
        for name, (value, unit) in metrics.items():
            metric_line(name, value, unit)
        total = sum(metrics[name][0] for name in tracing.SELF_METRICS.values())
        print(f"self times {total:.6g} s + unattributed "
              f"{metrics['trace.unattributed_s'][0]:.6g} s = traced wall "
              f"{metrics['trace.wall_s'][0]:.6g} s")

    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": 0.0 if math.isnan(v) else v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    hermetic_env()
    if not os.path.isfile(os.path.join(SRC, "kpplab", "__init__.py")):
        print(f"error: kpplab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, seconds = timed_setup(args, args.setup_probe)
        print(repr(seconds))
        return 0
    workdir = make_workdir()
    try:
        return bench(args, workdir)
    finally:
        remove_workdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
