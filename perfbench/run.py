"""harperlab benchmark: one workload, one seed, one line of JSON metrics.

Usage, from the root of a harperlab source checkout:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (set-up runs several times
and its median is reported), then passes over the workload's op list repeat
until the next pass would end after ``--seconds``.  Every op's result is
checked against its reference and must repeat byte for byte across passes and
across runs at one seed.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(medians over passes).  With ``--trace 1`` untraced and traced passes
alternate, and the metrics are the per-layer ones: per-pass means of the span
tracer's calls, self times and work counters over the traced passes, and
per-kind op times (medians) from the untraced passes.  Spans and the result
digests are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_REPS = 3
MIN_PASSES = 3
OUT_DIR = ".perfbench"

WORKLOADS = ("spectra", "cocycles", "arithmetic")
KINDS = (
    "le", "n_step", "rotation", "badness",
    "spectrum", "duality", "duality_t2", "decay", "perturb", "regularity",
    "forge", "delta", "cohomology", "commutant", "dc", "cli_roundtrip",
)
LAYERS = ("_tridiag", "model", "cocycle", "spectral", "contfrac", "cli")
# useful-outcome ratios: metric -> (function, ratio of its per-pass counters)
RATIOS = {
    "cocycle.lyapunov_numeric.alive_frac": (
        "cocycle.lyapunov_numeric", lambda c: 1.0 - c["excluded_lanes"] / c["lanes"]),
    "spectral.duality_check.kept_frac": (
        "spectral.duality_check", lambda c: 1.0 - c["boundary_filtered"] / c["eigs"]),
    "spectral.regularity_test.skipped_frac": (
        "spectral.regularity_test", lambda c: c["windows_skipped"] / c["windows"]),
}


def metric_name(name):
    """Metric names start with a letter: `_tridiag` is reported as `tridiag`."""
    return name.lstrip("_")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_metric_units(root, trace):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_program(root):
    """Import harperlab from the checkout's src/, never from anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "harperlab", "__init__.py")):
        raise SystemExit(f"perfbench: no harperlab sources under {src}; "
                         "run from the root of a harperlab checkout")
    sys.path.insert(0, src)
    import harperlab

    if os.path.dirname(os.path.abspath(harperlab.__file__)) != os.path.join(src, "harperlab"):
        raise SystemExit(f"perfbench: harperlab imported from {harperlab.__file__}, not {src}")
    # modules the experiments import lazily; loading them is part of set-up
    import mpmath  # noqa: F401
    import scipy.linalg  # noqa: F401

    import harperlab.cli  # noqa: F401

    return harperlab


class Runner:
    """Runs passes over an op list; keeps per-pass times, failures, digests."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.misses = []
        self.errors = {}
        self.pass_walls = []
        self.op_times = [[] for _ in ops]  # per op, one time per pass
        self.payload_bytes = 0

    def one_pass(self, tracer=None):
        from workloads import CheckMiss, CliExit, digest_of

        ctx = {}
        wall = 0.0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if tracer is not None:
                tracer.op_id = i
            t0 = time.perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # a failing op is counted, not fatal
                dt = time.perf_counter() - t0
                self.failed += 1
                msg = f"{type(exc).__name__}: {exc}"
                if op.known_defect and isinstance(exc, CliExit):
                    self.errors.setdefault(op.name, f"known defect, {op.known_defect}: {msg}")
                else:
                    self.misses.append(f"{op.name} raised {msg}")
                res = None
            else:
                dt = time.perf_counter() - t0
            wall += dt
            self.op_times[i].append(dt)
            if tracer is not None:
                tracer.op_id = -1
            if res is None:
                continue
            if op.payload and os.path.exists(op.payload):
                self.payload_bytes += os.path.getsize(op.payload)
            ctx[op.name] = res
            try:
                op.check(res, ctx)
                dig = digest_of(res)
                if self.digests.setdefault(op.name, dig) != dig:
                    raise CheckMiss(f"{op.name}: result differs from the first pass")
            except CheckMiss as miss:
                self.failed += 1
                self.misses.append(str(miss))
        self.pass_walls.append(wall)
        return wall

    def pass_time(self, passes, kind=None):
        """Time per pass: each op's median over the given passes, summed.

        Per-op medians drop a stall that hits one op in one pass, which a
        median of whole-pass sums would keep whenever stalls hit most passes.
        """
        return sum(
            statistics.median(times[i] for i in passes)
            for op, times in zip(self.ops, self.op_times)
            if kind is None or op.kind == kind
        )


def check_digests(root, workload, seed, digests, misses):
    """Results must repeat byte for byte across runs at one seed."""
    path = os.path.join(root, OUT_DIR, "digests", f"{workload}-{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        for name, dig in digests.items():
            if name in before and before[name] != dig:
                misses.append(f"{name}: result differs from an earlier run at seed {seed}")
    else:
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(digests, fh, sort_keys=True)
        os.replace(tmp, path)


def import_time(root):
    """Median time to import harperlab and its dependencies in a fresh interpreter."""
    import subprocess

    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
            "import harperlab.cli, mpmath, scipy.linalg; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def environment_line(harperlab):
    import importlib.util
    import platform

    import mpmath
    import numpy
    import scipy

    numba = "present" if importlib.util.find_spec("numba") else "absent"
    return (f"perfbench: harperlab {harperlab.__version__}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, mpmath {mpmath.__version__}, "
            f"numba {numba}, nproc {os.cpu_count()}")


def untraced_run(runner, deadline):
    """Passes until the next one would end past the deadline; medians."""
    while True:
        runner.one_pass()
        if len(runner.pass_walls) >= MIN_PASSES and (
            time.perf_counter() + statistics.median(runner.pass_walls) > deadline
        ):
            break
    return {
        "wall_s": runner.pass_time(range(len(runner.pass_walls))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, root, harperlab, runner, deadline):
    """Untraced and traced passes alternate; per-layer metrics per pass."""
    from tracer import TRACED, Tracer

    tracer = Tracer(harperlab)
    plain, traced = [], []
    while True:
        runner.one_pass()
        plain.append(len(runner.pass_walls) - 1)
        tracer.install()
        try:
            runner.one_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(len(runner.pass_walls) - 1)
        pair = runner.pass_walls[-1] + runner.pass_walls[-2]
        if len(traced) >= 2 and time.perf_counter() + pair > deadline:
            break

    n = len(traced)
    agg = tracer.aggregates()
    m = {}
    for name, (keys, _) in TRACED.items():
        row, prefix = agg[name], metric_name(name)
        m[f"{prefix}.calls"] = row["calls"] / n
        m[f"{prefix}.self_s"] = row["self_s"] / n
        for key in keys:
            m[f"{prefix}.{key}"] = row.get(key, 0) / n
    for metric, (fn, ratio) in RATIOS.items():
        m[metric] = ratio(agg[fn]) if agg[fn]["calls"] else 0.0
    for layer in LAYERS:
        m[f"layer.{metric_name(layer)}.self_s"] = sum(
            agg[name]["self_s"] for name in TRACED if name.split(".")[0] == layer
        ) / n
    for kind in KINDS:
        m[f"{kind}_s"] = runner.pass_time(plain, kind)
    m["cli.payload_bytes"] = runner.payload_bytes / len(runner.pass_walls)
    m["failed_frac"] = runner.failed / runner.attempted
    m["trace.wall_s"] = runner.pass_time(traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - runner.pass_time(plain)
    m["trace.coverage"] = tracer.root_time / sum(runner.pass_walls[i] for i in traced)
    spans_path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-{args.seed}.npz")
    m["trace.spans"] = tracer.save(spans_path) / n
    print(f"perfbench: {len(plain)} untraced + {n} traced passes; spans in {spans_path}",
          file=sys.stderr)
    return m


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    harperlab = import_program(root)
    import workloads

    units = load_metric_units(root, args.trace)
    print(environment_line(harperlab), file=sys.stderr)

    workdir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    import_s = 0.0 if args.trace else import_time(root)
    setup_times = []
    try:
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t = time.perf_counter()
            ops = workloads.setup(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - t)

        runner = Runner(ops)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics = traced_run(args, root, harperlab, runner, deadline)
        else:
            metrics = untraced_run(runner, deadline)
            metrics["setup_s"] = import_s + statistics.median(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_digests(root, args.workload, args.seed, runner.digests, runner.misses)
    for name, err in runner.errors.items():
        print(f"perfbench: op {name} failed: {err}", file=sys.stderr)
    for miss in runner.misses:
        print(f"perfbench: check missed: {miss}", file=sys.stderr)
    print("perfbench: pass walls " + " ".join(f"{w:.3f}" for w in runner.pass_walls),
          file=sys.stderr)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: computed metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    report = {
        "correct": not runner.misses,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
