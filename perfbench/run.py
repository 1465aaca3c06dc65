"""Benchmark of the `page-entropy` CLI: one workload in one fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ed_scan --seed 1 --seconds 22 --trace 0

The process drives `page_entropy.cli.main(argv)` in-process from
`src/`, closed loop with one client: each invocation starts when the
previous one returns.  A pass is one run of the workload's invocations
(see `workloads.py`); every pass builds fresh models, as a CLI call does.
One untimed warm-up pass runs first, then passes repeat until `--seconds`
have elapsed.  Every pass's output is checked against the references.

--trace 0 reports the end-to-end metrics: median `wall_s` and `cpu_s` per
pass, `setup_s` (median over fresh interpreters that import the CLI and
build the inputs, see `probe.py`) and `peak_rss_mb` of this process.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of `spans.py` (medians over traced passes) plus `trace.overhead_s`,
the traced minus the untraced median wall time.

The last stdout line is the JSON result; the line before it is the
environment record.  Both, with per-pass figures and (traced) the spans of
the last traced pass, also go to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

# Fresh interpreters timed per run for setup_s.
SETUP_PROBES = 5
THREADS_ENV = "PAGE_ENTROPY_THREADS"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "page_entropy" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'page_entropy'} not found; run from the "
              "root of a page-entropy checkout", file=sys.stderr)
        return 2
    # no --threads flag and no thread override: the CLI default of 1 worker
    threads_env = os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(SRC))

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = [] if args.trace else _setup_times(args.workload, args.seed)

    from page_entropy import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2

    jobs = workloads.invocations(args.workload, args.seed)
    checker = workloads.Checker(args.workload, args.seed)
    cpus = sorted(os.sched_getaffinity(0))
    bench = _Bench(jobs, checker, cpus)

    bench.run_pass(cli.main, 0)  # warm-up
    if args.trace:
        metrics, record = _traced_passes(bench, cli, args.seconds)
    else:
        deadline = time.perf_counter() + args.seconds
        passes = [bench.run_pass(cli.main, 1)]
        while _another(deadline, passes[-1]["wall_s"]):
            passes.append(bench.run_pass(cli.main, len(passes) + 1))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record = {"passes": passes, "setup_s": setup}

    env = _environment(args, threads_env, cpus)
    result = {
        "correct": bench.attempted > 0 and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    out.write_text(json.dumps({"env": env, "result": result,
                               "failures": bench.failures[:50], **record}))
    for message in bench.failures[:10]:
        print(f"perfbench: failed row: {message}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


class _Bench:
    """Runs passes and keeps the row counts of the correctness check."""

    def __init__(self, jobs, checker, cpus):
        self.jobs = jobs
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cpus = cpus

    def run_pass(self, entry, slot: int) -> dict:
        """One closed-loop pass; outputs are checked after the clock stops.

        The calling thread is pinned to allowed CPU number `slot` (mod their
        count).  Callers step `slot` from pass to pass, so a run samples
        every core equally instead of the one the scheduler keeps it on.
        """
        outputs = []
        os.sched_setaffinity(0, {self.cpus[slot % len(self.cpus)]})
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        for key, argv in self.jobs:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = entry(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a raising invocation is a failed row
                print(f"perfbench: {key} raised {exc!r}", file=sys.stderr)
                code = 1
            outputs.append((key, code, buf.getvalue()))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for key, code, text in outputs:
            failures = self.checker.failed_rows(key, code, text)
            self.attempted += self.checker.expected_rows(key)
            self.failed += len(failures)
            self.failures.extend(failures)
        return {"wall_s": wall, "cpu_s": cpu}


def _another(deadline: float, last: float) -> bool:
    """Start another pass if it should end by deadline plus half a pass,
    so that a run measures `--seconds` on average."""
    return time.perf_counter() + 0.5 * last < deadline


def _traced_passes(bench, cli, seconds):
    """Alternate untraced and traced passes; per-layer medians."""
    import spans

    modules = {name: sys.modules[f"page_entropy.{name}"]
               for name in ("cli", "entropy", "saddle", "haar_sampler",
                            "spectra")}
    cost = spans.calibrate()
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        # a traced pass and its untraced twin share a CPU
        slot = len(traced) + 1
        untraced.append(bench.run_pass(cli.main, slot))
        tracer = spans.Tracer()
        restore = tracer.install(modules)
        try:
            traced.append(bench.run_pass(tracer.span(cli.main, "cli.main"),
                                         slot))
        finally:
            restore()
        layers.append(spans.layer_metrics(tracer, cost))
        if not _another(deadline,
                        untraced[-1]["wall_s"] + traced[-1]["wall_s"]):
            break
    medians = spans.median_metrics(layers)
    medians["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced))
    metrics = {name: (medians[name], unit)
               for name, (unit, _) in spans.PER_LAYER.items()}
    record = {"untraced": untraced, "traced": traced, "layers": layers,
              "wrapper_cost_s": cost,
              "spans": [rec[:4] for rec in tracer.spans],
              "leaves": tracer.leaf}
    return metrics, record


def _setup_times(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to CLI import plus inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def _environment(args, threads_env, cpus) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(cpus),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        f"{THREADS_ENV}_ignored": threads_env,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
