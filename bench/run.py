"""actreg benchmark: training, lambda-sweep and analysis throughput.

Run from the root of a checkout:

    python3 bench/run.py --workload train-dense --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): train-dense,
train-cnn, sweep, analyze; ``--workload all`` runs the four, each in its
own process, and prints every named end-to-end metric. Each workload is
a closed loop in one process with one BLAS/OpenMP thread.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced cycles with cycles that run with every traced call site
wrapped, and prints the per-layer metrics plus the tracing overhead
(the traced cycles' throughput shortfall against the untraced ones). Spans are written to
``bench/out/trace-<workload>-seed<n>.json`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Output checks
that fail make the exit code 1; a checkout without ``src/actreg`` exits 2.
"""

from __future__ import annotations

import os

# Fixed conditions, set before numpy is imported: every BLAS/OpenMP pool
# on one thread, and no transparent huge pages for numpy arrays, because
# whether the kernel can back an array with huge pages depends on how
# much memory other processes on the host leave free.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PINNED)

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import actreg"


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_actreg():
    if not (SRC / "actreg" / "__init__.py").is_file():
        fail_setup(f"no actreg package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import actreg  # its __init__ imports every submodule the benchmark uses
    if Path(actreg.__file__).resolve().parent != SRC / "actreg":
        fail_setup(f"imported actreg from {actreg.__file__}, not from {SRC}")
    return actreg


def fresh_import_seconds() -> float:
    """Wall time of importing actreg in a new interpreter."""
    t0 = time.perf_counter()
    # no timeout: waiting with one would poll, and the number of polls
    # would shift when the cyclic collector runs in this process
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def machine_note(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "env": PINNED,
            "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(work, meters, seconds: float, tracer=None) -> tuple[list[int], float]:
    """Run closed-loop cycles until the next one would overrun the window.

    With two meters, cycles alternate between them and every second
    cycle runs with the tracer installed, so drift in machine speed
    during the window affects the traced and untraced samples alike.
    Returns the number of cycles per meter and the peak RSS in MB after
    ``work.rss_cycles`` cycles (or at the end, if fewer ran).
    """
    deadline = time.perf_counter() + seconds
    cycles = [0] * len(meters)
    last = 0.0
    rss = None
    while True:
        t0 = time.perf_counter()
        if cycles[0] and t0 + last > deadline:
            return cycles, peak_rss_mb() if rss is None else rss
        k = sum(cycles) % len(meters)
        if k:
            tracer.install()
        try:
            work.cycle(meters[k])
        finally:
            if k:
                tracer.uninstall()
        last = time.perf_counter() - t0
        cycles[k] += 1
        if sum(cycles) == work.rss_cycles:
            rss = peak_rss_mb()


def geomean(meter, names) -> float:
    medians = [meter.median(n) for n in names]
    if min(medians) <= 0:
        return 0.0
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def setup(cls, ar, args, workdir: str):
    """Set the workload up SETUP_REPEATS times; returns it and the median time.

    One set-up is a fresh interpreter importing actreg, then building the
    workload (inputs from the seed) and one warm-up of its operations.
    """
    times = []
    work = None
    for k in range(1 if args.tiny else SETUP_REPEATS):
        t_import = fresh_import_seconds()
        t0 = time.perf_counter()
        work = cls(ar, args.seed, args.tiny, os.path.join(workdir, f"w{k}"))
        work.synthesize()
        work.warm_up()
        times.append(t_import + time.perf_counter() - t0)
    # start the window from the same collector state in every run
    gc.collect()
    return work, statistics.median(times)


def line(name: str, value: float, unit: str, extra: str = "") -> str:
    return f"metric {name} {value:.6g} {unit}{extra}"


def run_workload(args) -> int:
    from workloads import WORKLOADS, Meter
    from tracing import Tracer
    ar = import_actreg()
    cls = WORKLOADS[args.workload]
    note = machine_note(args.seed)
    print("machine " + json.dumps(note, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        work, setup_s = setup(cls, ar, args, workdir)
        meter, traced = Meter(), Meter()
        tracer = None
        if args.trace:
            tracer = Tracer(ar)
            tracer.install()
            try:
                work.synthesize()
            finally:
                tracer.uninstall()
        cycles, rss_mb = measure(work, [meter, traced] if tracer else [meter],
                                 args.seconds, tracer)
        work.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} cycles {'+'.join(map(str, cycles))}")
    print(line("setup_s", setup_s, "s"))
    for name in cls.rates:
        tail = meter.tail(name)
        extra = f" p{tail[0]:g}={tail[1]:.6g}" if tail else ""
        print(line(name, meter.median(name), "1/s",
                   f"{extra} n={len(meter.samples[name])}"))
    ratio = work.failed / work.attempted
    print(line("failed_ops_ratio", ratio, "ratio",
               f" ({work.failed}/{work.attempted})"))
    print(line("peak_rss_mb", rss_mb, "MB", f" (after {work.rss_cycles} cycles)"))
    rates = geomean(meter, cls.gated)
    print(line("rates_geomean", rates, "1/s",
               f" (geometric mean of {', '.join(cls.gated)})"))
    for message in work.failures[:20]:
        print(f"failure {message}")

    if args.trace:
        traced_rates = geomean(traced, cls.gated)
        overhead = 100.0 * (1.0 - traced_rates / rates)
        print(f"traced rates_geomean {traced_rates:.6g} 1/s overhead {overhead:.3g}%")
        layers = tracer.layer_metrics()
        layers.update(work.layer_counts())
        layers["trace.overhead_pct"] = (overhead, "%")
        for name, (value, unit) in layers.items():
            print(line(name, value, unit))
        tracer.dump(str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"),
                    {"machine": note, "workload": args.workload,
                     "seconds": args.seconds})
        metrics = layers
    else:
        metrics = {"setup_s": (setup_s, "s"), "rates_geomean": (rates, "1/s"),
                   "peak_rss_mb": (rss_mb, "MB")}
    correct = work.failed == 0 and all(meter.samples[n] for n in cls.rates)
    print(json.dumps({"correct": correct, "attempted": work.attempted,
                      "failed": work.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced; all named metrics."""
    from workloads import WORKLOADS
    import_actreg()
    attempted = failed = 0
    correct = True
    named = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            fail_setup(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for ln in lines[:-1]:
            print(f"[{name}] {ln}")
            parts = ln.split()
            if parts[0] == "metric" and parts[1] != "rates_geomean":
                named[f"{name}/{parts[1]}"] = {"value": float(parts[2]),
                                               "unit": parts[3]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": named}))
    return 0 if correct else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs untraced")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
