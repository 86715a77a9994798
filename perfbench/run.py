"""Benchmark of the epsode command line, end to end and layer by layer.

    python3 perfbench/run.py --workload existence-e1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each pass calls ``epsode.cli.run(argv)`` in-process for every subcommand of
the workload (see ``workloads.py``), single-threaded.  Every output is
checked against an independent oracle (``oracles.py``), and the CSV data
rows of every pass must equal those of the first pass.  Passes repeat, at
least twice, while the next one, predicted to last as long as the previous
one, still ends within ``--seconds``.

With ``--trace 0`` the run reports, tracing off:
  wall_s       median time of one pass, first subcommand to last verdict
  setup_s      median over fresh interpreters of importing epsode.cli and
               building the workload's systems, regions and cycles
  peak_rss_mb  peak resident memory of this process
and prints fail_frac (failed / attempted subcommand calls) beside them.
Both times are calibrated: scaled by the kernel's relative speed
(CALIBRATION_S over the mean time of the fixed kernel ``calibrate`` run just
before and after them) to the power CALIBRATION_EXPONENT, so that they read
as seconds at one reference machine speed.  The raw times are printed and
recorded.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` per traced pass, the cli.*_s times of the
untraced passes, process.cpu_s and trace.overhead_frac.  Spans are written
to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The program is built from ``src/`` next to
this directory; without it the run exits with code 2 and prints no result.
"""

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import RK45

from oracles import data_rows
from tracer import Tracer
from workloads import WORKLOADS, OpResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
CALIBRATION_STEPS = 700
# Reference kernel time: about the kernel's time on an uncontended core of
# the 2-core x86_64 machine this benchmark was defined on (Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1), where it read 0.045 s to 0.08 s.
CALIBRATION_S = 0.05
# Between fast and slow spells of a core there, the kernel's time changed by
# a factor of about 1.6 and the workloads' pass times by 1.3 to 1.45, so a
# time is scaled by the kernel's relative speed to this power.
CALIBRATION_EXPONENT = 0.7

CLI_OPS = ("check_A0", "check_A1", "check_A2", "check_A3", "melnikov",
           "resonance", "find_periodic", "sweep", "average", "verify_cauchy")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.startswith("systems.rhs_us_per_lane."):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    """Machine facts that explain a noisy set of results."""
    blas_threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            blas_threads = int(get())
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_threads": blas_threads,
            "openblas_threads_within_nproc":
                None if blas_threads is None else blas_threads <= nproc,
            "loadavg": list(os.getloadavg()), "machine": platform.machine()}


def calibrate():
    """Seconds taken by a fixed kernel that runs the interpreter and numpy
    paths epsode runs, but none of its code: the median of three runs of
    CALIBRATION_STEPS scipy RK45 steps on 64 van der Pol lanes.  Garbage
    left by the workload is collected first, outside the timing."""
    def vdp(t, y):
        x, v = y[0::2], y[1::2]
        return np.column_stack([v, (1.0 - x * x) * v - x]).ravel()

    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            stepper = RK45(vdp, 0.0, np.tile([2.0, 0.0], 64), t_bound=1e9,
                           rtol=1e-10, atol=1e-12)
            for _ in range(CALIBRATION_STEPS):
                stepper.step()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def calibrated(seconds, kernel_times):
    """``seconds`` at the reference speed, given the kernel times measured
    just before and after them.  On a shared 2-core x86_64 machine the
    kernel time switched between about 0.14 s and 0.22 s, in spells of
    seconds to minutes."""
    speed = CALIBRATION_S / statistics.mean(kernel_times)
    return seconds * speed ** CALIBRATION_EXPONENT


def measure_setup(configs, repeats):
    """Raw wall times of fresh interpreters running setup_probe.py, and the
    kernel times measured before, between and after them."""
    cals, times = [calibrate()], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # No timeout: waiting with one polls every 50 ms and rounds the time.
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *configs],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return times, cals


class Run:
    """Passes of one workload with their checks.

    With ``calibrate`` on, the kernel runs before the first subcommand of a
    pass and after each one, and each subcommand's time is scaled by the
    kernel times just before and after it.
    """

    def __init__(self, workload, cli, work_dir, calibrate=False):
        self.workload = workload
        self.cli = cli
        self.work_dir = work_dir
        self.calibrate = calibrate
        self.passes = []  # dicts: traced, wall, calibrated, cpu, ops
        self.first_rows = {}
        self.failures = []

    def run_op(self, name, argv, tracer=None):
        """Run one subcommand, capturing exit code, stdout and CSV."""
        csv_path = self.work_dir / f"{name}.csv"
        if csv_path.exists():
            csv_path.unlink()
        buf = io.StringIO()
        rc, error = None, None
        frame = tracer.enter(f"cli.{name}") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.run(argv + ["--out", str(csv_path)])
        except Exception as exc:  # a raising subcommand is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if frame is not None:
            tracer.leave(frame)
        csv = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
        return OpResult(name, rc, buf.getvalue(), csv, seconds, error)

    def one_pass(self, tracer=None):
        kernels, scaled = [], []

        def run_op(name, argv):
            if self.calibrate and not kernels:
                kernels.append(calibrate())
            op = self.run_op(name, argv, tracer)
            if self.calibrate:
                kernels.append(calibrate())
                scaled.append(calibrated(op.seconds, kernels[-2:]))
            return op

        frame = tracer.enter("pass") if tracer else None
        cpu0 = time.process_time()
        ops = self.workload.run_pass(run_op)
        cpu = time.process_time() - cpu0
        if frame is not None:
            tracer.leave(frame)
        index = len(self.passes)
        for op in ops:
            errs = self.workload.check(op)
            rows = data_rows(op.csv)
            if self.first_rows.setdefault(op.name, rows) != rows:
                errs.append("CSV data rows differ from the first pass")
            self.failures.extend(f"pass {index} {op.name}: {e}" for e in errs)
            op.failed = bool(errs)
        self.passes.append({"traced": tracer is not None,
                            "wall": sum(op.seconds for op in ops),
                            "calibrated": sum(scaled), "kernels": kernels,
                            "cpu": cpu, "ops": ops})

    @property
    def attempted(self):
        return sum(len(p["ops"]) for p in self.passes)

    @property
    def failed(self):
        return sum(op.failed for p in self.passes for op in p["ops"])

    def walls(self, traced, key="wall"):
        return [p[key] for p in self.passes if p["traced"] == traced]


def repeat_within(seconds, body, at_least):
    """Call ``body`` at least ``at_least`` times, and again while a call as
    long as the last one still ends within ``seconds`` of the start."""
    start = time.perf_counter()
    for n in itertools.count(1):
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if n >= at_least and now - start + (now - t0) > seconds:
            return


def median_op_seconds(run, name):
    times = [op.seconds for p in run.passes if not p["traced"]
             for op in p["ops"] if op.name == name]
    return statistics.median(times) if times else 0.0


def run_workload(args):
    import epsode
    import epsode.cli as cli
    import setup_probe

    env = environment()
    work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        setup, setup_kernels = ([], []) if args.trace else \
            measure_setup(workload.configs, SETUP_REPEATS)
        setup_probe.main(workload.configs)  # warm lazy imports in-process
        run = Run(workload, cli, work_dir, calibrate=not args.trace)
        tracer = Tracer() if args.trace else None

        def traced_pass():
            tracer.pass_id = len(run.passes)
            tracer.install(epsode)
            try:
                run.one_pass(tracer)
            finally:
                tracer.uninstall()

        # Every run compares at least two passes' CSV rows; untraced runs
        # also take the median of at least two pass times.
        if args.trace:
            repeat_within(args.seconds, lambda: (run.one_pass(), traced_pass()), 1)
        else:
            repeat_within(args.seconds, run.one_pass, 2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    walls = run.walls(traced=False)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "pass_walls": [p["wall"] for p in run.passes],
              "pass_calibrated": [p["calibrated"] for p in run.passes],
              "pass_kernels": [p["kernels"] for p in run.passes],
              "pass_traced": [p["traced"] for p in run.passes],
              "setup_samples": setup, "setup_kernels": setup_kernels,
              "failures": run.failures}
    absent = []
    if args.trace:
        layer, absent = tracer.metrics(len(run.walls(traced=True)))
        for name in CLI_OPS:
            layer[f"cli.{name}_s"] = median_op_seconds(run, name)
        layer["process.cpu_s"] = statistics.median(
            p["cpu"] for p in run.passes if not p["traced"])
        layer["trace.overhead_frac"] = (statistics.median(run.walls(True))
                                        / statistics.median(walls) - 1.0)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(layer.items())}
        record["missing_targets"] = sorted(tracer.missing)
        record["absent_metrics"] = absent
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        scaled = run.walls(traced=False, key="calibrated")
        values = {"wall_s": statistics.median(scaled),
                  "setup_s": statistics.median(
                      calibrated(t, setup_kernels[i:i + 2])
                      for i, t in enumerate(setup)),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    record["metrics"] = metrics
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    for msg in run.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {len(run.passes)} passes, "
          f"{run.attempted} subcommand calls")
    if args.trace:
        for k, m in metrics.items():
            print(f"{k:40s} {m['value']:.6g} {m['unit']}")
        if absent:
            print("absent per-layer metrics: " + ", ".join(absent))
    else:
        print(f"wall_s      {metrics['wall_s']['value']:.4f} s   median of "
              f"{len(walls)} passes, calibrated (raw median "
              f"{statistics.median(walls):.4f}, min {min(walls):.4f}, "
              f"max {max(walls):.4f})")
        print(f"setup_s     {metrics['setup_s']['value']:.4f} s   median of "
              f"{len(setup)} fresh interpreters, calibrated (raw median "
              f"{statistics.median(setup):.4f})")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB  1 process")
    print(f"fail_frac   {run.failed / run.attempted:.4g} ratio  "
          f"{run.failed} of {run.attempted} subcommand calls")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one summary row each."""
    code = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        rows.append((name, result))
    for name, result in rows:
        cells = "" if args.trace else "  ".join(
            f"{k} {m['value']:.4g} {m['unit']}"
            for k, m in result["metrics"].items())
        print(f"{name:13s} {cells}  fail_frac "
              f"{result['failed'] / result['attempted']:.4g} "
              f"({result['failed']}/{result['attempted']})")
    print(json.dumps({name: result for name, result in rows}))
    return code


def main(argv):
    args = parse_args(argv)
    if not (SRC / "epsode" / "cli.py").is_file():
        print(f"perfbench: no epsode sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(["all", *WORKLOADS]), file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
