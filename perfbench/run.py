"""jumprom benchmark: one workload, closed loop, timed from outside.

    python3 perfbench/run.py --workload gen_eval --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client issues each ``jumprom.cli.main`` command after the previous one
returns.  A pass is one full round of the workload's commands; passes
repeat until ``--seconds`` would be exceeded, with at least two, so that
the outputs of two passes can be compared byte for byte.

With ``--trace 0`` every pass is untraced and the last line of standard
output carries the end-to-end metrics.  With ``--trace 1`` passes
alternate untraced and traced (see tracing.py) and the last line carries
the per-layer metrics plus ``trace.overhead_s``, the traced minus the
untraced median pass time.  Lines above it are a readable report of every
metric with its unit; the full report, including the environment, is
written to ``perfbench/out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

# A plain single-threaded run: one BLAS thread, set before numpy loads.
# On a shared two-core machine threaded BLAS about doubled the run-to-run
# spread of the timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"   # declares the metrics of the last line
SETUP_SAMPLES = 5


def percentile_tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def timing(samples):
    return {"value": statistics.median(samples), "unit": "s", "n": len(samples),
            "tail": percentile_tail(samples)}


def measure_setup():
    """Seconds from starting a fresh interpreter to having the CLI imported."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import jumprom.cli"
    samples = []
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - t)
    return samples


def blas_threads():
    """Thread count of the loaded OpenBLAS, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)()
    return None


def environment(seed):
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = {"commit": None, "dirty": None}
    with contextlib.suppress(OSError):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if head.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True)
            git = {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git": git,
        "workload_seed": seed,
    }


def run_command(argv):
    """Issue one CLI command in this process; returns its exit code."""
    import jumprom.cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return jumprom.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return 1


def identical(ref, cur, groups):
    """One check per output group: every file byte-identical to the first pass."""
    checks = []
    for label, paths in groups:
        differing = [str(p) for p in paths
                     if not (cur / p).is_file() or not filecmp.cmp(ref / p, cur / p, shallow=False)]
        checks.append((f"{label} byte-identical to the first pass", not differing,
                       f"{len(paths)} files" + (f"; differ: {differing[:3]}" if differing else "")))
    return checks


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gen_eval", "scan_paper", "scan_high_l"))
    parser.add_argument("--seed", type=int, default=3,
                        help="workload seed: the lift seed of the generated data (default 3)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def run_passes(workload, ctx, work, seconds, tracer):
    """The closed loop.  Returns the passes, the checks on their outputs, the
    quality metrics of the first pass and the summaries of traced passes."""
    passes, checks, layer_passes, quality = [], [], [], {}
    ref = work / "pass_ref"
    t_measure = time.perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        t_iter = time.perf_counter()
        out = ref if k == 0 else work / "pass_cur"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        times, codes = {}, []
        if traced:
            tracer.install()
        try:
            t_pass = time.perf_counter()
            for label, argv in workload.commands(ctx, out):
                t = time.perf_counter()
                codes.append(tracer.span(f"bench.{label}", run_command, argv) if traced
                             else run_command(argv))
                times[label] = time.perf_counter() - t
            wall = time.perf_counter() - t_pass
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_passes.append((wall, *tracer.finish_pass(k)))
        try:
            if k == 0:
                quality, new_checks = workload.quality(ctx, out)
            else:
                new_checks = identical(ref, out, workload.reproducible_outputs(ref))
        except Exception as e:   # a missing or malformed output is a failed check
            traceback.print_exc()
            new_checks = [(f"evaluate the outputs of pass {k}", False, repr(e))]
        checks.extend(new_checks)
        passes.append({"traced": traced, "wall": wall, "times": times, "codes": codes,
                       "iteration": time.perf_counter() - t_iter})
        elapsed = time.perf_counter() - t_measure
        estimate = statistics.median(p["iteration"] for p in passes)
        if len(passes) >= 2 and elapsed + estimate > seconds:
            return passes, checks, quality, layer_passes


def end_to_end_metrics(passes, setup_samples, quality):
    untraced = [p for p in passes if not p["traced"]]
    metrics = {
        "setup_s": timing(setup_samples),
        "wall_s": timing([p["wall"] for p in untraced]),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    for label in untraced[0]["times"]:
        metrics[f"{label}_s"] = timing([p["times"][label] for p in untraced])
    for name, (value, unit) in quality.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer_metrics(layer_passes, untraced_wall):
    """Medians over the traced passes, plus the tracing overhead."""
    from tracing import layer_unit

    metrics = {}
    for name in layer_passes[0][1]:
        # counts repeat exactly from pass to pass; keep them whole numbers
        middle = statistics.median_low if layer_unit(name) in ("count", "B") else statistics.median
        metrics[name] = middle(m[name] for _, m, _ in layer_passes)
    metrics["trace.overhead_s"] = statistics.median(w for w, _, _ in layer_passes) - untraced_wall
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "jumprom" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"error: {ROOT} is not a jumprom checkout (need src/jumprom and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text())
    sys.path.insert(0, str(SRC))
    setup_samples = measure_setup()

    import jumprom

    if Path(jumprom.__file__).resolve().parent != SRC / "jumprom":
        print(f"error: imported jumprom from {jumprom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import TINY, WORKLOADS

    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    work = HERE / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log_handler = logging.FileHandler(work / "cli.log", mode="w")
    log_handler.setFormatter(logging.Formatter("%(message)s"))
    root_logger = logging.getLogger()
    root_logger.addHandler(log_handler)
    root_logger.setLevel(logging.INFO)
    logging.captureWarnings(True)
    try:
        t = time.perf_counter()
        ctx = workload.prepare(work, args.seed)
        fixture_s = time.perf_counter() - t
        tracer = Tracer(f"{args.workload}-seed{args.seed}", work / "spans.csv") if args.trace else None
        setup_main_s = time.perf_counter() - T_START
        passes, checks, quality, layer_passes = run_passes(workload, ctx, work, args.seconds, tracer)
    finally:
        root_logger.removeHandler(log_handler)
        log_handler.close()
        for name in ("pass_ref", "pass_cur", "fixture"):
            shutil.rmtree(work / name, ignore_errors=True)

    end_to_end = end_to_end_metrics(passes, setup_samples, quality)
    per_layer, cells = {}, None
    if layer_passes:
        per_layer = per_layer_metrics(layer_passes, end_to_end["wall_s"]["value"])
        checks.extend(trace_checks(layer_passes, per_layer["trace.overhead_s"]))
        samples = [d for _, _, detail in layer_passes for d in detail["cell_s"]]
        cells = {"n": len(samples), "tail": percentile_tail(samples)}

    counted = [ok for _, ok, _ in checks if ok is not None]
    codes = [c for p in passes for c in p["codes"]]
    failed = sum(c != 0 for c in codes) + counted.count(False)
    attempted = len(codes) + len(counted)
    end_to_end["ops_failed_frac"] = {"value": failed / attempted, "unit": "1"}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "fixture_s": fixture_s,
        "setup_main_s": setup_main_s,
        "environment": environment(args.seed),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "run_pipeline_cells": cells,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print_report(result)

    values = per_layer if args.trace else {name: m["value"] for name, m in end_to_end.items()}
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_checks(layer_passes, overhead):
    """Counted against computed work, and span coverage of each traced pass."""
    checks = []
    for wall, metrics, detail in layer_passes:
        got, want = detail["fixed_rk4_row_calls"], detail["fixed_rk4_row_calls_expected"]
        checks.append(("fixed_rk4 build_library_row calls == 4*substeps*(T-1) summed",
                       got == want, f"{got} counted, {want} computed"))
        for l, (counted, computed) in sorted(detail["kron_dims"].items()):
            checks.append((f"kron dim at {l} == term_count(l)*l", counted == computed,
                           f"{counted} counted, {computed} computed"))
        gap = wall - detail["self_s_sum"]
        checks.append(("self times of all spans sum to the traced pass wall time",
                       abs(gap) <= max(abs(overhead), 1e-3),
                       f"gap {gap:.2e} s, trace overhead {overhead:.3f} s"))
    return checks


def _samples_text(n, tail):
    return f"n={n}" + (f", p{tail[0]}={tail[1]:.6g} s" if tail else ", no tail (<11 samples)")


def print_report(result):
    from tracing import layer_unit

    print(f"# jumprom benchmark  workload={result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  passes={result['passes']}  "
          f"fixture_s={result['fixture_s']:.3f}  setup_main_s={result['setup_main_s']:.3f}")
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    for name, m in result["end_to_end"].items():
        extra = f"  median, {_samples_text(m['n'], m['tail'])}" if "n" in m else ""
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']}{extra}")
    for name, value in sorted(result["per_layer"].items()):
        print(f"  {name:<46} {value:>14.6g} {layer_unit(name)}")
    cells = result["run_pipeline_cells"]
    if cells:
        print(f"  pipeline.run_pipeline.s per cell: {_samples_text(cells['n'], cells['tail'])}")
    for c in result["checks"]:
        status = {True: "ok  ", False: "FAIL", None: "n/a "}[c["ok"]]
        print(f"  [{status}] {c['name']}: {c['detail']}")


if __name__ == "__main__":
    sys.exit(main())
