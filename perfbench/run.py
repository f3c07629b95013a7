"""Benchmark for trivisit: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The library is imported from ./src,
never from an installed copy; without ./src the run exits non-zero and
prints no result.

``--trace 0`` runs the workload's closed loop (one client, the next call
only after the previous returns) for ``--seconds`` of wall time, and prints
the end-to-end metrics.  ``setup_s`` is the median over
SETUP_PROBES fresh processes of the time from process start to ready
(imports plus one warm-up call into each layer the workload uses).
Times are scaled to a fixed reference speed of the host (see calibrate.py);
the raw figures are printed beside them.  The end-to-end ``sweep`` runs on
one thread (TRIVISIT_THREADS=1), the traced one on the library's default
pool.

``--trace 1`` runs a fixed number of inputs, each once untraced and once
traced, and prints the per-layer metrics computed from
the span file ``.perfbench/spans-<workload>.jsonl`` (see tracing.py).

Every output is checked outside the timed calls.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import calibrate
from tracing import PER_LAYER, Tracer, per_layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"

END_TO_END = (
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = {"full": 7, "tiny": 1}
# Throughput is the median over blocks of this many consecutive operations
# (one pair sweep, one map, about 0.1 s of eval or 0.2 s of certify calls),
# so that a burst of load from elsewhere on the machine moves a few blocks,
# not the result.
BLOCK_OPS = {"sweep": 1, "raster": 1, "eval": 100, "certify": 5}
# Operations per pass of a traced run.  Fixed, so that per-layer counts
# repeat exactly for a given seed.
TRACE_OPS = {
    "full": {"sweep": 3, "raster": 6, "eval": 2000, "certify": 60},
    "tiny": {"sweep": 1, "raster": 3, "eval": 40, "certify": 4},
}
# Short module names, used as layer names, and the modules they stand for.
LIB_MODULES = {
    "geom_core": "geom_core",
    "visitation": "visitation",
    "fleet_costs": "fleet_costs",
    "kernels": "_kernels",
    "oracle": "oracle",
    "regions": "regions",
    "tradeoffs": "tradeoffs",
    "cli": "cli",
}
MAX_TRACEBACKS = 3


def import_library() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "trivisit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no trivisit sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"trivisit.{mod}") for name, mod in LIB_MODULES.items()}
    if Path(mods["cli"].__file__).resolve().parent != src / "trivisit":
        sys.exit(f"perfbench: imported trivisit from {mods['cli'].__file__}, not from {src}")
    return SimpleNamespace(**mods)


@dataclass
class Tally:
    latencies: array = field(default_factory=lambda: array("d"))
    work_per_op: array = field(default_factory=lambda: array("d"))
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    defect: int = 0
    work: float = 0.0
    tracebacks: int = 0


def run_op(wl, k: int, tally: Tally, tracer: Tracer | None = None) -> None:
    """One timed call on input ``k``, traced when ``tracer`` is given, then
    its check."""
    x = wl.input(k)
    result = error = None
    if tracer is not None:
        tracer.op = k
        tracer.install()
    try:
        start = perf_counter()
        try:
            result = wl.call(x)
        except Exception as exc:  # judged by the workload's check below
            error = exc
        elapsed = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome = wl.check(x, result, error)
    if outcome.failed and error is not None and tally.tracebacks < MAX_TRACEBACKS:
        tally.tracebacks += 1
        traceback.print_exception(error, file=sys.stderr)
    tally.latencies.append(elapsed)
    tally.work_per_op.append(outcome.work)
    tally.busy += elapsed
    tally.attempted += outcome.attempted
    tally.failed += outcome.failed
    tally.defect += outcome.defect
    tally.work += outcome.work


def run_ops(wl, tally: Tally, seconds: float) -> array:
    """Closed loop for ``seconds`` of wall time (calls, their checks and the
    reference-loop timings), then the call under way is finished.  Returns
    each call's time at the reference speed (see calibrate.py)."""
    end = perf_counter() + seconds
    marks = [(0, calibrate.loop_time())]
    last = perf_counter()
    k = 0
    while k == 0 or perf_counter() < end:
        run_op(wl, k, tally)
        k += 1
        if perf_counter() - last >= calibrate.EVERY_S:
            marks.append((k, calibrate.loop_time()))
            last = perf_counter()
    if marks[-1][0] != k:
        marks.append((k, calibrate.loop_time()))
    return calibrate.at_reference(tally.latencies, marks)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Start-to-ready times of fresh processes that import and warm up, raw
    and at the reference speed (from loop timings just before and after
    each process).  They inherit this process's environment, and with it
    the TRIVISIT_THREADS setting of the end-to-end run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    times, scaled = [], []
    for _ in range(SETUP_PROBES[args.size]):
        before = calibrate.loop_time()
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, first line {line!r})")
        times.append(ready - start)
        scaled.append(times[-1] * calibrate.REFERENCE_S / ((before + calibrate.loop_time()) / 2.0))
    return times, scaled


def sweep_threads(lib) -> str:
    resolve = getattr(lib.tradeoffs, "_thread_count", None)
    return str(resolve()) if resolve is not None else "no pool"


def print_metrics(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def block_throughput(work_per_op, latencies, size: int) -> tuple[float, int]:
    """Median over complete blocks of ``size`` operations of work per call
    second, and the number of blocks (the whole run when it is shorter)."""
    rates = [
        sum(work_per_op[i:i + size]) / sum(latencies[i:i + size])
        for i in range(0, len(latencies) - size + 1, size)
    ]
    if not rates:
        return sum(work_per_op) / sum(latencies), 1
    return statistics.median(rates), len(rates)


def end_to_end(wl, args, setup: tuple[list[float], list[float]]) -> tuple[Tally, dict]:
    """Times are reported at the reference speed (see calibrate.py); the raw
    figures are printed beside them."""
    tally = Tally()
    scaled = run_ops(wl, tally, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = np.asarray(scaled) * 1e3
    raw = np.asarray(tally.latencies) * 1e3
    p50, p90 = np.percentile(lat, [50, 90])
    beyond = int((lat > p90).sum())
    size = BLOCK_OPS[wl.name]
    throughput, blocks = block_throughput(tally.work_per_op, scaled, size)
    raw_throughput, _ = block_throughput(tally.work_per_op, tally.latencies, size)
    setup_raw, setup_scaled = setup
    values = {
        "throughput": throughput,
        "latency_p50_ms": float(p50),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "throughput": f"{wl.unit}/s, median of {blocks} blocks; raw {raw_throughput:.6g}, "
                      f"{tally.work / tally.busy:.6g} over all {tally.busy:.2f} s of calls",
        "latency_p50_ms": f"{len(lat)} operations; raw {np.percentile(raw, 50):.6g}",
        "setup_s": f"median of {len(setup_scaled)}; raw {statistics.median(setup_raw):.4g}: "
                   + " ".join(f"{t:.3f}" for t in setup_raw),
        "peak_rss_mb": "this process",
    }
    print_metrics((name, values[name], unit, notes[name]) for name, unit in END_TO_END)
    print_metrics([("latency_p90_ms", float(p90), "ms",
                    f"{len(lat)} operations, {beyond} beyond; raw {np.percentile(raw, 90):.6g}; not gated")])
    print(f"  host speed: raw / reference time {float(np.median(raw / lat)):.4g} (median over calls)")
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(wl, lib, args) -> tuple[Tally, dict]:
    ops = TRACE_OPS[args.size][wl.name]
    untraced, traced = Tally(), Tally()
    tracer = Tracer(lib)
    # Each input runs untraced and traced back to back, in alternating
    # order, so that drift in machine speed cancels in trace.overhead_frac.
    for k in range(ops):
        passes = ((untraced, None), (traced, tracer))
        for tally, tr in passes if k % 2 == 0 else passes[::-1]:
            run_op(wl, k, tally, tr)
    for name in tracer.missing:
        print(f"  not traced (missing): {name}")
    path = WORKDIR / f"spans-{wl.name}.jsonl"
    spans = tracer.write(path)
    attempted = untraced.attempted + traced.attempted
    props = {
        **wl.properties(),
        "check.fail_frac": (untraced.failed + traced.failed) / attempted,
        "check.known_defect_frac": (untraced.defect + traced.defect) / attempted,
    }
    values = per_layer_metrics(path, untraced.busy, traced.busy, props)
    print(f"  {ops} inputs, each run untraced ({untraced.busy:.3f} s in all) and traced ({traced.busy:.3f} s), "
          f"{spans} spans in {path.relative_to(ROOT)}")
    print_metrics((name, values[name], unit, "") for name, unit in PER_LAYER)
    total = Tally(attempted=attempted, failed=untraced.failed + traced.failed, defect=untraced.defect + traced.defect)
    return total, {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0, help="wall time of the closed loop with --trace 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("TRIVISIT_THREADS", None)
    threads = WORKLOADS[args.workload].end_to_end_threads
    if threads is not None and not args.trace:
        os.environ["TRIVISIT_THREADS"] = threads
    lib = import_library()
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](lib, args.seed, args.size == "tiny", str(workdir))
        if args.setup_probe:
            wl.warm_up()
            print("ready", flush=True)
            return 0
        setup = ([], []) if args.trace else measure_setup(args)
        wl.warm_up()
        print(f"workload {wl.name}  seed {args.seed}  size {args.size}  trace {args.trace}")
        print(f"  python {platform.python_version()}  numpy {np.__version__}  nproc {os.cpu_count()}  "
              f"sweep threads {sweep_threads(lib)}")
        if args.trace:
            tally, metrics = per_layer(wl, lib, args)
        else:
            tally, metrics = end_to_end(wl, args, setup)
        print(f"  fail_frac {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} "
              f"operations); known 1e-7-side rejections {tally.defect}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
