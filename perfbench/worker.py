"""One benchmark process: set up, run a workload's job, report.

Started by ``run.py`` as ``python3 worker.py SPEC_JSON``; every repetition
is a fresh interpreter, so tsrk's in-process caches start empty as they do
for a CLI user.  Modes:

rep    set up, run the job, report times, memory, op results (and, when
       traced, per-layer metrics; spans are written to the trace path)
setup  set up only, report the set-up time
fill   build the disk references of the given problems (the warm cache)

Times use CLOCK_MONOTONIC, which the orchestrator shares, so the set-up
time includes interpreter start from the moment the process was spawned.
They are reported at a fixed host speed: ``speed.Sampler`` probes the
speed while the worker runs, and ``raw_*`` keep the times as measured.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import json
import os
import platform
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads
from tracer import Tracer, instrument, layer_metrics


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    t0 = now()
    import tsrk
    import tsrk.cli
    import_s = now() - t0
    if not Path(tsrk.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported tsrk from {tsrk.__file__}, not from {src}")
    if spec["mode"] == "fill":
        return _fill(spec)
    # Started after tsrk's imports, so that its own imports of numpy and
    # scipy never stand in for tsrk's; its set-up time is not counted.
    sampler = speed.Sampler()
    sampler.start()
    try:
        return _measure(spec, sampler, import_s)
    finally:
        sampler.stop()


def _measure(spec, sampler, import_s):
    import tsrk
    job, _, warm = workloads.WORKLOADS[spec["workload"]]
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        instrument(tracer)

    def setup():
        for name in warm:
            tsrk.problems.PROBLEMS[name]().reference()

    _in_span(tracer, "bench.setup", setup)
    t_setup = now()
    phase = sampler.phase(spec["t_spawn"], t_setup)
    result = {"setup_s": phase["busy_s"] / phase["slowdown"],
              "raw_setup_s": t_setup - spec["t_spawn"]}
    if spec["mode"] == "rep":
        result.update(_rep(spec, job, tracer, sampler, t_setup, import_s))
        result["env"] = environment()
    _write(spec["result"], result)
    return 0


def _in_span(tracer, name, fn):
    return fn() if tracer is None else tracer.run(name, fn)


def _rep(spec, job, tracer, sampler, t_setup, import_s):
    import tsrk.cli
    ops = []
    out_dir = Path(spec["out_dir"])

    def call(argv, out):
        argv = argv + ["--out", str(out)]
        op = {"argv": argv, "out": str(out), "code": None, "error": None}
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                op["code"] = tsrk.cli.main(argv)
            except SystemExit as exc:
                op["code"] = exc.code
            except Exception:
                op["error"] = traceback.format_exc(limit=3)
        op["stdout"], op["stderr"] = stdout.getvalue(), stderr.getvalue()
        if argv[0] in ("run", "convergence") and op["code"] == 0:
            op["rows"] = _csv_rows(out)  # the hunt decides on the row it wrote
        ops.append(op)
        return op

    _in_span(tracer, "bench.job", lambda: job(spec["seed"], call,
                                              lambda name: out_dir / f"{name}.csv"))
    t_job = now()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sampler.stop()
    job_phase = sampler.phase(t_setup, t_job)
    whole = sampler.phase(spec["t_spawn"], t_job)
    rep = {
        "wall_s": job_phase["busy_s"] / job_phase["slowdown"],
        "cpu_s": (usage.ru_utime + usage.ru_stime - whole["idle_s"]) / whole["slowdown"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "raw_wall_s": t_job - t_setup,
        "slowdown": job_phase["slowdown"],
        "probes": job_phase["probes"],
    }
    csv_bytes = sum(os.path.getsize(op["out"]) for op in ops if os.path.exists(op["out"]))
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, import_s, csv_bytes)
        tracer.dump(spec["trace_path"], {"workload": spec["workload"], "seed": spec["seed"]})
    for op in ops:
        _collect(op)
    rep["ops"] = ops
    return rep


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _collect(op):
    """Add what the gate needs from the command's output (after timing)."""
    import tsrk.problems
    argv, out = op["argv"], op.pop("out")
    text = op.pop("stdout")
    op["stderr"] = op["stderr"][-500:]
    if op["code"] != 0:
        return
    command = argv[0]
    if command in ("run", "convergence"):
        problem = argv[argv.index("--problem") + 1]
        op["reference_estimate"] = tsrk.problems.PROBLEMS[problem]().reference().estimate
    elif command == "table":
        op["rows"] = _csv_rows(out)
    elif "real-scan" in argv:
        match = re.search(r"measured stable length ([-+0-9.eE]+)", text)
        mu, mar = [], []
        for row in _csv_rows(out):
            mu.append(float(row[0]))
            mar.append(float(row[1]))
        op["scan"] = {
            "rows": len(mu),
            "stable_length": float(match.group(1)) if match else None,
            "mu_first": mu[0] if mu else None,
            "mu_last": mu[-1] if mu else None,
            "max": max(mar, default=None),
            "mean": sum(mar) / len(mar) if mar else None,
        }
    else:
        match = re.search(r"(\d+) of (\d+) grid points inside", text)
        rows = _csv_rows(out)
        op["domain"] = {
            "rows": len(rows),
            "inside": sum(1 for r in rows if r[2] == "1"),
            "printed_inside": int(match.group(1)) if match else None,
        }


def _fill(spec):
    import tsrk.problems
    start = now()
    for name in spec["problems"]:
        tsrk.problems.PROBLEMS[name]().reference()
    _write(spec["result"], {"fill_s": now() - start})
    return 0


def _blas():
    """OpenBLAS libraries loaded by numpy/scipy with their thread counts."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
