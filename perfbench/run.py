"""tsrk benchmark: time certified experiments end to end, or trace their layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's job again and again, each time in a fresh worker
process (``worker.py``), until ``--seconds`` have passed, one process at a
time.  Every run's outputs go through the workload's correctness gate.

--trace 0  prints the end-to-end metrics: wall_s (the job after set-up),
           cpu_s (user + system of the whole process), setup_s (spawn,
           interpreter start, ``import tsrk``, problem construction and cache
           loads), peak_rss_mb; each the median over the runs.  Times are
           given at a fixed host speed, sampled while each worker runs
           (``speed.py``); the raw wall time and the slowdown are printed.
--trace 1  alternates untraced and traced runs and prints the per-layer
           metrics of the traced ones (medians), the tracing overhead and
           the wall time no layer accounts for.  Warm workloads also rebuild
           their disk references once and report it as reference.fill_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed / attempted
is the failed-operations ratio.  Lines before it give each metric with
unit and sample count, the environment and any gate failures.

State lives under ``.bench_build/perfbench`` in the checkout: the warm
reference cache (filled once by the code under test, keyed by a hash of
``src/``), per-run cache copies, CSV outputs and the trace files.
"""
from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".bench_build" / "perfbench"
WORKER_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5
# One BLAS thread: on a shared two-core machine two OpenBLAS threads in
# lu_factor made the Burgers wall time spread by about 20 % between runs,
# against about 3 % with one.  A change that adds threads of its own still
# shows in cpu_s.
BLAS_THREADS = 1

def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def source_hash() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def worker_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["TSRK_CACHE_DIR"] = str(cache_dir)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def spawn(spec: dict, cache_dir: Path) -> dict:
    """Run one worker to completion and return its report."""
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    spec["t_spawn"] = now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=worker_env(cache_dir), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker ({spec['mode']}) exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(result_path.read_text())


def fill(problems, cache_dir: Path, work_dir: Path) -> float:
    cache_dir.mkdir(parents=True, exist_ok=True)
    report = spawn({"root": str(ROOT), "mode": "fill", "problems": list(problems),
                    "result": str(work_dir / "fill.json")}, cache_dir)
    return report["fill_s"]


def warm_cache(work_dir: Path) -> Path:
    """The checkout's warm reference cache, filled once by the code under test.

    It holds every problem some workload needs warm and is keyed by the
    source hash, so a change to ``src/`` never reads an older fill.
    """
    needed = sorted({p for _, _, warm in workloads.WORKLOADS.values() for p in warm})
    master = STATE / f"warm-{source_hash()[:16]}"
    with open(STATE / "warm.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (master / "complete").exists():
            shutil.rmtree(master, ignore_errors=True)
            fill_s = fill(needed, master / "cache", work_dir)
            (master / "complete").write_text(json.dumps({"fill_s": fill_s}))
    return master / "cache"


class Run:
    """Repetitions of one workload in one invocation."""

    def __init__(self, args, work_dir: Path):
        self.args = args
        self.work_dir = work_dir
        self.out_dir = work_dir / "out"
        self.out_dir.mkdir()
        self.reps = {False: [], True: []}
        self.setup_samples = []
        self.attempted = self.failed = 0
        self.failures = []
        self.env = None

    def spec(self, mode, trace=False):
        return {"root": str(ROOT), "mode": mode, "workload": self.args.workload,
                "seed": self.args.seed, "trace": trace, "out_dir": str(self.out_dir),
                "result": str(self.work_dir / "result.json"),
                "trace_path": str(STATE / f"trace-{self.args.workload}.json")}

    def rep(self, cache_dir: Path, trace: bool):
        report = spawn(self.spec("rep", trace), cache_dir)
        attempted, failed, reasons = workloads.gate(self.args.workload, self.args.seed,
                                                    report["ops"])
        self.attempted += attempted
        self.failed += failed
        self.failures += reasons
        self.setup_samples.append(report["setup_s"])
        self.reps[trace].append(report)
        self.env = self.env or report["env"]

    def setup_only(self, cache_dir: Path):
        self.setup_samples.append(spawn(self.spec("setup"), cache_dir)["setup_s"])


def measure(args, work_dir: Path):
    _, _, warm = workloads.WORKLOADS[args.workload]
    run = Run(args, work_dir)
    fill_s = 0.0
    cache = work_dir / "cache" if warm else None
    if warm and args.trace:
        fill_s = fill(warm, cache, work_dir)
    elif warm:
        shutil.copytree(warm_cache(work_dir), cache)

    def fresh_cache():
        """Own empty cache directory for every run of a cold workload."""
        return Path(tempfile.mkdtemp(prefix="cache-", dir=work_dir))

    start = now()
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            run.rep(cache or fresh_cache(), trace)
        if now() - start >= args.seconds:
            break
    while len(run.setup_samples) < MIN_SETUP_SAMPLES:
        run.setup_only(cache or fresh_cache())
    return run, fill_s


def end_to_end(run):
    reps = run.reps[False]
    metrics = {name: [r[name] for r in reps] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = run.setup_samples
    return metrics


def per_layer(run, fill_s):
    traced = run.reps[True]
    names = traced[0]["layers"].keys()
    samples = {name: [r["layers"][name] for r in traced] for name in names}
    samples["reference.fill_s"] = [fill_s]
    samples["trace.overhead_s"] = [statistics.median([r["wall_s"] for r in traced])
                                   - statistics.median([r["wall_s"] for r in run.reps[False]])]
    return samples


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(args, run, samples, units, env):
    print(f"workload {args.workload} seed {args.seed} "
          f"({workloads.describe(args.workload, args.seed)}), "
          f"{len(run.reps[False])} untraced + {len(run.reps[True])} traced runs")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value:14.6g} {unit:6s} median of n={len(values)}"
              f" (min {min(values):.6g}, max {max(values):.6g})")
    untraced = run.reps[False]
    for name, unit in (("raw_wall_s", "s"), ("slowdown", "x")):
        values = [r[name] for r in untraced]
        print(f"  {name:34s} {statistics.median(values):14.6g} {unit:6s} median of "
              f"n={len(values)} (min {min(values):.6g}, max {max(values):.6g})")
    ratio = run.failed / run.attempted if run.attempted else float("nan")
    print(f"  {'failed_ops_ratio':34s} {ratio:14.6g} {'':6s} "
          f"{run.failed} failed of {run.attempted} operations")
    for reason in run.failures[:20]:
        print(f"  gate: {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tsrk" / "__init__.py").is_file():
        print(f"error: no tsrk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    STATE.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        run, fill_s = measure(args, work_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = dict(run.env, git_sha=git_sha(), src_sha256=source_hash(),
               workload=args.workload, seed=args.seed, seconds=args.seconds)
    if args.trace:
        report(args, run, per_layer(run, fill_s), declared("per_layer"), env)
    else:
        report(args, run, end_to_end(run), declared("end_to_end"), env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
