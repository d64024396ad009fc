"""Tests of the benchmark itself: tracer arithmetic, the gate, metric names.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import workloads
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def busy(dt):
        return lambda *args: clock.advance(dt)

    rhs = tracer.wrap(busy(1.0), "problems.rhs")

    def _step():
        clock.advance(0.5)
        rhs()
        rhs()

    step = tracer.wrap(_step, "integrator.step")
    cheb = tracer.wrap(busy(2.0), "chebyshev.cheb_t_derivs")

    def _solve():
        clock.advance(3.0)
        cheb()

    solve = tracer.wrap(_solve, "design.solve_damping", span=True)

    def _job():
        solve()
        step()
        step()
        clock.advance(0.25)

    tracer.run("bench.job", _job)

    # job 0.25 self; solve 5 = 3 self + 2 cheb; two steps of 0.5 self + 2 rhs.
    assert tracer.stats["bench.job"] == [1, 10.25, 0.25]
    assert tracer.stats["design.solve_damping"] == [1, 5.0, 3.0]
    assert tracer.stats["chebyshev.cheb_t_derivs"] == [1, 2.0, 2.0]
    assert tracer.stats["integrator.step"] == [2, 5.0, 1.0]
    assert tracer.stats["problems.rhs"] == [4, 4.0, 4.0]
    assert tracer.layer_self() == {"bench": 0.25, "design": 3.0, "chebyshev": 2.0,
                                   "integrator": 1.0, "problems": 4.0}
    assert sum(tracer.layer_self().values()) == 10.25
    # Spans only for span-mode names, each pointing at its parent span.
    assert [(name, start, end, parent) for name, start, end, parent in tracer.spans] == [
        ("bench.job", 0.0, 10.25, None), ("design.solve_damping", 0.0, 5.0, 0)]
    assert tracer.by_parent["problems.rhs", "integrator.step"] == 4
    assert tracer.by_parent["chebyshev.cheb_t_derivs", "design.solve_damping"] == 1

    m = layer_metrics(tracer, import_s=0.1, csv_bytes=0)
    assert m["integrator.stage_evals"] == 4
    assert m["integrator.step_self_s"] == 1.0
    assert m["integrator.us_per_stage_eval"] == 1e6 * 5.0 / 4
    assert m["design.solve_damping_s"] == 5.0
    assert m["trace.unaccounted_s"] == 0.25


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def _fail():
        clock.advance(1.0)
        raise RuntimeError("blow-up")

    fail = tracer.wrap(_fail, "integrator.integrate", span=True)

    def _job():
        with pytest.raises(RuntimeError):
            fail()
        clock.advance(2.0)

    tracer.run("bench.job", _job)
    assert tracer.stats["integrator.integrate"] == [1, 1.0, 1.0]
    assert tracer.stats["bench.job"] == [1, 3.0, 2.0]
    assert tracer.stack == []


def test_sampler_reports_phase_time_at_reference_speed():
    ref = speed.REFERENCE_S
    sampler = speed.Sampler()
    # Twice as slow for the first probe, as fast as the reference for the
    # second; the third falls outside the phase.
    # The sampler's own set-up is idle time too.
    sampler.samples = [(1.0, 2 * ref), (1.5, ref), (5.0, ref)]
    sampler.overhead = [(0.5, 0.1)]
    phase = sampler.phase(0.0, 2.0)
    assert phase["probes"] == 2
    assert phase["busy_s"] == pytest.approx(2.0 - 3 * ref - 0.1)
    assert phase["slowdown"] == pytest.approx(1 / 0.75)
    # A phase without a probe in it takes some.
    assert sampler.phase(3.0, 3.01)["probes"] == speed.MIN_PROBES
    assert len(sampler.samples) == 3 + speed.MIN_PROBES


def burgers_ops(seed):
    k = workloads.BURGERS_K[workloads.member(seed)]
    s_min, err = workloads.BURGERS_PIN[k]
    ops = []
    for s in range(s_min - workloads.BURGERS_UNSTABLE_ATTEMPTS, s_min + 1):
        cell = "unstable" if s < s_min else repr(err)
        op = {"argv": ["run"], "code": 0, "error": None,
              "rows": [[repr(2.5 / k), str(s), cell, "1", "10"]]}
        if s == s_min:
            op["reference_estimate"] = workloads.BURGERS_REF_ESTIMATE
        ops.append(op)
    return ops


@pytest.mark.parametrize("seed", range(workloads.FAMILY))
def test_gate_accepts_expected_unstable_rows(seed):
    assert workloads.gate("burgers_hunt", seed, burgers_ops(seed)) == (6, 0, [])


def test_gate_flags_perturbed_burgers_results():
    ops = burgers_ops(0)
    ops[-1]["rows"][0][2] = repr(0.022520721352247502 * 1.001)
    attempted, failed, reasons = workloads.gate("burgers_hunt", 0, ops)
    assert (attempted, failed) == (6, 1) and "endpoint error" in reasons[0]

    ops = burgers_ops(0)
    ops[2]["rows"][0][2] = "0.0225"  # stable before the pinned minimal s
    assert workloads.gate("burgers_hunt", 0, ops[:3])[:2] == (3, 1)

    ops = burgers_ops(0)
    ops[-1].update(code=4)
    assert workloads.gate("burgers_hunt", 0, ops)[:2] == (6, 1)

    ops = burgers_ops(0)
    ops[0].update(code=None, error="Traceback ... ValueError")
    assert workloads.gate("burgers_hunt", 0, ops[:1])[:2] == (1, 1)

    # A hunt that stopped without an error still misses its stable row.
    assert workloads.gate("burgers_hunt", 0, burgers_ops(0)[:5])[:2] == (6, 1)


def rober_op(seed):
    k = workloads.ROBER_K[workloads.member(seed)]
    s_used, errors = workloads.ROBER_PIN[k]
    rows = [[repr(1000.0 / k / 2**j), str(s_used[j]), repr(errors[j]),
             str(k * 2**j - 1), "1"] for j in range(4)]
    return {"argv": ["convergence"], "code": 0, "error": None, "rows": rows,
            "reference_estimate": workloads.ROBER_REF_ESTIMATE}


@pytest.mark.parametrize("seed", range(workloads.FAMILY))
def test_gate_accepts_pinned_rober_sweeps(seed):
    for name in ("rober_sweep", "rober_cold"):
        assert workloads.gate(name, seed, [rober_op(seed)]) == (1, 0, [])


def test_gate_flags_perturbed_rober_results():
    op = rober_op(0)
    op["rows"][3][2] = repr(float(op["rows"][3][2]) * (1 + 1e-4))
    assert workloads.gate("rober_sweep", 0, [op])[:2] == (1, 1)

    op = rober_op(0)
    op["rows"][1][1] = "165"
    assert workloads.gate("rober_sweep", 0, [op])[:2] == (1, 1)

    op = rober_op(0)
    op["reference_estimate"] = 1e-7  # not 100x below the smallest error
    assert workloads.gate("rober_sweep", 0, [op])[:2] == (1, 1)

    assert workloads.gate("rober_sweep", 0, [])[:2] == (1, 1)


def design_ops(seed):
    m = workloads.member(seed)
    table = {"argv": ["table"], "code": 0, "error": None, "rows": [
        [str(s), c, l, r, ""] for s, (c, l, r) in workloads.PAPER_TABLE.items()]}
    scan = {"argv": ["stability"], "code": 0, "error": None, "scan": {
        "rows": workloads.SCAN_SAMPLES, "stable_length": 50.0, "mu_first": -50.0,
        "mu_last": 0.0, "max": 1.0, "mean": workloads.SCAN_PIN[workloads.SCAN_S[m]]}}
    inside = workloads.DOMAIN_PIN[workloads.DOMAIN_S[m]]
    domain = {"argv": ["stability"], "code": 0, "error": None, "domain": {
        "rows": 160000, "inside": inside, "printed_inside": inside}}
    return [table, scan, domain]


@pytest.mark.parametrize("seed", range(workloads.FAMILY))
def test_gate_accepts_pinned_design_outputs(seed):
    assert workloads.gate("design_scan", seed, design_ops(seed)) == (3, 0, [])


@pytest.mark.parametrize("op_index, path, value", [
    (0, ("rows", 1, 2), "47.6"),  # l_s off the paper's digits
    (1, ("scan", "stable_length"), 49.99),
    (1, ("scan", "mean"), 0.9504),
    (2, ("domain", "inside"), 52900),
])
def test_gate_flags_perturbed_design_outputs(op_index, path, value):
    ops = copy.deepcopy(design_ops(0))
    target = ops[op_index]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert workloads.gate("design_scan", 0, ops)[:2] == (3, 1)


def test_metric_names_match_benchmark_json():
    for kind in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[kind]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names), names
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    fake = run.Run.__new__(run.Run)
    fake.reps = {False: [{"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}], True: []}
    fake.setup_samples = [1.0]
    assert set(run.end_to_end(fake)) == {m["name"] for m in SPEC["end_to_end"]}

    fake.reps[True] = [{"wall_s": 1.0, "layers": layer_metrics(Tracer(), 0.0, 0)}]
    assert set(run.per_layer(fake, 0.0)) == {m["name"] for m in SPEC["per_layer"]}


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_instrumented_counts_match_the_run_result():
    """The hooks attach at this commit and count what integrate reports."""
    script = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tsrk
from tracer import Tracer, instrument
tracer = Tracer()
instrument(tracer)
problem = tsrk.problems.PROBLEMS["heat1d"]()
result = tsrk.integrate(tsrk.design_method(5), problem, 1e-3)
print(json.dumps({"missing": tracer.missing, "stage_evals": result.stage_evals,
                  "counted": tracer.by_parent["problems.rhs", "integrator.step"],
                  "starter_evals": result.starter_evals,
                  "reference_rhs": sum(n for (name, parent), n in tracer.by_parent.items()
                                       if name == "problems.rhs"
                                       and parent.startswith("reference.")),
                  "attempts": tracer.calls("integrator.integrate"),
                  "stable": tracer.counts["integrator.stable_attempts"]}))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    assert out["counted"] == out["stage_evals"] > 0
    assert out["reference_rhs"] == out["starter_evals"] > 0
    assert (out["attempts"], out["stable"]) == (1, 1)


def test_exits_nonzero_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design_scan",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
