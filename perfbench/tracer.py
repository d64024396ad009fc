"""Layer tracing of tsrk from outside the package.

``instrument`` replaces public (and a few private) functions of the tsrk
modules with timing wrappers, in every tsrk namespace that holds them, so
no code under ``src/`` changes.  A traced name is ``<layer>.<function>``;
its prefix is the layer its time is charged to.

Coarse calls become spans (name, start, end, parent) kept in memory and
written out at exit.  Calls made more than about 10^4 times per run
(right-hand sides, trapezoidal steps, LU calls, stage steps) are aggregated
into a call count and a total time instead.  Either way a call's duration
is charged to the enclosing call, so that

    self time = duration - time covered by the calls made inside it

is exact for every traced name, and a layer's self time is the sum over
its names.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections import Counter

# (module, attribute, traced name, keep a span per call).  The benchmark's
# own root spans are "bench.setup" and "bench.job".
TARGETS = (
    ("chebyshev", "cheb_t_derivs", "chebyshev.cheb_t_derivs", False),
    ("design", "solve_damping", "design.solve_damping", True),
    ("design", "build_method", "design.build_method", True),
    ("design", "design_method", "design.design_method", True),
    ("design", "stability_length", "design.stability_length", False),
    ("design", "error_constant", "design.error_constant", False),
    ("design", "StabilityPair.char_polys", "stability.char_polys", False),
    ("design", "TwoStepMethod.char_polys", "stability.char_polys", False),
    ("stability", "_roots", "stability.roots", False),
    ("stability", "char_roots", "stability.char_roots", False),
    ("stability", "max_abs_root", "stability.max_abs_root", True),
    ("stability", "real_axis_scan", "stability.real_axis_scan", True),
    ("stability", "domain_sample", "stability.domain_sample", True),
    ("stability", "write_scan_csv", "cli.write_scan_csv", True),
    ("stability", "write_domain_csv", "cli.write_domain_csv", True),
    ("integrator", "integrate", "integrator.integrate", True),
    ("integrator", "step", "integrator.step", False),
    ("integrator", "select_stages", "integrator.select_stages", True),
    ("integrator", "estimate_spectral_radius",
     "integrator.estimate_spectral_radius", True),
    ("integrator", "starter_y1", "reference.starter_y1", True),
    ("reference", "reference_integrate", "reference.reference_integrate", True),
    ("reference", "richardson_validate", "reference.richardson_validate", True),
    ("reference", "_trap_step", "reference.trap_step", False),
    ("reference", "_fd_jacobian", "reference.fd_jacobian", False),
    ("reference", "lu_factor", "reference.lu_factor", False),
    ("reference", "lu_solve", "reference.lu_solve", False),
    ("cli", "main", "cli.main", True),
    ("cli", "_write_run_csv", "cli.write_run_csv", True),
)

MODULES = ("chebyshev", "design", "stability", "integrator", "reference", "problems", "cli")
PROBLEM_FACTORIES = ("vdpol", "rober", "hires", "burgers", "heat1d")

RHS = "problems.rhs"
JAC = "problems.jac"
STEP = "integrator.step"


class Tracer:
    """Call stack, per-name totals and spans of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames: [start, child_time, span_index, name]
        self.spans = []  # [name, start, end, parent span index or None]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.by_parent = Counter()  # (name, caller name) -> calls
        self.counts = Counter()  # counters derived from arguments and results
        self.missing = []  # targets absent from the code under test

    def wrap(self, fn, name, span=False, tally=None):
        """``fn`` timed as ``name``; ``tally(args, result, self_s)`` runs on return."""
        stack, spans, clock, by_parent = self.stack, self.spans, self.clock, self.by_parent
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent else None
            start = clock()
            if span:
                index = len(spans)
                spans.append([name, start, None, parent_span])
            else:
                index = parent_span
            frame = [start, 0.0, index, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s = duration - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += self_s
                if parent is not None:
                    parent[1] += duration
                    by_parent[name, parent[3]] += 1
                if span:
                    spans[index][2] = end
            if tally is not None:
                tally(args, result, self_s)
            return result

        traced.traced_name = name
        return traced

    def run(self, name, fn):
        """Call ``fn()`` inside a span named ``name`` (the benchmark's root spans)."""
        return self.wrap(fn, name, span=True)()

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, *names):
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def layer_self(self):
        """Self time per layer (the prefix of each traced name)."""
        out = Counter()
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return dict(out)

    def dump(self, path, extra=None):
        doc = {
            "spans": [dict(zip(("name", "start", "end", "parent"), s)) for s in self.spans],
            "totals": {n: dict(zip(("calls", "total_s", "self_s"), v))
                       for n, v in sorted(self.stats.items())},
            "calls_by_parent": [[n, p, c] for (n, p), c in sorted(self.by_parent.items())],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _replace_everywhere(modules, old, new):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if value is old:
                setattr(module, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


def _size(x):
    return int(getattr(x, "size", 1))


def instrument(tracer):
    """Wrap the tsrk functions in ``TARGETS`` plus problem models and the cache.

    Every tsrk module's namespace is patched, so names that were imported
    with ``from .x import y`` are traced too.
    """
    import tsrk
    tsrk_modules = {name: importlib.import_module(f"tsrk.{name}") for name in MODULES}
    modules = [tsrk, *tsrk_modules.values()]
    tallies = {
        "chebyshev.cheb_t_derivs": _tally_chebyshev(tracer),
        "design.solve_damping": _tally_solve(tracer),
        "stability.max_abs_root": _tally_points(tracer, "stability.points"),
        "stability.char_roots": _tally_points(tracer, "stability.points"),
        "integrator.integrate": _tally_count(tracer, "integrator.stable_attempts"),
        "reference.trap_step": _tally_newton(tracer),
    }
    for mod_name, attr, name, span in TARGETS:
        module = tsrk_modules.get(mod_name)
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = getattr(holder, leaf, None) if holder is not None else None
        if original is None:
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = tracer.wrap(original, name, span=span, tally=tallies.get(name))
        if owner:
            setattr(holder, leaf, wrapped)
        else:
            _replace_everywhere(modules, original, wrapped)

    problems = tsrk_modules["problems"]
    for attr, value in list(vars(problems).items()):
        if callable(value) and attr.startswith("_") and attr.endswith(("_rhs", "_jac")):
            name = RHS if attr.endswith("_rhs") else JAC
            _replace_everywhere(modules, value, tracer.wrap(value, name))
    for attr in PROBLEM_FACTORIES:
        factory = getattr(problems, attr, None)
        if factory is None:
            tracer.missing.append(f"problems.{attr}")
            continue
        _replace_everywhere(modules, factory,
                            tracer.wrap(_traced_models(tracer, factory),
                                        f"problems.{attr}", span=True))
    if hasattr(problems, "_cached"):
        _replace_everywhere(modules, problems._cached, _traced_cache(tracer, problems))
    else:
        tracer.missing.append("problems._cached")


def _traced_models(tracer, factory):
    """Factory whose problem calls a traced rhs and jac (closures included)."""

    def make(*args, **kwargs):
        problem = factory(*args, **kwargs)
        changes = {}
        for field, name in (("rhs", RHS), ("jac", JAC)):
            fn = getattr(problem, field, None)
            if fn is not None and not hasattr(fn, "traced_name"):
                changes[field] = tracer.wrap(fn, name)
        return dataclasses.replace(problem, **changes) if changes else problem

    return make


def _traced_cache(tracer, problems):
    """``_cached(key, compute)`` with hits, misses, bytes and read/write time.

    A call whose ``compute`` runs is a miss: its self time (the call minus
    the build) is the write.  Otherwise it is a hit and its time the read;
    a hit from disk (key not yet in the process's memory cache) also counts
    the record's bytes.
    """
    original = problems._cached
    state = {}

    def cached(key, compute):
        state["miss"] = False
        state["disk"] = key not in getattr(problems, "_memory_cache", {})

        def build():
            state["miss"] = True
            return compute()

        return original(key, tracer.wrap(build, "reference.build", span=True))

    def tally(args, record, self_s):
        counts = tracer.counts
        if state["miss"]:
            counts["problems.cache_misses"] += 1
            counts["problems.cache_write_s"] += self_s
        else:
            counts["problems.cache_hits"] += 1
            counts["problems.cache_read_s"] += self_s
        if state["miss"] or state["disk"]:
            counts["problems.cache_bytes"] += len(json.dumps(record))

    return tracer.wrap(cached, "problems.cache", span=True, tally=tally)


# Tallies read private signatures; when a later change alters one they count
# nothing rather than break the traced run.

def _tally_chebyshev(tracer):
    def tally(args, result, self_s):
        if len(args) >= 2:
            tracer.counts["chebyshev.points"] += _size(args[1])
            tracer.counts["chebyshev.s"] += int(args[0])
    return tally


def _tally_solve(tracer):
    def tally(args, solution, self_s):
        tracer.counts["design.newton_iters"] += int(getattr(solution, "iterations", 0))
    return tally


def _tally_newton(tracer):
    """Newton iterations of a trapezoidal step; a failed one is then halved."""
    def tally(args, result, self_s):
        report = result[-1] if isinstance(result, tuple) else None
        tracer.counts["reference.newton_iters"] += getattr(report, "newton_iters", 0)
        tracer.counts["reference.halvings"] += not getattr(report, "converged", True)
    return tally


def _tally_points(tracer, key):
    def tally(args, result, self_s):
        if len(args) >= 2:
            tracer.counts[key] += _size(args[1])
    return tally


def _tally_count(tracer, key):
    def tally(args, result, self_s):
        tracer.counts[key] += 1
    return tally


def layer_metrics(tracer, import_s, csv_bytes):
    """Per-layer metrics of one traced process (names as in BENCHMARK.json)."""
    c, total, calls = tracer.counts, tracer.total, tracer.calls
    stage_evals = tracer.by_parent[RHS, STEP]
    reference_names = {n for n in tracer.stats if n.startswith("reference.")}
    step_total = total(STEP)
    points = c["stability.points"]
    m = {
        "integrator.step_self_s": tracer.stats.get(STEP, (0, 0.0, 0.0))[2],
        "integrator.stage_evals": stage_evals,
        "integrator.us_per_stage_eval": 1e6 * step_total / stage_evals if stage_evals else 0.0,
        "integrator.select_s": total("integrator.select_stages",
                                     "integrator.estimate_spectral_radius"),
        "integrator.attempts": calls("integrator.integrate"),
        "integrator.stable_attempts": c["integrator.stable_attempts"],
        "reference.starter_s": total("reference.starter_y1"),
        "reference.starter_calls": calls("reference.starter_y1"),
        "reference.build_s": total("reference.build"),
        "reference.lu_factorizations": calls("reference.lu_factor"),
        "reference.lu_s": total("reference.lu_factor", "reference.lu_solve"),
        "reference.trap_steps": calls("reference.trap_step"),
        "reference.newton_iters": c["reference.newton_iters"],
        "reference.halvings": c["reference.halvings"],
        "reference.rhs_evals": sum(n for (name, parent), n in tracer.by_parent.items()
                                   if name == RHS and parent in reference_names),
        "reference.jac_s": total(JAC, "reference.fd_jacobian"),
        "problems.rhs_s": total(RHS),
        "problems.cache_hits": c["problems.cache_hits"],
        "problems.cache_misses": c["problems.cache_misses"],
        "problems.cache_read_s": float(c["problems.cache_read_s"]),
        "problems.cache_write_s": float(c["problems.cache_write_s"]),
        "problems.cache_bytes": c["problems.cache_bytes"],
        "design.solves": calls("design.solve_damping"),
        "design.newton_iters": c["design.newton_iters"],
        "design.solve_damping_s": total("design.solve_damping"),
        "design.build_method_s": total("design.build_method"),
        "chebyshev.calls": calls("chebyshev.cheb_t_derivs"),
        "chebyshev.points": c["chebyshev.points"],
        "chebyshev.s": c["chebyshev.s"],
        "stability.points": points,
        "stability.char_polys_s": total("stability.char_polys"),
        "stability.roots_s": total("stability.roots"),
        "stability.ns_per_point": (1e9 * total("stability.max_abs_root", "stability.char_roots")
                                   / points if points else 0.0),
        "cli.import_s": import_s,
        "cli.csv_write_s": total("cli.write_run_csv", "cli.write_scan_csv",
                                 "cli.write_domain_csv"),
        "cli.csv_bytes": csv_bytes,
    }
    selfs = tracer.layer_self()
    for layer in MODULES:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m["trace.unaccounted_s"] = selfs.get("bench", 0.0)
    return m
