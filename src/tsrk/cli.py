"""Command-line front end: design methods, scan stability, run experiments.

Commands
--------
genmethod    solve the damping system and write a method JSON file
table        error constants and stability lengths for a list of stage counts
stability    real-axis scan or complex domain sample, written as CSV
run          constant-step integrations of a registered problem
convergence  run with a halving sequence of step sizes

Exit codes: 0 success, 2 parameter error, 3 numerical failure,
4 reference-certification failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .design import (
    DEFAULT_EPS,
    DesignFailure,
    DesignInput,
    TwoStepMethod,
    build_damped_pair,
    build_method,
    build_undamped_pair,
    design_method,
    error_constant,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from .integrator import BlowUpError, CapacityError, estimate_spectral_radius, integrate, select_stages
from .problems import PROBLEMS
from .reference import ReferenceSolverError
from .stability import domain_sample, real_axis_scan, write_domain_csv, write_scan_csv

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATION = 4

TABLE_DEFAULT_S = (2, 5, 10, 20, 50, 100, 200, 500, 1000)


class CertificationError(RuntimeError):
    """A reference is not accurate enough for the experiment that used it."""


def _parse_s_list(text: str) -> list[int]:
    if not text.strip():
        return []
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_h_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def cmd_genmethod(args) -> int:
    sol = solve_damping(DesignInput(args.s, args.eps))
    method = build_method(sol)
    method.save(args.out)
    print(f"alpha = {sol.alpha!r}")
    print(f"omega = {sol.omega!r}")
    print(f"beta  = {sol.beta!r}")
    print(f"l_s   = {method.l_s:.4f}")
    print(f"C_s   = {method.err_const:.6f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = []
    for s in args.s_list:
        try:
            sol = solve_damping(DesignInput(s, args.eps))
            c_s = error_constant(build_damped_pair(sol))
            l_s = stability_length(sol)
            rows.append((s, repr(c_s), repr(l_s), repr(l_s / s**2), "",
                         repr(stable_interval_length(sol))))
        except (ValueError, DesignFailure) as exc:
            rows.append((s, "", "", "", str(exc), ""))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "err_const", "l_s", "l_s_over_s2", "error", "l_interval"])
        writer.writerows(rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return EXIT_OK


def cmd_stability(args) -> int:
    if args.method:
        pair = TwoStepMethod.load(args.method)
        label = f"method file {args.method}"
    elif args.undamped:
        pair = build_undamped_pair(args.s)
        label = f"undamped s={args.s}"
    else:
        pair = build_damped_pair(solve_damping(DesignInput(args.s, args.eps)))
        label = f"damped s={args.s}, eps={args.eps}"

    if args.mode == "real-scan":
        scan = real_axis_scan(pair, args.mu_min, args.samples)
        write_scan_csv(args.out, scan)
        print(f"{label}: measured stable length {scan.stable_length:.6f} "
              f"(grid cell {abs(args.mu_min) / (args.samples - 1):.3e})")
    else:
        dom = domain_sample(pair, args.re_min, args.im_max, args.resolution,
                            re_max=args.re_max)
        write_domain_csv(args.out, dom)
        inside = int(np.count_nonzero(dom.mask))
        print(f"{label}: {inside} of {dom.mask.size} grid points inside")
    print(f"wrote {args.out}")
    return EXIT_OK


def _config(args, required: tuple[str, ...]) -> dict:
    """Checked options: defaults, then config-file values, then passed flags."""
    keys = (*required, "s", "eps", "starter_substeps")
    cfg = {"s": "auto", "eps": DEFAULT_EPS, "starter_substeps": 64}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key in required:
        if key not in cfg:
            raise ValueError(f"missing required option: {key}")
    if cfg["problem"] not in PROBLEMS:
        raise ValueError(
            f"unknown problem {cfg['problem']!r}; registry: "
            f"{', '.join(sorted(PROBLEMS))}"
        )
    return cfg


def _auto_stages(problem, h: float, eps: float) -> int:
    rho = estimate_spectral_radius(problem)
    return select_stages(rho, h, eps)


def _run_sweep(problem, h_list, s_choice, eps, substeps):
    """One row per h: (h, s_used, error-or-'unstable', steps, fevals)."""
    rows = []
    finite_errors = []
    estimates = []
    for h in h_list:
        s_used = _auto_stages(problem, h, eps) if s_choice == "auto" else int(s_choice)
        method = design_method(s_used, eps)
        try:
            result = integrate(method, problem, h, starter_substeps=substeps)
        except BlowUpError as exc:
            rows.append((repr(h), s_used, "unstable", exc.steps_done,
                         exc.fevals))
            continue
        err = result.endpoint_error
        rows.append((repr(h), s_used,
                     "" if err is None else repr(err),
                     result.steps_taken,
                     result.stage_evals + result.starter_evals))
        if err is not None:
            finite_errors.append(err)
            estimates.append(result.reference_estimate)
    if finite_errors:
        worst_est = max(e for e in estimates if e is not None)
        smallest = min(finite_errors)
        if worst_est > smallest / 100.0:
            raise CertificationError(
                f"reference accuracy {worst_est:.3e} is not 100x below the "
                f"smallest observed error {smallest:.3e}; tighten the "
                f"reference step counts"
            )
    return rows


def _write_run_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "s_used", "endpoint_error", "steps", "fevals"])
        writer.writerows(rows)


def _sweep(cfg: dict, h_list) -> list:
    """Run the configured problem over ``h_list``, write the CSV, print its rows."""
    problem = PROBLEMS[cfg["problem"]]()
    rows = _run_sweep(problem, h_list, cfg["s"], float(cfg["eps"]),
                      int(cfg["starter_substeps"]))
    _write_run_csv(cfg["out"], rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return rows


def cmd_run(args) -> int:
    cfg = _config(args, ("problem", "h", "out"))
    h = cfg["h"]
    _sweep(cfg, h if isinstance(h, list) else _parse_h_list(str(h)))
    print(f"wrote {cfg['out']}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = _config(args, ("problem", "h0", "halvings", "out"))
    if int(cfg["halvings"]) < 1:
        raise ValueError("halvings must be >= 1")
    rows = _sweep(cfg, [float(cfg["h0"]) / 2**k for k in range(int(cfg["halvings"]) + 1)])
    # A ratio needs errors on both neighbouring rows; row i has step h0/2^i.
    errs = [None if r[2] in ("", "unstable") else float(r[2]) for r in rows]
    for i in range(1, len(errs)):
        if errs[i - 1] is not None and errs[i] is not None and errs[i] > 0:
            print(f"error ratio h/{2**i}: {errs[i - 1] / errs[i]:.3f}")
    print(f"wrote {cfg['out']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsrk",
        description="Design, analyze and run stabilized two-step Runge-Kutta methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmethod", help="design a method and write its JSON file")
    p.add_argument("--s", type=int, required=True, help="stage count (>= 2)")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="damping parameter")
    p.add_argument("--out", default="method.json", help="output JSON path")
    p.set_defaults(func=cmd_genmethod)

    p = sub.add_parser("table", help="stability/error table over stage counts")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--s-list", dest="s_list", type=_parse_s_list,
                   default=list(TABLE_DEFAULT_S),
                   help="comma-separated stage counts")
    p.add_argument("--out", default="table.csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("stability", help="real-axis scan or domain sample CSV")
    p.add_argument("--method", help="method JSON file (overrides --s/--eps)")
    p.add_argument("--s", type=int, default=5)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--undamped", action="store_true",
                   help="scan the undamped pair instead of the damped design")
    p.add_argument("--mode", choices=("real-scan", "domain"), default="real-scan")
    p.add_argument("--mu-min", dest="mu_min", type=float, default=-50.0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--re-min", dest="re_min", type=float, default=-50.0)
    p.add_argument("--re-max", dest="re_max", type=float, default=None)
    p.add_argument("--im-max", dest="im_max", type=float, default=12.0)
    p.add_argument("--resolution", type=int, default=400)
    p.add_argument("--out", default="stability.csv")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("run", help="constant-step integrations of a problem")
    p.add_argument("--problem", choices=sorted(PROBLEMS), default=None)
    p.add_argument("--h", help="comma-separated step sizes")
    p.add_argument("--s", default=None, help='stage count or "auto"')
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--starter-substeps", dest="starter_substeps", type=int,
                   default=None)
    p.add_argument("--config", help="JSON config file; flags win on conflict")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("convergence", help="run with h0, h0/2, ..., h0/2^halvings")
    p.add_argument("--problem", choices=sorted(PROBLEMS), default=None)
    p.add_argument("--h0", type=float, default=None)
    p.add_argument("--halvings", type=int, default=None)
    p.add_argument("--s", default=None, help='stage count or "auto"')
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--starter-substeps", dest="starter_substeps", type=int,
                   default=None)
    p.add_argument("--config", help="JSON config file; flags win on conflict")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except (DesignFailure, BlowUpError, CapacityError, ReferenceSolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CertificationError as exc:
        print(f"reference certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
