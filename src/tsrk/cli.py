"""Command-line front end: design methods, scan stability, run experiments.

Commands
--------
genmethod    solve the damping system and write a method JSON file
table        error constants and stability lengths for a list of stage counts
stability    real-axis scan or complex domain sample, written as CSV
run          constant-step integrations of a registered problem
convergence  run with a halving sequence of step sizes

Exit codes: 0 success, 2 parameter error (a grid too large for memory and
an explicit stage count above ``STAGE_CAP`` included), 3 numerical failure,
4 reference-certification failure.  The message line names the exception's
type when the exception carries no message.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .design import (
    DEFAULT_EPS,
    DesignFailure,
    TwoStepMethod,
    build_method,
    build_undamped_pair,
    error_constant,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from .integrator import (STAGE_CAP, BlowUpError, CapacityError, _step_count,
                         estimate_spectral_radius, integrate, select_stages)
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


def _parse_list(text: str, kind=float) -> list:
    """Comma-separated values of ``kind``; empty parts are skipped, no value fails."""
    values = [kind(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no value in list {text!r}")
    return values


def _stage_count(text: str) -> int:
    """An explicit stage count: an int, ``ValueError`` above ``STAGE_CAP``.

    The library designs any s; the command line refuses one above the cap
    before any work, since a huge s solves and builds for minutes (35 s at
    s = 10^7) and may then fail for want of memory.
    """
    s = int(text)
    if s > STAGE_CAP:
        raise ValueError(f"stage count {s} is above the cap of {STAGE_CAP}")
    return s


def _argument(parse):
    """``parse`` as an argparse type, which then shows a ValueError's reason."""
    def parsed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parsed


def cmd_genmethod(args) -> int:
    sol = solve_damping(args.s, args.eps)
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
            pair = solve_damping(s, args.eps)
            l_s = stability_length(pair)
            rows.append((s, repr(error_constant(pair)), repr(l_s), repr(l_s / s**2),
                         "", repr(stable_interval_length(pair))))
        except (ValueError, DesignFailure) as exc:
            rows.append((s, "", "", "", str(exc), ""))
    _write_csv(args.out, ["s", "err_const", "l_s", "l_s_over_s2", "error", "l_interval"], rows)
    return EXIT_OK


def cmd_stability(args) -> int:
    if args.method:
        pair = TwoStepMethod.load(args.method)
        label = f"method file {args.method}"
    elif args.undamped:
        pair = build_undamped_pair(args.s)
        label = f"undamped s={args.s}"
    else:
        pair = solve_damping(args.s, args.eps)
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


def _problem(name: str) -> str:
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; "
                         f"registry: {', '.join(sorted(PROBLEMS))}")
    return name


# How run and convergence read each option's text, from a flag or a config file.
_OPTION_TYPES = {
    "problem": _problem, "out": str, "eps": float, "h": _parse_list, "h0": float,
    "halvings": int, "s": lambda text: text if text == "auto" else _stage_count(text),
}


def _checked(key: str, value):
    """A flag's text, or a config value read as that text: "s": 2.5 fails as --s 2.5 does."""
    # Only h may be a list: its step sizes, read as comma-separated text.
    parts = value if key == "h" and isinstance(value, list) else [value]
    try:
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in parts):
            raise ValueError(f"must be text or a number, got {value!r}")
        return _OPTION_TYPES[key](",".join(map(str, parts)))
    except ValueError as exc:
        raise ValueError(f"--{key}: {exc}") from None


def _config(args, required: tuple[str, ...]) -> dict:
    """Checked options: defaults, then config-file values, then passed flags."""
    keys = (*required, "s", "eps")
    cfg = {"s": "auto", "eps": DEFAULT_EPS}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {loaded!r}")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    cfg.update({key: getattr(args, key) for key in keys if getattr(args, key) is not None})
    cfg = {key: _checked(key, value) for key, value in cfg.items()}
    for key in required:
        if key not in cfg:
            raise ValueError(f"--{key}: missing; pass the flag or set it in --config")
    return cfg


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path``, then print the rows as written."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _write_run_csv(path, rows) -> None:
    _write_csv(path, ["h", "s_used", "endpoint_error", "steps", "fevals"], rows)


def _run_sweep(problem, h_list, s_choice, eps, out):
    """Run ``problem`` over ``h_list``, write the CSV to ``out``, print its rows.

    Rows are (h, s_used, error-or-'unstable', steps, fevals).  Returns per row
    the error an error ratio may use, or None: no error, or q = h * rho / l_s
    > 1 (rho estimated once, at the start).  Raises CertificationError, with
    nothing written, if an error is below 100 x ``problem.reference().estimate``.
    Every row's stage and step counts are settled, in order, before any row
    runs; ``h_list`` may be an iterator, read no further than a failing row.
    """
    rho = estimate_spectral_radius(problem)
    plan = []
    for h in h_list:
        s_used = select_stages(rho, h, eps) if s_choice == "auto" else s_choice
        pair = solve_damping(s_used, eps)
        _step_count(problem.t_out - problem.t0, h)
        plan.append((h, s_used, pair))
    rows, ratio_errors, measured, warnings = [], [], [], []
    for h, s_used, pair in plan:
        q = h * rho / stable_interval_length(pair)
        try:
            result = integrate(build_method(pair), problem, h)
        except BlowUpError as exc:
            rows.append((repr(h), s_used, "unstable", exc.steps_done, exc.fevals))
            ratio_errors.append(None)
            continue
        err = result.endpoint_error
        rows.append((repr(h), s_used, "" if err is None else repr(err),
                     result.steps_taken, result.stage_evals + result.starter_evals))
        if err is not None:
            measured.append(err)
            # q > 1 puts the step outside its method's stability interval (auto
            # stage selection keeps q <= 1).  Such a row may grow too slowly to
            # blow up within the window; its error measures the instability.
            if q > 1.0:
                warnings.append(f"warning: row h={h!r} has h*rho/l_s = {q:.3f} > 1, outside "
                                f"the stability interval; no error ratio uses it")
                err = None
        ratio_errors.append(err)
    if measured:
        estimate, smallest = problem.reference().estimate, min(measured)
        if estimate > smallest / 100.0:
            raise CertificationError(
                f"reference accuracy {estimate:.3e} is not 100x below the smallest "
                f"observed error {smallest:.3e}; tighten the reference step counts")
    _write_run_csv(out, rows)
    for line in warnings:
        print(line, file=sys.stderr)
    return ratio_errors


def cmd_run(args) -> int:
    cfg = _config(args, ("problem", "h", "out"))
    _run_sweep(PROBLEMS[cfg["problem"]](), cfg["h"], cfg["s"], cfg["eps"], cfg["out"])
    print(f"wrote {cfg['out']}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = _config(args, ("problem", "h0", "halvings", "out"))
    if cfg["halvings"] < 1:
        raise ValueError("--halvings: must be >= 1")
    # Built row by row: the step count doubles per row, so a row past the
    # step cap, long before h0 / 2**1024 overflows, ends the plan.
    h_list = (cfg["h0"] / 2**k for k in range(cfg["halvings"] + 1))
    errs = _run_sweep(PROBLEMS[cfg["problem"]](), h_list, cfg["s"], cfg["eps"], cfg["out"])
    # A ratio needs errors on both neighbouring rows; row i has step h0/2^i.
    for i in range(1, len(errs)):
        if errs[i - 1] is not None and errs[i] is not None and errs[i] > 0:
            print(f"error ratio h/{2**i}: {errs[i - 1] / errs[i]:.3f}")
    print(f"wrote {cfg['out']}")
    return EXIT_OK


@functools.cache  # one parser per process: main reuses it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsrk",
        description="Design, analyze and run stabilized two-step Runge-Kutta methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmethod", help="design a method and write its JSON file")
    p.add_argument("--s", type=_argument(_stage_count), required=True,
                   help=f"stage count (2 to {STAGE_CAP})")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="damping parameter")
    p.add_argument("--out", default="method.json", help="output JSON path")
    p.set_defaults(func=cmd_genmethod)

    p = sub.add_parser("table", help="stability/error table over stage counts")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--s-list", dest="s_list",
                   type=_argument(lambda text: _parse_list(text, _stage_count)),
                   default=TABLE_DEFAULT_S,
                   help="comma-separated stage counts")
    p.add_argument("--out", default="table.csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("stability", help="real-axis scan or domain sample CSV")
    p.add_argument("--method", help="method JSON file (overrides --s/--eps)")
    p.add_argument("--s", type=_argument(_stage_count), default=5)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--undamped", action="store_true",
                   help="scan the undamped pair instead of the damped design")
    p.add_argument("--mode", choices=("real-scan", "domain"), default="real-scan")
    p.add_argument("--mu-min", dest="mu_min", type=float, default=-50.0,
                   help="left end of the real scan (exponent notation needs "
                        "the = form: --mu-min=-1e7)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--re-min", dest="re_min", type=float, default=-50.0,
                   help="left edge of the domain rectangle (exponent notation "
                        "needs the = form: --re-min=-1e7)")
    p.add_argument("--re-max", dest="re_max", type=float, default=None)
    p.add_argument("--im-max", dest="im_max", type=float, default=12.0)
    p.add_argument("--resolution", type=int, default=400)
    p.add_argument("--out", default="stability.csv")
    p.set_defaults(func=cmd_stability)

    # Options of run and convergence, kept as text for _checked to read as it
    # reads a config value; unset ones fall back to --config.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", help=f"one of: {', '.join(sorted(PROBLEMS))}")
    common.add_argument("--s", help='stage count or "auto"')
    common.add_argument("--eps")
    common.add_argument("--config", help="JSON config file; flags win on conflict")
    common.add_argument("--out")

    p = sub.add_parser("run", parents=[common],
                       help="constant-step integrations of a problem")
    p.add_argument("--h", help="comma-separated step sizes")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("convergence", parents=[common],
                       help="run with h0, h0/2, ..., h0/2^halvings")
    p.add_argument("--h0")
    p.add_argument("--halvings")
    p.set_defaults(func=cmd_convergence)

    return parser


def _reason(exc: Exception) -> str:
    """The exception's message, or its type's name if it has none (a bare
    ``MemoryError()``)."""
    return str(exc) or type(exc).__name__


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return EXIT_PARAM
    except (DesignFailure, BlowUpError, CapacityError, ReferenceSolverError) as exc:
        print(f"numerical failure: {_reason(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CertificationError as exc:
        print(f"reference certification failure: {_reason(exc)}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
