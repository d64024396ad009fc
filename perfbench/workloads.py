"""Workloads of the tsrk benchmark: inputs per seed, the job, and the gate.

Every workload is a list of ``tsrk`` command lines run through
``tsrk.cli.main`` in one fresh process.  ``--seed`` picks one member of a
small family of equivalent inputs (``member = seed % FAMILY``); member 0 is
the configuration the paper's experiments use.  Members are chosen so the
work per run stays within a few per cent of member 0, and each has its
expected answers pinned below, measured at the commit that added the
benchmark.

The gate accepts rounding-level change (a banded or LU-reusing reference
solver moves results by far less than the tolerances) and rejects wrong
answers.  An operation is one command; it fails on a wrong result, an
unexpected exception or a wrong exit code.  An "unstable" row the pinned
hunt expects is a correct outcome, not a failure.

This module does not import tsrk: the orchestrator uses it only to build
command lines and to judge the outputs a worker reports.
"""
from __future__ import annotations

import math

FAMILY = 5

# burgers_hunt: h = 2.5/k, hunting from s_min - 5 up to the first stable s.
# The trapezoidal starter (64 LU factorizations of 500x500 per attempt)
# dominates every attempt, so six attempts cost the same for every member.
BURGERS_K = (32, 31, 33, 30, 34)
BURGERS_PIN = {  # k -> (minimal stable s, endpoint error)
    32: (15, 0.022520721352247502),
    31: (15, 0.023158702922921645),
    33: (15, 0.021884301512249335),
    30: (15, 0.02382305181726367),
    34: (14, 0.021276286185023016),
}
BURGERS_UNSTABLE_ATTEMPTS = 5
BURGERS_REF_ESTIMATE = 1.5713709130190285e-08

# rober_sweep / rober_cold: h0 = 1000/k divides the window [1000, 2000];
# stage evaluations scale like sqrt(k), so members differ by at most 1 %.
ROBER_K = (100, 99, 101, 98, 102)
ROBER_PIN = {  # k -> (auto stage counts, endpoint errors) for h0 / 2^j, j = 0..3
    100: ((231, 164, 116, 82), (0.0004678783192836322, 0.00012064411277556975,
                                3.025119564958878e-05, 7.558773348459447e-06)),
    99: ((232, 164, 116, 82), (0.0004768945377362499, 0.00012307777444631185,
                               3.086540895302914e-05, 7.712329945008811e-06)),
    101: ((230, 163, 115, 82), (0.00045910177869290525, 0.00011828154662341106,
                                2.9655388733895727e-05, 7.409759051890674e-06)),
    98: ((234, 165, 117, 83), (0.00048616640933218935, 0.0001255842869390955,
                               3.1498553138664676e-05, 7.870566375745014e-06)),
    102: ((229, 162, 115, 81), (0.0004505642245876684, 0.00011598760038733502,
                                2.9076766731916948e-05, 7.265377967136111e-06)),
}
ROBER_HALVINGS = 3
ROBER_REF_ESTIMATE = 3.2496968079461417e-12
ORDER2_RATIO = (3.2, 4.8)

# design_scan: stage counts of the real-axis scan and of the domain sample.
SCAN_S = (1000, 999, 1001, 998, 1002)
SCAN_SAMPLES = 100_000
SCAN_MU_MIN = -50.0  # the CLI default; every member is stable on all of it
SCAN_PIN = {  # s -> mean of the max_abs_root column
    1000: 0.9503290923646754,
    999: 0.9503290923610365,
    1001: 0.9503290923683662,
    998: 0.9503290923574663,
    1002: 0.950329092371955,
}
DOMAIN_S = (50, 49, 51, 48, 52)
DOMAIN_RESOLUTION = 400
DOMAIN_PIN = {  # s -> grid points inside
    50: 52882,
    49: 52884,
    51: 52880,
    48: 52882,
    52: 52884,
}
DOMAIN_SLACK = 4  # points that rounding may move across |zeta| = 1 + 1e-9

# Criterion 3: the paper's table (err_const, l_s, l_s/s^2) at eps = 0.05.
PAPER_TABLE = {
    2: ("0.36594", "7.6531", "1.913275"),
    5: ("0.32949", "47.5779", "1.903115"),
    10: ("0.324278", "190.1654", "1.901654"),
    20: ("0.322975", "760.5155", "1.901289"),
    50: ("0.32261", "4752.9663", "1.901187"),
    100: ("0.322558", "19011.7189", "1.901172"),
    200: ("0.322545", "76046.7294", "1.901168"),
    500: ("0.322542", "475291.8031", "1.901167"),
    1000: ("0.322541", "1901167.0661", "1.901167"),
}

# Pinned errors may move by rounding and by the reference's own error.  A
# reference solver that reuses its LU across steps moved the Rober h0/8
# error by 3e-7 relative; a Newton tolerance of 1e-8 instead of 1e-12 moved
# it by 5e-2.
ERROR_RTOL = 1e-5


def member(seed: int) -> int:
    return seed % FAMILY


def describe(workload: str, seed: int) -> str:
    m = member(seed)
    if workload == "burgers_hunt":
        k = BURGERS_K[m]
        start = BURGERS_PIN[k][0] - BURGERS_UNSTABLE_ATTEMPTS
        return f"member {m}: h = 2.5/{k}, stage hunt from s = {start}"
    if workload in ("rober_sweep", "rober_cold"):
        return f"member {m}: h0 = 1000/{ROBER_K[m]}, {ROBER_HALVINGS} halvings, s auto"
    return (f"member {m}: table, real-scan s = {SCAN_S[m]}, "
            f"domain s = {DOMAIN_S[m]}")


# ---------------------------------------------------------------------------
# jobs (run inside the worker; ``call(argv, out)`` runs one command)

def burgers_job(seed, call, out):
    """``tsrk run --s j`` for j = start, start + 1, ... until a row is not unstable."""
    k = BURGERS_K[member(seed)]
    start = BURGERS_PIN[k][0] - BURGERS_UNSTABLE_ATTEMPTS
    for s in range(start, start + 2 * BURGERS_UNSTABLE_ATTEMPTS + 2):
        op = call(["run", "--problem", "burgers", "--h", repr(2.5 / k), "--s", str(s)],
                  out(f"run_s{s}"))
        if op["code"] != 0 or [row[2] for row in op.get("rows", [])] != ["unstable"]:
            return


def rober_job(seed, call, out):
    call(["convergence", "--problem", "rober", "--h0", repr(1000.0 / ROBER_K[member(seed)]),
          "--halvings", str(ROBER_HALVINGS), "--s", "auto"], out("convergence"))


def design_job(seed, call, out):
    m = member(seed)
    call(["table"], out("table"))
    call(["stability", "--s", str(SCAN_S[m]), "--mode", "real-scan",
          "--samples", str(SCAN_SAMPLES)], out("scan"))
    call(["stability", "--s", str(DOMAIN_S[m]), "--mode", "domain",
          "--resolution", str(DOMAIN_RESOLUTION)], out("domain"))


# ---------------------------------------------------------------------------
# gate (run by the orchestrator on what the worker reports)

def _close(value, pinned, atol=0.0):
    return abs(value - pinned) <= ERROR_RTOL * abs(pinned) + atol


def _common(op):
    if op.get("error"):
        return [f"exception: {op['error']}"]
    if op["code"] != 0:
        return [f"exit code {op['code']}"]
    return []


def check_burgers(seed, ops):
    """One list of failure reasons per op; an expected unstable row is fine."""
    k = BURGERS_K[member(seed)]
    s_min, err_pin = BURGERS_PIN[k]
    start = s_min - BURGERS_UNSTABLE_ATTEMPTS
    verdicts = []
    for i, op in enumerate(ops):
        s = start + i
        reasons = _common(op)
        rows = op.get("rows") or []
        if not reasons:
            if len(rows) != 1 or int(rows[0][1]) != s or float(rows[0][0]) != 2.5 / k:
                reasons.append(f"row {rows} is not (h=2.5/{k}, s={s})")
            elif s < s_min:
                if rows[0][2] != "unstable":
                    reasons.append(f"s={s} expected unstable, got {rows[0][2]!r}")
            elif s == s_min:
                reasons += _check_stable_burgers(rows[0], err_pin, op)
            else:
                reasons.append(f"hunt ran past the minimal stable s={s_min}")
        verdicts.append(reasons)
    if len(ops) < s_min - start + 1 and not any(verdicts):
        verdicts.append([f"hunt stopped after {len(ops)} attempts, before s={s_min}"])
    return verdicts


def _check_stable_burgers(row, err_pin, op):
    if row[2] in ("", "unstable"):
        return [f"s={row[1]} expected stable with error {err_pin}, got {row[2]!r}"]
    err = float(row[2])
    reasons = []
    if not _close(err, err_pin, 2 * BURGERS_REF_ESTIMATE):
        reasons.append(f"endpoint error {err!r} != pinned {err_pin!r}")
    est = op.get("reference_estimate")
    if est is None or not est <= err / 100.0:
        reasons.append(f"reference estimate {est!r} not <= error/100")
    return reasons


def check_rober(seed, ops):
    k = ROBER_K[member(seed)]
    s_pin, err_pin = ROBER_PIN[k]
    verdicts = []
    for op in ops:
        reasons = _common(op)
        rows = op.get("rows") or []
        if not reasons:
            if len(rows) != ROBER_HALVINGS + 1:
                reasons.append(f"{len(rows)} rows, expected {ROBER_HALVINGS + 1}")
            else:
                reasons += _check_rober_rows(k, rows, s_pin, err_pin, op)
        verdicts.append(reasons)
    if not ops:
        verdicts.append(["no convergence command ran"])
    return verdicts


def _check_rober_rows(k, rows, s_pin, err_pin, op):
    reasons = []
    errors = []
    for j, row in enumerate(rows):
        h, steps = 1000.0 / k / 2**j, k * 2**j - 1
        if float(row[0]) != h or int(row[1]) != s_pin[j] or int(row[3]) != steps:
            reasons.append(f"row {row} is not (h={h!r}, s={s_pin[j]}, steps={steps})")
            continue
        try:
            err = float(row[2])
        except ValueError:
            reasons.append(f"h={h!r}: no endpoint error ({row[2]!r})")
            continue
        if not _close(err, err_pin[j], 2 * ROBER_REF_ESTIMATE):
            reasons.append(f"h={h!r}: error {err!r} != pinned {err_pin[j]!r}")
        errors.append(err)
    if len(errors) == len(rows):
        lo, hi = ORDER2_RATIO
        for j in range(1, len(errors)):
            ratio = errors[j - 1] / errors[j]
            if not lo <= ratio <= hi:
                reasons.append(f"order-2 ratio {ratio:.3f} outside [{lo}, {hi}]")
        est = op.get("reference_estimate")
        if est is None or not est <= min(errors) / 100.0:
            reasons.append(f"reference estimate {est!r} not <= smallest error/100")
    return reasons


def _ulp_of_printed(text):
    return 10.0 ** (-len(text.split(".")[1]))


def _check_table(op):
    reasons = []
    rows = {int(r[0]): r for r in op.get("rows") or []}
    if sorted(rows) != sorted(PAPER_TABLE):
        return [f"table rows for s = {sorted(rows)}, expected {sorted(PAPER_TABLE)}"]
    for s, (c_txt, l_txt, ratio_txt) in PAPER_TABLE.items():
        row = rows[s]
        if row[4]:
            reasons.append(f"s={s}: {row[4]}")
            continue
        c_s, l_s, ratio = float(row[1]), float(row[2]), float(row[3])
        if abs(c_s - float(c_txt)) > _ulp_of_printed(c_txt):
            reasons.append(f"s={s}: err_const {c_s!r} does not print as {c_txt}")
        if abs(l_s - float(l_txt)) > 1e-4 * float(l_txt):
            reasons.append(f"s={s}: l_s {l_s!r} is not {l_txt} to 1e-4")
        if abs(ratio - float(ratio_txt)) > 1e-6:
            reasons.append(f"s={s}: l_s/s^2 {ratio!r} is not {ratio_txt}")
    return reasons


def _check_scan(op, s):
    summary = op.get("scan") or {}
    reasons = []
    if summary.get("rows") != SCAN_SAMPLES:
        reasons.append(f"{summary.get('rows')} scan rows, expected {SCAN_SAMPLES}")
    if summary.get("stable_length") != -SCAN_MU_MIN:
        reasons.append(f"stable length {summary.get('stable_length')!r}, "
                       f"expected the whole range {-SCAN_MU_MIN}")
    if summary.get("mu_first") != SCAN_MU_MIN or summary.get("mu_last") != 0.0:
        reasons.append("scan grid does not span [mu_min, 0]")
    if not summary.get("max", math.inf) <= 1.0 + 1e-9:
        reasons.append(f"max |zeta| {summary.get('max')!r} > 1 on a stable range")
    pin = SCAN_PIN.get(s)
    if pin is None or not abs(summary.get("mean", math.nan) - pin) <= 1e-9 * pin:
        reasons.append(f"mean max |zeta| {summary.get('mean')!r} != pinned {pin!r}")
    return reasons


def _check_domain(op, s):
    summary = op.get("domain") or {}
    reasons = []
    if summary.get("rows") != DOMAIN_RESOLUTION**2:
        reasons.append(f"{summary.get('rows')} domain rows, expected {DOMAIN_RESOLUTION**2}")
    if summary.get("inside") != summary.get("printed_inside"):
        reasons.append(f"CSV has {summary.get('inside')} inside points, "
                       f"the command printed {summary.get('printed_inside')}")
    pin = DOMAIN_PIN.get(s)
    inside = summary.get("inside")
    if pin is None or inside is None or abs(inside - pin) > DOMAIN_SLACK:
        reasons.append(f"{inside} points inside, pinned {pin} +- {DOMAIN_SLACK}")
    return reasons


def check_design(seed, ops):
    m = member(seed)
    checks = (_check_table, lambda op: _check_scan(op, SCAN_S[m]),
              lambda op: _check_domain(op, DOMAIN_S[m]))
    verdicts = []
    for op, check in zip(ops, checks):
        reasons = _common(op)
        verdicts.append(reasons or check(op))
    for _ in range(len(ops), len(checks)):
        verdicts.append(["command did not run"])
    return verdicts


def gate(workload, seed, ops):
    """(attempted, failed, reasons) for the ops of one run of ``workload``."""
    verdicts = WORKLOADS[workload][1](seed, ops)
    failures = [r for v in verdicts for r in v]
    return len(verdicts), sum(1 for v in verdicts if v), failures


# name -> (job, gate check, problems whose disk references are filled first)
WORKLOADS = {
    "burgers_hunt": (burgers_job, check_burgers, ("burgers",)),
    "rober_sweep": (rober_job, check_rober, ("rober",)),
    "rober_cold": (rober_job, check_rober, ()),
    "design_scan": (design_job, check_design, ()),
}
