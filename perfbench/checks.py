"""Correctness checks on every operation's output.

Each check returns a list of problems; an operation with any problem counts
as failed.  Tolerances:

- plan fields (s_eps, delta, r_eps) are seed-independent functions of the
  kernel and eps: relative PLAN_RTOL of the values in reference.json;
- certificate terms (outer, inner, data) do not depend on the noise draw
  either: relative TERM_RTOL;
- the achieved error does.  Two data-noise waves of L2 norm eps/2 differ by
  at most eps, and the Tikhonov filter amplifies by at most 1/(2 sqrt(delta))
  (AM-GM), so the achieved error moves by at most eps/(2 sqrt(delta))
  between seeds; the check allows twice that, eps/sqrt(delta);
- achieved squared error must stay within the certificate's total bound;
- zero counts of the indicator on [0, 1] equal 2*floor(R/2pi) exactly;
- the indicator scan is compared with the closed form |2 sin(l/2)/l|
  times the trapezoid factor theta*cot(theta), theta = l*h/2, which the
  sampled kernel carries exactly; endpoints within the scanner's bisection
  tolerance 1e-3 * resolution.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

PLAN_RTOL = 1e-9
TERM_RTOL = 1e-6
PLAN_FIELDS = ("s_eps", "delta", "r_eps")
TERMS = ("outer_term", "inner_term", "data_term")
# the only gate the shipped indicator sweep fails, by design (criterion 3)
EXPECTED_SWEEP_GATES = {"asymptotic_radius_ok"}


def _close(value, ref, rtol) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + 1e-300


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _compare(label: str, got: dict, ref: dict, fields, rtol) -> list:
    return [f"{label} {k} = {got[k]!r}, reference {ref[k]!r}"
            for k in fields if not _close(float(got[k]), ref[k], rtol)]


def _achieved(label: str, eps: float, delta: float, got: float,
              ref: float) -> list:
    tol = eps / math.sqrt(delta)
    if abs(got - ref) > tol:
        return [f"{label} achieved error {got!r} is more than {tol:.3g} "
                f"from reference {ref!r}"]
    return []


def check_deconvolve(out_dir: str, ref: dict) -> list:
    plan = load_json(os.path.join(out_dir, "plan.json"))
    dec = load_json(os.path.join(out_dir, "decomposition.json"))
    problems = _compare("plan", plan, ref["plan"], PLAN_FIELDS, PLAN_RTOL)
    problems += _compare("certificate", dec, ref["terms"], TERMS, TERM_RTOL)
    problems += _achieved("deconvolve", plan["eps"], plan["delta"],
                          plan["achieved_error"], ref["achieved_error"])
    if not dec["achieved_sq_error"] <= dec["total_bound"]:
        problems.append(f"achieved squared error {dec['achieved_sq_error']!r}"
                        f" exceeds total bound {dec['total_bound']!r}")
    if not _close(dec["total_bound"],
                  3.0 * sum(dec[t] for t in TERMS), 1e-12):
        problems.append("total bound is not 3x the term sum")
    if not os.path.isfile(os.path.join(out_dir, "reconstruction.csv")):
        problems.append("reconstruction.csv missing")
    return problems


def check_sweep(out_dir: str, exc, ref: dict) -> list:
    """Exit 4 is expected only for exactly the by-design gate."""
    # imported here: deconv is first loaded inside the timed set-up
    from deconv.errors import AcceptanceGateError

    problems = []
    if not isinstance(exc, AcceptanceGateError):
        problems.append(f"sweep raised {exc!r}, expected the "
                        "asymptotic_radius_ok gate failure")
    summary = load_json(os.path.join(out_dir, "summary.json"))
    failed = {name for name, ok in summary["gates"].items() if not ok}
    if failed != EXPECTED_SWEEP_GATES:
        problems.append(f"failed gates {sorted(failed)}, expected "
                        f"{sorted(EXPECTED_SWEEP_GATES)}")
    if summary["failures"]:
        problems.append(f"sweep rows failed: {summary['failures']}")
    rows = read_csv(os.path.join(out_dir, "sweep.csv"))
    if len(rows) != len(ref["rows"]):
        return problems + [f"{len(rows)} sweep rows, expected "
                           f"{len(ref['rows'])}"]
    for row, want in zip(rows, ref["rows"]):
        label = f"sweep eps={want['eps']:g}"
        got = {k: float(v) for k, v in row.items()}
        problems += _compare(label, got, want, ("eps",) + PLAN_FIELDS,
                             PLAN_RTOL)
        problems += _achieved(label, got["eps"], got["delta"],
                              got["achieved_error"], want["achieved_error"])
        if not got["achieved_error"] <= got["bound"]:
            problems.append(f"{label} achieved error exceeds its bound")
    return problems


def check_smallset_gaussian(out_dir: str, ref: dict) -> list:
    report = load_json(os.path.join(out_dir, "smallset.json"))
    problems = _compare("smallset", report, ref, ("r_eps",), PLAN_RTOL)
    if report["interval_count"] != 0 or report["intervals"] \
            or report["measure_estimate"] != 0.0:
        problems.append(f"gaussian scan reported {report['interval_count']} "
                        "intervals, expected 0")
    return problems


def indicator_closed_form(threshold: float, r: float, h: float) -> list:
    """Intervals of |l| <= r where the trapezoid-sampled indicator of
    [0, 1] has |transform| below threshold, endpoints to ~1e-14."""
    import numpy as np

    def excess(lam):
        lam = np.asarray(lam, dtype=np.float64)
        theta = 0.5 * lam * h
        with np.errstate(invalid="ignore", divide="ignore"):
            mag = np.abs(np.where(lam == 0.0, 1.0,
                                  2.0 * np.sin(0.5 * lam) / lam
                                  * theta / np.tan(theta)))
        return mag - threshold

    grid = np.linspace(-r, r, 400001)
    below = excess(grid) < 0.0
    edges = np.flatnonzero(np.diff(below.astype(np.int8)))

    def crossing(lo, hi):
        inside_lo = excess(lo) < 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (excess(mid) < 0.0) == inside_lo:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    points = [float(crossing(grid[i], grid[i + 1])) for i in edges]
    if below[0]:
        points.insert(0, -r)
    if below[-1]:
        points.append(r)
    return list(zip(points[0::2], points[1::2]))


def check_indicator_scan(report, resolution: float, h: float) -> list:
    want = indicator_closed_form(report.threshold, report.r, h)
    if report.interval_count != len(want):
        return [f"indicator scan found {report.interval_count} intervals, "
                f"closed form has {len(want)}"]
    tol = 1e-3 * resolution
    problems = [f"interval {got} differs from closed form {exp}"
                for got, exp in zip(report.intervals, want)
                if abs(got[0] - exp[0]) > tol or abs(got[1] - exp[1]) > tol]
    measure = sum(hi - lo for lo, hi in want)
    if abs(report.measure_estimate - measure) > 2 * len(want) * tol:
        problems.append(f"indicator measure {report.measure_estimate!r}, "
                        f"closed form {measure!r}")
    return problems


def check_zero_counts(out_dir: str) -> list:
    """Indicator of [0, 1]: zeros at 2*pi*i*k, k != 0."""
    rows = read_csv(os.path.join(out_dir, "zeros.csv"))
    if not rows:
        return ["zeros.csv has no rows"]
    return [f"n({row['R']}) = {row['n']}, closed form "
            f"{2 * math.floor(float(row['R']) / (2 * math.pi))}"
            for row in rows
            if int(float(row["n"]))
            != 2 * math.floor(float(row["R"]) / (2 * math.pi))]


def check_analyze_kernel(out_dir: str, ref: dict) -> list:
    detector = load_json(os.path.join(out_dir, "detector.json"))
    problems = []
    if detector["superlinear"] != ref["superlinear"]:
        problems.append(f"superlinear verdict {detector['superlinear']}, "
                        f"reference {ref['superlinear']}")
    if not _close(detector["decade_ratio"], ref["decade_ratio"], PLAN_RTOL):
        problems.append(f"decade ratio {detector['decade_ratio']!r}, "
                        f"reference {ref['decade_ratio']!r}")
    for name in ("profile.csv", "dual.csv"):
        rows = len(read_csv(os.path.join(out_dir, name)))
        if rows != ref["rows"][name]:
            problems.append(f"{name} has {rows} rows, reference "
                            f"{ref['rows'][name]}")
    has_zeros = os.path.isfile(os.path.join(out_dir, "zeros.csv"))
    if has_zeros != ref["zeros"]:
        problems.append(f"zeros.csv present: {has_zeros}, expected "
                        f"{ref['zeros']}")
    elif has_zeros:
        problems += check_zero_counts(out_dir)
    return problems


def digest(out_dir: str) -> dict:
    """sha256 of every output file; manifest.json without its timings."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_clock_seconds", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out
