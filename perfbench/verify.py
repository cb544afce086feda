"""Output checks: comparison with the recorded reference, and the
seed-independent rules for seeds that have no reference.

Exit codes, check names and statuses are compared exactly.  Numbers are
compared within bounds taken from the error analysis of each quantity,
never bit for bit, because BLAS blocking and thread count change the
rounding of every matrix product (u is the unit roundoff):

* closed-form identity residuals are roundoff; any two values below the
  check's own tolerance are equivalent, so they may differ by that
  tolerance.  Values that are plain expression evaluations (PT defects of
  derived functions, closed-form roots, curve samples) may differ by
  ``EVAL_REL`` relative, far above the ~(tree size) * u of a reordered
  evaluation;
* discrete constraint residuals are norms of differences of O(n)-term
  matrix products, normalised by the dominant term, so their rounding is
  at most gamma_n ~ n * u: they may differ by ``MATMUL_C * n * u``;
  a convergence order fitted to them may move by twice the largest
  relative residual change;
* eigenvalues of the dense eigensolver are backward stable: low-lying
  levels may move by ``EIG_C * n * u * rho`` with rho the spectral radius;
* closure pairing distances are themselves eigensolver error (a
  realisation of the n * u * ||M|| backward error whose size depends on
  the rounding path: 1.40e-6 with 1 BLAS thread, 1.62e-6 with 2 on the
  order-2 defect model), so they must stay within ``CLOSURE_FACTOR`` of the
  reference.
"""

from __future__ import annotations

import csv
import math

UNIT_ROUNDOFF = 2.0 ** -53
EVAL_REL = 1e-9
MATMUL_C = 100.0
EIG_C = 10.0
CLOSURE_FACTOR = 4.0
LOW_LEVELS = 16

IDENTITY_CHECKS = ("symmetry", "delta_v", "u0_routes", "riccati",
                   "eigenvalues")
RESIDUAL_CHECKS = ("pseudo", "cpt", "susy")
CURVES_HEADER = {
    1: "x,re_m,re_wm,im_wm,re_v,im_v,re_psi0,im_psi0",
    2: "x,re_m,re_wm,im_wm,re_v,im_v,re_psi0,im_psi0,"
       "re_u0,im_u0,re_psi1,im_psi1,re_psi2,im_psi2",
}


def summarize(exit_code, report, curves_text) -> dict:
    """The part of an invocation's output that the reference records."""
    out = {"exit": exit_code}
    if report is not None:
        out["passed"] = report.get("passed")
        out["checks"] = [{k: c[k] for k in ("name", "status", "tolerance",
                                             "values", "reason") if k in c}
                         for c in report.get("checks", [])]
        for key in ("closed_form_eigenvalues", "reality_condition",
                    "susy_constants_real"):
            if key in report:
                out[key] = report[key]
        if "spectrum" in report:
            levels = sorted(report["spectrum"], key=lambda z: (z[0], z[1]))
            out["spectral_radius"] = max(math.hypot(*z) for z in levels)
            out["spectrum_low"] = levels[:LOW_LEVELS]
    if curves_text is not None:
        rows = list(csv.reader(curves_text.splitlines()))
        out["csv_header"] = rows[0] if rows else []
        out["csv_rows"] = [[float(v) for v in row] for row in rows[1:]]
    return out


class Mismatch(Exception):
    pass


def _close(a, b, tol, where):
    if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
        raise Mismatch(f"{where}: {a!r} is not a number like {b!r}")
    if isinstance(a, bool) or isinstance(b, bool):
        if a is not b:
            raise Mismatch(f"{where}: {a!r} != {b!r}")
        return
    if not abs(a - b) <= tol:
        raise Mismatch(f"{where}: {a!r} differs from reference {b!r} "
                       f"by more than {tol:.3g}")


def _walk(a, b, tol_of, where):
    """Compare nested lists/dicts/numbers; ``tol_of(ref)`` bounds numbers."""
    if isinstance(b, dict):
        if not isinstance(a, dict):
            raise Mismatch(f"{where}: expected a mapping")
        for key, ref in b.items():
            if key not in a:
                raise Mismatch(f"{where}.{key}: missing")
            _walk(a[key], ref, tol_of, f"{where}.{key}")
    elif isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            raise Mismatch(f"{where}: expected a list of {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, tol_of, f"{where}[{i}]")
    elif isinstance(b, (int, float)) and not isinstance(b, bool):
        _close(a, b, tol_of(b), where)
    elif a != b:
        raise Mismatch(f"{where}: {a!r} != reference {b!r}")


def _value_tolerance(ref_check, points):
    """Bound on |value - reference| for the values of an identity or
    residual check."""
    if ref_check["name"] in RESIDUAL_CHECKS:
        return lambda ref: MATMUL_C * points * UNIT_ROUNDOFF
    tol = ref_check.get("tolerance") or 0.0
    return lambda ref: max(tol, EVAL_REL * abs(ref))


def _compare_closure(values, ref_values, where):
    for key, ref in ref_values.items():
        got = values.get(key)
        if not isinstance(got, (int, float)):
            raise Mismatch(f"{where}.{key}: missing")
        if ref == 0.0 and got == 0.0:
            continue
        if not (ref / CLOSURE_FACTOR <= got <= ref * CLOSURE_FACTOR):
            raise Mismatch(f"{where}.{key}: {got!r} is not within a factor "
                           f"{CLOSURE_FACTOR:g} of reference {ref!r}")


def _compare_convergence(values, ref_values, points, where):
    rel = 0.0
    for key, ref in ref_values.items():
        if not key.endswith("_residuals"):
            continue
        got = values.get(key)
        if not isinstance(got, list) or len(got) != len(ref):
            raise Mismatch(f"{where}.{key}: expected {len(ref)} residuals")
        n = points                      # each grid halves the spacing
        for i, (a, b) in enumerate(zip(got, ref)):
            bound = MATMUL_C * n * UNIT_ROUNDOFF
            _close(a, b, bound, f"{where}.{key}[{i}]")
            if b > 0:
                rel = max(rel, bound / b)
            n = 2 * n - 1
    for key, ref in ref_values.items():
        if key.endswith("_order"):
            _close(values.get(key), ref, 2.0 * rel, f"{where}.{key}")


def compare(got: dict, ref: dict, points: int | None, where: str) -> None:
    """Raise Mismatch when ``got`` does not agree with the reference."""
    if got["exit"] != ref["exit"]:
        raise Mismatch(f"{where}: exit {got['exit']} != reference {ref['exit']}")
    if "csv_header" in ref:
        if got.get("csv_header") != ref["csv_header"]:
            raise Mismatch(f"{where}: CSV header differs")
        rows, ref_rows = got.get("csv_rows", []), ref["csv_rows"]
        if len(rows) != len(ref_rows):
            raise Mismatch(f"{where}: {len(rows)} CSV rows, reference "
                           f"{len(ref_rows)}")
        scale = [max(abs(r[j]) for r in ref_rows) for j in range(len(ref_rows[0]))]
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for j, (a, b) in enumerate(zip(row, ref_row)):
                _close(a, b, EVAL_REL * (abs(b) + 1e-3 * scale[j]),
                       f"{where}: CSV row {i} column {ref['csv_header'][j]}")
        return
    checks, ref_checks = got.get("checks", []), ref["checks"]
    if [c["name"] for c in checks] != [c["name"] for c in ref_checks]:
        raise Mismatch(f"{where}: checks {[c['name'] for c in checks]} != "
                       f"reference {[c['name'] for c in ref_checks]}")
    for check, ref_check in zip(checks, ref_checks):
        at = f"{where}.{ref_check['name']}"
        if check["status"] != ref_check["status"]:
            raise Mismatch(f"{at}: status {check['status']} != reference "
                           f"{ref_check['status']}")
        if check.get("reason") != ref_check.get("reason"):
            raise Mismatch(f"{at}: reason {check.get('reason')!r} != "
                           f"reference {ref_check.get('reason')!r}")
        values, ref_values = check.get("values", {}), ref_check.get("values", {})
        if ref_check["name"] == "conjugate_closure":
            _compare_closure(values, ref_values, at)
        elif ref_check["name"] == "convergence":
            _compare_convergence(values, ref_values, points, at)
        elif ref_check["name"] == "spectrum_match":
            eig_tol = EIG_C * points * UNIT_ROUNDOFF * ref["spectral_radius"]
            _walk(values, ref_values,
                  lambda r: max(eig_tol, EVAL_REL * abs(r)), at)
        else:
            _walk(values, ref_values, _value_tolerance(ref_check, points), at)
    for key in ("passed", "reality_condition", "susy_constants_real"):
        if key in ref and got.get(key) != ref[key]:
            raise Mismatch(f"{where}.{key}: {got.get(key)!r} != {ref[key]!r}")
    if "closed_form_eigenvalues" in ref:
        _walk(got.get("closed_form_eigenvalues"), ref["closed_form_eigenvalues"],
              lambda r: EVAL_REL * max(1.0, abs(r)),
              f"{where}.closed_form_eigenvalues")
    if "spectrum_low" in ref:
        eig_tol = EIG_C * points * UNIT_ROUNDOFF * ref["spectral_radius"]
        _walk(got.get("spectrum_low"), ref["spectrum_low"], lambda r: eig_tol,
              f"{where}.spectrum_low")


def check_without_reference(got: dict, inv, where: str) -> None:
    """Rules for seeded invocations on a seed that has no reference: the
    seeded models are valid PT-symmetric models, so every invocation exits
    0, the exact-identity checks pass, and no check fails."""
    if got["exit"] != 0:
        raise Mismatch(f"{where}: exit {got['exit']}, expected 0")
    if inv.command == "curves":
        if ",".join(got.get("csv_header", [])) != CURVES_HEADER[inv.config["order"]]:
            raise Mismatch(f"{where}: CSV header differs")
        points = inv.config["grid"]["points"]
        if len(got.get("csv_rows", [])) != points:
            raise Mismatch(f"{where}: expected {points} CSV rows")
        return
    if not got.get("checks"):
        raise Mismatch(f"{where}: no checks reported")
    for check in got["checks"]:
        wanted = ("pass",) if check["name"] in IDENTITY_CHECKS else ("pass", "skip")
        if check["status"] not in wanted:
            raise Mismatch(f"{where}.{check['name']}: status {check['status']}")
