"""Correctness gate for one CLI op, independent of the package under test.

Closed forms are recomputed here rather than imported, so a change that
breaks `susyh.analytic` cannot also move its own reference.  Each check
returns None when the output is correct, else a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math

SPECTRUM_REL_TOL = 1e-4   # numerical level vs closed form
KERNEL_RQ_TOL = 1e-5      # Rayleigh quotient of the zero mode vs s/|kappa|
FORMULA_REL_TOL = 1e-12   # reported closed form vs the one recomputed here
LEVEL_COLUMNS = ["id", "D", "tanh_D", "kappa", "n", "l", "E_over_m",
                 "binding", "partner_id", "is_ladder_bottom"]


def level_energy(D: int, l: int, n_prime: int, z_alpha: float) -> float:
    """E/m = [1 + (Z alpha / (n' + s))^2]^(-1/2), s = sqrt(kappa^2 - Z alpha^2)."""
    abs_kappa = l + (D - 1) / 2
    s = math.sqrt(abs_kappa * abs_kappa - z_alpha * z_alpha)
    return (1.0 + (z_alpha / (n_prime + s)) ** 2) ** -0.5


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _check_spectrum(op, text):
    doc = json.loads(text)
    D, l, sign, za = (op.param(k) for k in ("D", "l", "sign", "za"))
    rows = doc["rows"]
    if len(rows) != op.param("levels"):
        return f"{len(rows)} levels, expected {op.param('levels')}"
    for k, row in enumerate(rows):
        exact = level_energy(D, l, k if sign > 0 else k + 1, za)
        if not _close(row["analytic_E_over_m"], exact, FORMULA_REL_TOL):
            return f"level {k}: closed form {row['analytic_E_over_m']!r} != {exact!r}"
        if not _close(row["E_over_m"], exact, SPECTRUM_REL_TOL):
            return (f"level {k}: E = {row['E_over_m']!r}, closed form {exact!r}, "
                    f"beyond {SPECTRUM_REL_TOL} relative")
    return None


def _check_verify(op, text):
    doc = json.loads(text)
    if doc["pass"] is not True:
        return "verify reports pass = false"
    for row in doc["rows"]:
        if not row["pass"]:
            return f"row {row['name']} failed"
        if row["norm_type"] == "max_element_exact" and row["residual"] != 0.0:
            return f"row {row['name']}: structural residual {row['residual']!r} != 0"
    if op.command == "clifford":
        dims = {row["name"].split(":", 1)[0] for row in doc["rows"]}
        want = {f"D{d}" for d in range(op.param("lo"), op.param("hi") + 1)}
        if dims != want:
            return f"clifford rows cover {sorted(dims)}, expected {sorted(want)}"
    return None


def _check_kernel(op, text):
    doc = json.loads(text)
    if doc["pass"] is not True:
        return "kernel reports pass = false"
    ground = level_energy(op.param("D"), op.param("l"), 0, op.param("za"))
    if not _close(doc["ground_exact"], ground, FORMULA_REL_TOL):
        return f"ground energy {doc['ground_exact']!r} != {ground!r}"
    if not _close(doc["rayleigh_quotient"], ground, KERNEL_RQ_TOL):
        return f"Rayleigh quotient {doc['rayleigh_quotient']!r} vs {ground!r}"
    return None


def _check_convergence(op, text):
    doc = json.loads(text)
    if doc["pass"] is not True:
        return f"convergence reports pass = false (order {doc['min_fitted_order']})"
    D, l, sign, za = (op.param(k) for k in ("D", "l", "sign", "za"))
    finest = max(doc["n_points"])
    for row in doc["rows"]:
        k = row["level_index"]
        exact = level_energy(D, l, k if sign > 0 else k + 1, za)
        if not _close(row["exact_E_over_m"], exact, FORMULA_REL_TOL):
            return f"level {k}: closed form {row['exact_E_over_m']!r} != {exact!r}"
        if row["n_points"] == finest and not _close(row["E_over_m"], exact,
                                                     SPECTRUM_REL_TOL):
            return f"level {k} at n={finest}: E = {row['E_over_m']!r}"
    return None


def _expected_level_rows(op) -> int:
    # n' = 0 only for kappa > 0: levels n = 1..n_max give sum(2n - 1) = n_max^2
    return (op.param("hi") - op.param("lo") + 1) * op.param("n_max") ** 2


def _check_levels_json(op, doc):
    if doc["pass"] is not True:
        return "levels reports pass = false"
    za = op.param("za")
    bottoms = {}
    for row in doc["rows"]:
        sign = 1 if row["kappa"] > 0 else -1
        n_prime = row["n"] - row["l"] - 1
        exact = level_energy(row["D"], row["l"], n_prime, za)
        if sign < 0 and n_prime == 0:
            return f"row {row['id']}: kappa < 0 has no n' = 0 level"
        if not _close(row["E_over_m"], exact, FORMULA_REL_TOL):
            return f"row {row['id']}: E = {row['E_over_m']!r}, closed form {exact!r}"
        key = (row["D"], row["l"])
        bottoms[key] = bottoms.get(key, 0) + bool(row["is_ladder_bottom"])
    if any(count != 1 for count in bottoms.values()):
        return "a (D, l) ladder has no unique bottom"
    return None


def _check_levels(op, text):
    want = _expected_level_rows(op)
    fmt = op.param("format")
    if fmt == "json":
        doc = json.loads(text)
        if len(doc["rows"]) != want:
            return f"{len(doc['rows'])} rows, expected {want}"
        return _check_levels_json(op, doc)
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(text)))
        header, body = table[0], table[1:]
    else:
        lines = text.splitlines()
        header, body = lines[0].split(), lines[1:]
    if header != LEVEL_COLUMNS:
        return f"{fmt} header {header}"
    if len(body) != want:
        return f"{len(body)} {fmt} rows, expected {want}"
    return None


_CHECKS = {
    "spectrum": _check_spectrum,
    "verify": _check_verify,
    "clifford": _check_verify,
    "kernel": _check_kernel,
    "convergence": _check_convergence,
    "levels": _check_levels,
}


def check(op, exit_code: int, stdout: str):
    """None if the op's output is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return _CHECKS[op.command](op, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
