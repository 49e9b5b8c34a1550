"""Command-line front end: reproducible runs, reports, and exports.

Subcommands
    spectrum     numerical vs analytic bound levels for one kappa sector
    verify       identity suite: Clifford algebra, block operator identities
                 with refinement orders, spectral pairing
    kernel       zero-mode annihilation refinement study
    levels       level-scheme dataset across a dimension family
    convergence  eigenvalue error orders against the closed form

Exit status: 0 when every check passes, 1 when a check fails, 2 on usage or
validation errors.  Runs are deterministic: repeated invocations produce
byte-identical output.  Floats are printed at up to 17 significant digits
(%.17g in csv/text; shortest round-trip in json, which is exact to the same
guarantee).

Each flag and its default are declared once, in build_parser; the commands
read the namespace argparse returns, once _checked has validated it.  Any
command's warnings print to stderr as `notice: <message>` lines.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from collections import Counter

from . import analytic, clifford, radial, susy
from .core import PhysParams, default_grid, kappa_of
from .errors import SusyhError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_D = 3
DEFAULT_Z_ALPHA = 0.5
DEFAULT_LEVELS_Z_ALPHA = 0.4  # stable for every D >= 2, unlike 0.5
DEFAULT_GRID_POINTS = 800
DEFAULT_VERIFY_BASE = 200
KERNEL_FAMILY = (200, 400, 800, 1600)


class CLIError(Exception):
    """Invalid flag combination or value; maps to exit status 2."""


def _parse_d_range(text: str) -> tuple:
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise CLIError(f"--D expects an integer or a range a:b, got {text!r}")
    if hi < lo:
        raise CLIError(f"empty --D range {text!r}")
    return tuple(range(lo, hi + 1))


def _parse_sign(text: str) -> int:
    if text in ("+", "+1", "1", "plus"):
        return 1
    if text in ("-", "-1", "minus"):
        return -1
    raise CLIError(f"--sign expects + or -, got {text!r}")


def _parse_points(text: str) -> tuple:
    try:
        pts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CLIError(f"--grid-points expects integers, got {text!r}")
    if any(p <= 0 for p in pts):
        raise CLIError("--grid-points must be positive")
    return pts


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


_CONTAINERS = (dict, list, tuple)


def _flat(container) -> bool:
    values = container.values() if isinstance(container, dict) else container
    return not any(isinstance(v, _CONTAINERS) for v in values)


def _indented_json(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=2) for obj at `depth`, its dict keys str.

    The stdlib runs its C encoder only without indent, so a flat container,
    or a list of non-empty flat dicts (a table's rows), is one encoder call
    with the newline and indentation in its item separator.  One replace
    then moves the row boundaries `},<newline><indent>{` to the list's
    indentation: the encoder escapes every newline inside a string, so the
    pattern occurs nowhere else.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if _flat(obj):
        text = json.JSONEncoder(separators=("," + inner, ": ")).encode(obj)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if isinstance(obj, dict):
        parts = [f"{json.dumps(k)}: {_indented_json(v, depth + 1)}"
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    if all(isinstance(r, dict) and r and _flat(r) for r in obj):
        row = inner + "  "
        text = json.JSONEncoder(separators=("," + row, ": ")).encode(obj)
        text = text[2:-2].replace("}," + row + "{",
                                  inner + "}," + inner + "{" + row)
        return "[" + inner + "{" + row + text + inner + "}" + outer + "]"
    parts = [_indented_json(v, depth + 1) for v in obj]
    return "[" + inner + ("," + inner).join(parts) + outer + "]"


def _render(ns: argparse.Namespace, columns: tuple, rows: list,
            json_obj: dict) -> str:
    """One deterministic string in the requested format.

    rows are sequences aligned with columns; json_obj is the full document
    for json output (insertion-ordered keys).
    """
    if ns.out_format == "json":
        return _indented_json(json_obj) + "\n"
    cells = [[_fmt(v) for v in row] for row in rows]
    if ns.out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(columns, *cells)]
    line = "  ".join(f"{{:{w}}}" for w in widths)
    lines = [line.format(*row).rstrip() for row in [columns, *cells]]
    return "\n".join(lines) + "\n"


def _write(ns: argparse.Namespace, payload: str) -> None:
    if ns.out_path:
        try:
            fh = open(ns.out_path, "w", newline="")
        except OSError as exc:
            raise CLIError(f"cannot write --out {ns.out_path}: "
                           f"{exc.strerror or exc}") from None
        with fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_spectrum(ns: argparse.Namespace) -> tuple:
    params = ns.params
    sector = kappa_of(params, ns.l, ns.sign)
    n_points = ns.grid_points[0] if ns.grid_points else DEFAULT_GRID_POINTS
    grid = default_grid(params, sector, n_points, ns.r_max)
    pairs = radial.solve_bound_levels(params, sector, grid, count=ns.levels)
    if not pairs:
        # The window ends 1e-12 m below m: Z alpha below about 1.4e-6 (at
        # D = 3) binds by less than that, and a box too small holds nothing.
        knobs = "--zalpha" + (" or --r-max" if ns.r_max is not None else "")
        raise SusyhError(
            f"no bound level in the window (0, m) on this grid at z_alpha = "
            f"{params.z_alpha:g}; pass a larger {knobs}")
    columns = ("D", "z_alpha", "l", "sign", "kappa", "level_index",
               "E_over_m", "norm_weight_small", "analytic_E_over_m",
               "abs_diff", "rel_diff")
    rows = []
    for k, pair in enumerate(pairs):
        exact = analytic.energy(params, analytic.level_label(sector, k))
        diff = pair.energy - exact
        rows.append([params.D, params.z_alpha, ns.l, ns.sign, sector.kappa, k,
                     pair.energy, pair.norm_weight_small, exact,
                     abs(diff), abs(diff) / exact])
    json_obj = {
        "command": "spectrum",
        "s": sector.s,
        "grid_points": n_points,
        "r_min": grid.r_min,
        "r_max": grid.r_max,
        "rows": [dict(zip(columns, r)) for r in rows],
    }
    return columns, rows, json_obj, ""


def _clifford_rows(D: int) -> list:
    rep = clifford.build_gamma_rep(D)
    report = clifford.verify_clifford(rep)
    return [{"name": f"D{D}:clifford:{row.name}",
             "norm_type": clifford.EXACT_EQUALITY,
             "residual": 0.0 if row.passed else 1.0,
             "refinement_order": None,
             "pass": row.passed} for row in report.rows]


def _susy_block_rows(ns: argparse.Namespace) -> list:
    params, abs_kappa = ns.params, ns.abs_kappa
    base = ns.grid_points[0] if ns.grid_points else DEFAULT_VERIFY_BASE
    plus_sector = susy.sector_pair(params, abs_kappa)[1]
    block = susy.build_susy_block(
        params, abs_kappa,
        grid=default_grid(params, plus_sector, base, ns.r_max))
    verification = susy.verify_A_squared(susy.build_A(block))
    prefix = f"D{params.D}:k{abs_kappa:g}:"
    rows = [dict(r.to_dict(), name=prefix + r.name)
            for r in verification.rows]
    pair_n = base * 4
    # Without --r-max the pairing picks its own box (susy._pairing_r_max).
    grid = None if ns.r_max is None \
        else default_grid(params, plus_sector, pair_n, ns.r_max)
    report = susy.spectral_pairing_at(params, abs_kappa, grid=grid,
                                      n_points=pair_n)
    rows.append({"name": prefix + "witten_index_is_one",
                 "norm_type": "count",
                 "residual": float(abs(report.witten_index - 1)),
                 "refinement_order": None,
                 "pass": report.witten_index == 1})
    rows.append({"name": prefix + "spectral_pairing_max_gap",
                 "norm_type": "energy_gap",
                 "residual": report.max_gap,
                 "refinement_order": None,
                 "pass": report.passed})
    return rows


def cmd_verify(ns: argparse.Namespace) -> tuple:
    if ns.clifford_only:
        for D in ns.D:  # the whole range, before any check runs
            clifford.spinor_dim(D)
        rows = [r for D in ns.D for r in _clifford_rows(D)]
    else:
        rows = _clifford_rows(ns.params.D) + _susy_block_rows(ns)
    columns = ("name", "norm_type", "residual", "refinement_order", "pass")
    table = [[r[c] for c in columns] for r in rows]
    failed = next((r["name"] for r in rows if not r["pass"]), "")
    json_obj = {"command": "verify", "rows": rows, "pass": not failed}
    return columns, table, json_obj, failed


def cmd_kernel(ns: argparse.Namespace) -> tuple:
    params = ns.params
    family = ns.grid_points or KERNEL_FAMILY
    report = susy.kernel_annihilation_report(params, ns.abs_kappa,
                                             n_points=family)
    failed = report.failed_gate(min_order=ns.min_order)
    passed = not failed
    columns = ("n_points", "residual", "ratio", "fitted_order",
               "rayleigh_quotient", "rq_rel_error", "pass")
    rows = []
    for j, (n, res) in enumerate(zip(report.n_points, report.residuals)):
        ratio = report.ratios[j - 1] if j else None
        rows.append([n, res, ratio, report.fitted_order,
                     report.rayleigh_quotient, report.rq_rel_error, passed])
    json_obj = {
        "command": "kernel",
        "D": params.D, "z_alpha": params.z_alpha, "abs_kappa": ns.abs_kappa,
        "n_points": list(report.n_points),
        "residuals": list(report.residuals),
        "ratios": list(report.ratios),
        "fitted_order": report.fitted_order,
        "rayleigh_quotient": report.rayleigh_quotient,
        "ground_exact": report.ground_exact,
        "rq_rel_error": report.rq_rel_error,
        "pass": passed,
    }
    return columns, rows, json_obj, failed


def cmd_levels(ns: argparse.Namespace) -> tuple:
    family = [PhysParams(D=d, z_alpha=ns.zalpha) for d in ns.D]
    rows = analytic.level_scheme_export(family, n_max=ns.n_max).rows
    bottoms = Counter()
    for r in rows:
        bottoms[r.D, r.l] += r.is_ladder_bottom
    bad = sorted(key for key, count in bottoms.items() if count != 1)
    columns = analytic.LevelScheme.COLUMNS
    json_obj = {
        "command": "levels",
        "z_alpha": ns.zalpha, "n_max": ns.n_max,
        "rows": [dict(zip(columns, r)) for r in rows],
        "pass": not bad,
    }
    failed = f"ladders without a unique bottom: {bad}" if bad else ""
    return columns, rows, json_obj, failed


def cmd_convergence(ns: argparse.Namespace) -> tuple:
    params = ns.params
    sector = kappa_of(params, ns.l, ns.sign)
    points = ns.grid_points or (200, 400, 800)
    grids = [default_grid(params, sector, n, ns.r_max) for n in points]
    report = radial.convergence_study(params, sector, grids, count=ns.levels)
    failed = "" if report.min_fitted_order >= ns.min_order else (
        f"min fitted order {report.min_fitted_order:.3f} < {ns.min_order}")
    columns = ("level_index", "n_points", "E_over_m", "exact_E_over_m",
               "abs_error", "ratio", "fitted_order")
    rows = []
    for lv in report.rows:
        for j, n in enumerate(report.n_points):
            ratio = lv.ratios[j - 1] if j else None
            rows.append([lv.level_index, n, lv.energies[j], lv.exact,
                         lv.errors[j], ratio, lv.fitted_order])
    json_obj = {
        "command": "convergence",
        "D": params.D, "z_alpha": params.z_alpha, "l": ns.l, "sign": ns.sign,
        "kappa": sector.kappa,
        "n_points": list(report.n_points),
        "min_fitted_order": report.min_fitted_order,
        "rows": [dict(zip(columns, r)) for r in rows],
        "pass": not failed,
    }
    return columns, rows, json_obj, failed


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "kernel": cmd_kernel,
    "levels": cmd_levels,
    "convergence": cmd_convergence,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building it costs about 1.5 ms."""
    parser = argparse.ArgumentParser(
        prog="susyh",
        description="Relativistic hydrogen in D spatial dimensions: spectra, "
                    "hidden-supersymmetry verification, level-scheme exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, z_alpha_default, grid=True, r_max=True):
        p.add_argument("--D", default=None,
                       help="spatial dimension, an integer or a range a:b")
        p.add_argument("--zalpha", type=float, default=z_alpha_default,
                       help="coupling Z*alpha")
        if grid:
            p.add_argument("--grid-points", default=None,
                           help="grid size, or a comma list for refinement "
                                "families")
        if grid and r_max:
            p.add_argument("--r-max", type=float, default=None,
                           help="outer radius in units of 1/m (default "
                                "scales with the sector)")
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text", dest="out_format")
        p.add_argument("--out", default=None, dest="out_path",
                       help="write output to a file instead of stdout")

    p = sub.add_parser("spectrum", help="numerical vs analytic bound levels")
    add_common(p, DEFAULT_Z_ALPHA)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--sign", default="+")
    p.add_argument("--levels", type=int, default=3,
                   help="number of bound levels")

    p = sub.add_parser("verify", help="run the identity suite")
    # None tells an explicit --zalpha apart, which --clifford-only rejects.
    add_common(p, None)
    p.add_argument("--abs-kappa", type=float, default=None, dest="abs_kappa",
                   help="|kappa| of the block (default: the smallest)")
    p.add_argument("--clifford-only", action="store_true",
                   help="gamma-matrix algebra checks only; --D may be a "
                        "range, and the block flags --grid-points, --r-max, "
                        "--abs-kappa and --zalpha are rejected")

    p = sub.add_parser("kernel", help="zero-mode annihilation study")
    # The study runs on each sector's default grid, so --r-max is rejected.
    add_common(p, DEFAULT_Z_ALPHA, r_max=False)
    p.add_argument("--abs-kappa", type=float, default=None, dest="abs_kappa")
    p.add_argument("--min-order", type=float, default=susy.MIN_KERNEL_ORDER)

    p = sub.add_parser("levels", help="level-scheme dataset across dimensions")
    add_common(p, DEFAULT_LEVELS_Z_ALPHA, grid=False)
    p.add_argument("--n-max", type=int, default=4, dest="n_max",
                   help="largest principal quantum number")

    p = sub.add_parser("convergence", help="eigenvalue error order study")
    add_common(p, DEFAULT_Z_ALPHA)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--sign", default="+")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--min-order", type=float,
                   default=radial.MIN_CONVERGENCE_ORDER)
    return parser


def _checked(ns: argparse.Namespace) -> argparse.Namespace:
    """Validate ns in place, parse its text values, and return it.

    Every command but levels and verify --clifford-only then needs a single
    --D and gets ns.params and the default --abs-kappa, (D-1)/2.
    """
    if ns.D is None:
        ns.D = (2, 3, 4, 5, 6, 7, 8, 9) if ns.command == "levels" \
            else (DEFAULT_D,)
    else:
        ns.D = _parse_d_range(ns.D)
    clifford_only = ns.command == "verify" and ns.clifford_only
    if clifford_only:
        block_flags = (("--grid-points", ns.grid_points), ("--r-max", ns.r_max),
                       ("--abs-kappa", ns.abs_kappa), ("--zalpha", ns.zalpha))
        given = [flag for flag, value in block_flags if value is not None]
        if given:
            raise CLIError(f"verify --clifford-only does not take "
                           f"{', '.join(given)}")
    if "grid_points" in ns:
        grid_text = ns.grid_points
        ns.grid_points = _parse_points(grid_text) if grid_text else ()
        family = ns.command in ("kernel", "convergence")
        if ns.grid_points and family != (len(ns.grid_points) > 1):
            shape = "a comma list of two or more sizes" if family \
                else "one size"
            raise CLIError(f"{ns.command} --grid-points takes {shape}, "
                           f"got {grid_text!r}")
    if "levels" in ns and ns.levels < 1:
        raise CLIError("--levels must be >= 1")
    if "n_max" in ns and ns.n_max < 1:
        raise CLIError("--n-max must be >= 1")
    if "r_max" in ns and ns.r_max is not None \
            and not 0 < ns.r_max < math.inf:
        raise CLIError(f"--r-max must be positive and finite, "
                       f"got {ns.r_max!r}")
    if "min_order" in ns and not math.isfinite(ns.min_order):
        raise CLIError(f"--min-order must be finite, got {ns.min_order!r}")
    if ns.zalpha is None:
        ns.zalpha = DEFAULT_Z_ALPHA
    if "sign" in ns:
        ns.sign = _parse_sign(ns.sign)
    if ns.command == "levels" or clifford_only:
        return ns
    if len(ns.D) != 1:
        raise CLIError(f"{ns.command} needs a single --D, got a range")
    ns.params = PhysParams(D=ns.D[0], z_alpha=ns.zalpha)
    if "abs_kappa" in ns and ns.abs_kappa is None:
        ns.abs_kappa = (ns.D[0] - 1) / 2
    return ns


def main(argv=None) -> int:
    """Run one command and return its exit status.

    Each cmd_* returns (columns, table rows, json document, failed gate),
    the gate "" on a pass; main alone renders, writes, and prints the
    `FAILED: <gate>` line, then the notices.
    """
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ns = _checked(ns)
            columns, rows, json_obj, failed = _COMMANDS[ns.command](ns)
            _write(ns, _render(ns, columns, rows, json_obj))
            if failed:
                print(f"FAILED: {failed}", file=sys.stderr)
                return EXIT_CHECK_FAILED
            return EXIT_OK
        except (CLIError, SusyhError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            for w in caught:
                print(f"notice: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
