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


def _render(ns: argparse.Namespace, columns: tuple, rows: list,
            json_obj: dict) -> str:
    """One deterministic string in the requested format.

    rows are sequences aligned with columns; json_obj is the full document
    for json output (insertion-ordered keys).
    """
    if ns.out_format == "json":
        return json.dumps(json_obj, indent=2) + "\n"
    cells = [[_fmt(v) for v in row] for row in rows]
    if ns.out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [len(c) for c in columns]
    for row in cells:
        widths = [max(w, len(v)) for w, v in zip(widths, row)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
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


def _make_params(ns: argparse.Namespace, D: int) -> PhysParams:
    try:
        return PhysParams(D=D, z_alpha=ns.zalpha)
    except ValueError as exc:
        raise CLIError(str(exc))


def _grid_for(ns: argparse.Namespace, sector, n_points: int):
    params = ns.params
    if ns.r_max is None:
        return default_grid(params, sector, n_points=n_points)
    unit = sector.abs_kappa / (params.z_alpha * params.m)
    return default_grid(params, sector, n_points=n_points,
                        r_max_factor=ns.r_max / unit)


def cmd_spectrum(ns: argparse.Namespace) -> int:
    params = ns.params
    sector = kappa_of(params, ns.l, ns.sign)
    n_points = ns.grid_points[0] if ns.grid_points else DEFAULT_GRID_POINTS
    grid = _grid_for(ns, sector, n_points)
    pairs = radial.solve_bound_levels(params, sector, grid, count=ns.levels)
    columns = ("D", "z_alpha", "l", "sign", "kappa", "level_index",
               "E_over_m", "norm_weight_small", "analytic_E_over_m",
               "abs_diff", "rel_diff")
    rows = []
    for k, pair in enumerate(pairs):
        n_prime = k if ns.sign > 0 else k + 1
        label = analytic.LevelLabel(n=ns.l + 1 + n_prime, l=ns.l,
                                    sign=ns.sign)
        exact = analytic.energy(params, label)
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
    _write(ns, _render(ns, columns, rows, json_obj))
    return EXIT_OK


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
    block = susy.build_susy_block(params, abs_kappa,
                                  grid=_grid_for(ns, plus_sector, base))
    verification = susy.verify_A_squared(susy.build_A(block))
    prefix = f"D{params.D}:k{abs_kappa:g}:"
    rows = [dict(r.to_dict(), name=prefix + r.name)
            for r in verification.rows]
    pair_n = base * 4
    if ns.r_max is None:
        report = susy.spectral_pairing_at(params, abs_kappa, n_points=pair_n)
    else:
        grid = _grid_for(ns, plus_sector, pair_n)
        report = susy.spectral_pairing_at(params, abs_kappa, grid=grid)
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


def cmd_verify(ns: argparse.Namespace) -> int:
    if ns.clifford_only:
        for D in ns.D:  # the whole range, before any check runs
            clifford.spinor_dim(D)
        rows = [r for D in ns.D for r in _clifford_rows(D)]
    else:
        rows = _clifford_rows(ns.params.D) + _susy_block_rows(ns)
    columns = ("name", "norm_type", "residual", "refinement_order", "pass")
    table = [[r[c] for c in columns] for r in rows]
    all_passed = all(r["pass"] for r in rows)
    json_obj = {"command": "verify", "rows": rows, "pass": all_passed}
    _write(ns, _render(ns, columns, table, json_obj))
    if not all_passed:
        first = next(r["name"] for r in rows if not r["pass"])
        print(f"FAILED: {first}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_kernel(ns: argparse.Namespace) -> int:
    params = ns.params
    family = ns.grid_points or KERNEL_FAMILY
    report = susy.kernel_annihilation_report(params, ns.abs_kappa,
                                             n_points=family)
    passed = report.passed(min_order=ns.min_order)
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
    _write(ns, _render(ns, columns, rows, json_obj))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_levels(ns: argparse.Namespace) -> int:
    family = [_make_params(ns, d) for d in ns.D]
    rows = analytic.level_scheme_export(family, n_max=ns.n_max).rows
    bottoms = Counter()
    for r in rows:
        bottoms[r.D, r.l] += r.is_ladder_bottom
    bad = sorted(key for key, count in bottoms.items() if count != 1)
    columns = analytic.LevelScheme.COLUMNS
    table = [[getattr(r, c) for c in columns] for r in rows]
    json_obj = {
        "command": "levels",
        "z_alpha": ns.zalpha, "n_max": ns.n_max,
        "rows": [dict(zip(columns, t)) for t in table],
        "pass": not bad,
    }
    _write(ns, _render(ns, columns, table, json_obj))
    if bad:
        print(f"FAILED: ladders without a unique bottom: {bad}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_convergence(ns: argparse.Namespace) -> int:
    params = ns.params
    sector = kappa_of(params, ns.l, ns.sign)
    points = ns.grid_points or (200, 400, 800)
    grids = [_grid_for(ns, sector, n) for n in points]
    report = radial.convergence_study(params, sector, grids, count=ns.levels)
    passed = report.min_fitted_order >= ns.min_order
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
        "pass": passed,
    }
    _write(ns, _render(ns, columns, rows, json_obj))
    if not passed:
        print(f"FAILED: min fitted order {report.min_fitted_order:.3f} "
              f"< {ns.min_order}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


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
    p.add_argument("--min-order", type=float, default=1.9)

    p = sub.add_parser("levels", help="level-scheme dataset across dimensions")
    add_common(p, DEFAULT_LEVELS_Z_ALPHA, grid=False)
    p.add_argument("--n-max", type=int, default=4, dest="n_max",
                   help="largest principal quantum number")

    p = sub.add_parser("convergence", help="eigenvalue error order study")
    add_common(p, DEFAULT_Z_ALPHA)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--sign", default="+")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--min-order", type=float, default=1.8)
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
    ns.params = _make_params(ns, ns.D[0])
    if "abs_kappa" in ns and ns.abs_kappa is None:
        ns.abs_kappa = (ns.D[0] - 1) / 2
    return ns


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return _COMMANDS[ns.command](_checked(ns))
        except (CLIError, SusyhError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            for w in caught:
                print(f"notice: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
