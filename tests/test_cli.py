"""Command-line interface: schemas, exit codes, and byte determinism."""

import csv
import hashlib
import io
import json
import math
from dataclasses import replace

import pytest

from susyh import analytic, cli, clifford, radial, susy
from susyh.analytic import LevelScheme


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_spectrum_csv_schema(capsys):
    rc, out, err = run(capsys, ["spectrum", "--D", "3", "--format", "csv"])
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["D", "z_alpha", "l", "sign", "kappa", "level_index",
                      "E_over_m", "norm_weight_small", "analytic_E_over_m",
                      "abs_diff", "rel_diff"]
    assert len(rows) == 3
    first = dict(zip(header, rows[0]))
    assert float(first["rel_diff"]) < 1e-5
    assert abs(float(first["analytic_E_over_m"]) - math.sqrt(3) / 2) < 1e-15
    assert first["kappa"] == "1"


def test_spectrum_json_roundtrip(capsys):
    rc, out, _ = run(capsys, ["spectrum", "--D", "3", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "s", "grid_points", "r_min", "r_max",
                        "rows"}
    assert doc["grid_points"] == 800
    assert doc["s"] == math.sqrt(3) / 2
    row = doc["rows"][0]
    assert abs(row["E_over_m"] - row["analytic_E_over_m"]) == row["abs_diff"]


def test_spectrum_minus_sector_reference(capsys):
    rc, out, _ = run(capsys, ["spectrum", "--D", "3", "--sign", "-",
                              "--grid-points", "400", "--levels", "2",
                              "--format", "json"])
    assert rc == 0
    rows = json.loads(out)["rows"]
    # No nodeless level in the minus sector: index 0 references n' = 1.
    assert rows[0]["analytic_E_over_m"] == 0.9659258262890683
    assert all(r["rel_diff"] < 1e-4 for r in rows)


def test_spectrum_notice_on_unresolvable_levels(capsys):
    rc, out, err = run(capsys, ["spectrum", "--D", "3", "--levels", "9",
                                "--grid-points", "200", "--format", "csv"])
    assert rc == 0
    assert "notice:" in err
    _, rows = parse_csv(out)
    assert len(rows) == 7


def test_verify_json(capsys):
    rc, out, err = run(capsys, ["verify", "--D", "3", "--format", "json"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["pass"] is True
    rows = doc["rows"]
    assert len(rows) == 32
    for row in rows:
        assert set(row) == {"name", "norm_type", "residual",
                            "refinement_order", "pass"}
        assert row["pass"] is True
    names = {r["name"] for r in rows}
    assert "D3:clifford:anticommutator_0_1" in names
    assert "D3:k1:h_susy_equals_a_squared" in names
    assert "D3:k1:spectral_pairing_max_gap" in names
    assert "D3:k1:witten_index_is_one" in names
    exact = [r for r in rows if r["norm_type"] == "max_element_exact"]
    assert all(r["residual"] == 0.0 for r in exact)
    refined = [r for r in rows if r["refinement_order"] is not None]
    assert len(refined) == 3
    assert all(r["refinement_order"] > 1.8 for r in refined)


def test_verify_small_s_block_passes_by_default(capsys):
    # s = 0.3 stresses both defended paths: wall rows of the composed
    # identities sit at their roundoff floor, and the n' = 3 pair outlives
    # the 60-unit box, so the pairing grid must widen itself.
    rc, out, err = run(capsys, ["verify", "--D", "2", "--zalpha", "0.4",
                                "--abs-kappa", "0.5", "--format", "json"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["pass"] is True
    by_name = {r["name"]: r for r in doc["rows"]}
    assert 0.0 < by_name["D2:k0.5:spectral_pairing_max_gap"]["residual"] < 1e-5
    assert by_name["D2:k0.5:a_squared_identity"]["refinement_order"] > 1.9


def test_verify_r_max_sets_the_block_grid(capsys):
    # The default box at D = 3, Z alpha = 0.5 ends at 60 |kappa| / (Z alpha
    # m) = 120, so --r-max 120 reproduces the default run; any other radius
    # moves the refinement rows, not only the pairing rows.
    argv = ["verify", "--D", "3", "--format", "json"]
    default = run(capsys, argv)
    assert run(capsys, argv + ["--r-max", "120"]) == default
    wide = run(capsys, argv + ["--r-max", "200"])
    assert (default[0], default[2], wide[0], wide[2]) == (0, "", 0, "")

    def refinement_rows(out):
        return {r["name"]: r["residual"] for r in json.loads(out)["rows"]
                if r["refinement_order"] is not None}

    base, moved = refinement_rows(default[1]), refinement_rows(wide[1])
    assert len(base) == 3 and base.keys() == moved.keys()
    assert all(moved[name] != base[name] for name in base)
    # A box too short for the zero mode fails the block run itself.
    rc, out, err = run(capsys, ["verify", "--D", "3", "--r-max", "20"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: truncated weight")


@pytest.mark.parametrize("argv,tail", [
    (["verify", "--D", "3", "--r-max", "30"],
     "FAILED: D3:k1:spectral_pairing_max_gap\n"),
    (["convergence", "--D", "3", "--levels", "6", "--r-max", "30"],
     "error: grid with n_points=200 resolved only 3 of 6 levels\n"),
])
def test_library_warnings_become_notices(capsys, argv, tail):
    # notice lines follow the command's own stderr, with no raw warning text.
    rc, _, err = run(capsys, argv)
    assert rc in (1, 2)
    first, _, notices = err.partition("\n")
    assert first + "\n" == tail
    assert notices and all(line.startswith("notice: only ")
                           for line in notices.splitlines())
    assert "Warning" not in err


def test_verify_clifford_only_range(capsys):
    rc, out, _ = run(capsys, ["verify", "--clifford-only", "--D", "2:6",
                              "--format", "json"])
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert all(r["pass"] for r in rows)
    dims = {r["name"].split(":")[0] for r in rows}
    assert dims == {"D2", "D3", "D4", "D5", "D6"}


def test_clifford_only_range_is_checked_before_any_work(capsys, monkeypatch):
    # D = 31 alone costs about a second; D = 32 is past the spinor cap, so
    # the range must fail before the first check runs.
    calls = []
    monkeypatch.setattr(clifford, "verify_clifford",
                        lambda rep: calls.append(rep.D))
    rc, out, err = run(capsys, ["verify", "--clifford-only", "--D", "31:32"])
    assert (rc, out, calls) == (2, "", [])
    assert err == "error: spinor_dim 2^17 exceeds cap 65536 (D <= 31)\n"


def test_kernel_default_family(capsys):
    rc, out, _ = run(capsys, ["kernel", "--D", "3", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["n_points"] == [200, 400, 800, 1600]
    assert doc["fitted_order"] >= 1.9
    assert doc["rq_rel_error"] < 1e-5
    assert all(r >= 3.5 for r in doc["ratios"])


def test_kernel_second_block(capsys):
    rc, out, _ = run(capsys, ["kernel", "--D", "3", "--abs-kappa", "2",
                              "--grid-points", "200,400,800",
                              "--format", "json"])
    assert rc == 0
    assert json.loads(out)["abs_kappa"] == 2.0


def test_kernel_unreachable_order_fails(capsys):
    rc, out, err = run(capsys, ["kernel", "--D", "3", "--min-order", "3.0",
                                "--format", "json"])
    assert rc == 1
    assert json.loads(out)["pass"] is False


def test_levels_dataset(capsys):
    rc, out, err = run(capsys, ["levels", "--D", "2:9", "--format", "csv"])
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    assert tuple(header) == LevelScheme.COLUMNS
    assert len(rows) == 8 * 16  # n <= 4 gives 16 labels per dimension
    table = [dict(zip(header, r)) for r in rows]
    by_id = {r["id"]: r for r in table}
    for d in range(2, 10):
        for l in range(4):
            ladder = [r for r in table
                      if r["D"] == str(d) and r["l"] == str(l)]
            assert sum(r["is_ladder_bottom"] == "true" for r in ladder) == 1
    for row in table:
        if row["partner_id"]:
            partner = by_id[row["partner_id"]]
            assert partner["partner_id"] == row["id"]
            assert partner["E_over_m"] == row["E_over_m"]
        else:
            assert row["is_ladder_bottom"] == "true"


def test_levels_names_ladders_without_a_unique_bottom(capsys, monkeypatch):
    # A second bottom in (D, l) = (4, 0) and none in (3, 1): both are named,
    # ordered by D, then l.
    def corrupted(family, n_max):
        scheme = export(family, n_max)
        rows = []
        for r in scheme.rows:
            if r.D == 4 and r.l == 0 and not r.is_ladder_bottom:
                r = replace(r, is_ladder_bottom=True)
            elif r.D == 3 and r.l == 1:
                r = replace(r, is_ladder_bottom=False)
            rows.append(r)
        return replace(scheme, rows=tuple(rows))

    export = analytic.level_scheme_export
    monkeypatch.setattr(analytic, "level_scheme_export", corrupted)
    rc, out, err = run(capsys, ["levels", "--D", "3:4", "--n-max", "3",
                                "--format", "json"])
    assert rc == 1
    assert json.loads(out)["pass"] is False
    assert err == ("FAILED: ladders without a unique bottom: "
                   "[(3, 1), (4, 0)]\n")


def test_levels_respects_n_max(capsys):
    rc, out, _ = run(capsys, ["levels", "--D", "3", "--n-max", "2",
                              "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_max"] == 2 and doc["z_alpha"] == 0.4
    assert len(doc["rows"]) == 4


def test_convergence(capsys):
    rc, out, _ = run(capsys, ["convergence", "--D", "3", "--grid-points",
                              "100,200,400", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["min_fitted_order"] >= 1.8
    assert doc["n_points"] == [100, 200, 400]


def test_byte_identical_reruns(capsys):
    argv = ["levels", "--D", "2:5", "--format", "csv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["verify", "--clifford-only", "--D", "2:4", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_verify_zalpha_default_resolves_for_block_runs(capsys):
    # verify's --zalpha defaults to None so --clifford-only can tell an
    # explicit value apart; a block run without it uses DEFAULT_Z_ALPHA.
    argv = ["verify", "--D", "3", "--grid-points", "60", "--format", "json"]
    implicit = run(capsys, argv)
    explicit = run(capsys, argv + ["--zalpha", repr(cli.DEFAULT_Z_ALPHA)])
    assert implicit == explicit
    assert run(capsys, ["verify", "--clifford-only", "--D", "3"])[0] == 0


def test_verify_and_kernel_read_no_dense_view(capsys, monkeypatch):
    # The block and sector operators are stored as CSR and vectors; their
    # dense forms exist only for readers outside these paths.
    argvs = [["verify", "--D", "3", "--format", "json"],
             ["kernel", "--D", "3", "--format", "json"]]
    reference = [run(capsys, argv) for argv in argvs]

    def refuse(self):
        raise AssertionError("a dense view was read")

    for name in ("H_block", "K_block", "A_block"):
        monkeypatch.setattr(susy.SusyBlock, name, property(refuse))
    monkeypatch.setattr(radial.RadialOperator, "matrix", property(refuse))
    for argv, ref in zip(argvs, reference):
        got = run(capsys, argv)
        assert got[0] == 0
        assert got == ref


@pytest.mark.parametrize("out_format,digest", [
    ("text", "097da9e9d48a5fc275c7f08fd0765637343c689c415af1ad6c8eec3cc189dfed"),
    ("csv", "4ea8a9c4af9cf6b61dd0b6930ac4ad7b3668f4afc43817683b78bb5d322c4e61"),
    ("json", "a514f3f6e36f3c13370a9d6f32f7f6f77b739642ee4982ecf6ab9b240132960d"),
])
def test_clifford_output_is_pinned(capsys, out_format, digest):
    # sha256 of stdout as the per-product Monomial implementation printed
    # it, so a rewrite of the Clifford layer must keep every byte.
    rc, out, err = run(capsys, ["verify", "--clifford-only", "--D", "2:16",
                                "--format", out_format])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, ["levels", "--D", "3", "--out", str(path)])
    assert (rc, out) == (2, "")
    assert err == (f"error: cannot write --out {path}: "
                   "No such file or directory\n")


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["levels", "--D", "3", "--format", "csv"]
    _, stdout_text, _ = run(capsys, argv)
    path = tmp_path / "levels.csv"
    rc, out, _ = run(capsys, argv + ["--out", str(path)])
    assert rc == 0 and out == ""
    assert path.read_text() == stdout_text


@pytest.mark.parametrize("argv,needle", [
    (["spectrum", "--D", "2:5"], "single --D"),
    (["spectrum", "--D", "3", "--zalpha", "1.2"], "stability"),
    (["spectrum", "--D", "abc"], "--D"),
    (["spectrum", "--D", "5:2"], "empty"),
    (["spectrum", "--D", "3", "--sign", "x"], "--sign"),
    (["spectrum", "--D", "3", "--grid-points", "0"], "--grid-points"),
    (["spectrum", "--D", "3", "--grid-points", "a,b"], "--grid-points"),
    (["spectrum", "--D", "3", "--levels", "0"], "--levels"),
    (["levels", "--D", "3", "--n-max", "0"], "--n-max"),
    (["spectrum", "--D", "3", "--zalpha", "nan"], "z_alpha must be finite"),
    (["spectrum", "--D", "2", "--zalpha", "0.49999"], "underflowed"),
    (["kernel", "--D", "3", "--grid-points", "200,200"],
     "increasing n_points"),
    (["spectrum", "--D", "2", "--zalpha", "0.4999"], "wall_factor"),
    (["spectrum", "--D", "2", "--zalpha", "0.4996", "--format", "csv"],
     "wall_factor"),
    (["spectrum", "--D", "3", "--r-max", "0"], "--r-max must be positive"),
    (["spectrum", "--D", "3", "--r-max", "-5"], "--r-max must be positive"),
    (["spectrum", "--D", "3", "--r-max", "inf"], "--r-max must be positive"),
    (["convergence", "--D", "3", "--grid-points", "10"],
     "convergence --grid-points takes a comma list of two or more sizes"),
    (["kernel", "--D", "3", "--grid-points", "200"],
     "kernel --grid-points takes a comma list of two or more sizes"),
    (["spectrum", "--D", "3", "--grid-points", "200,400"],
     "spectrum --grid-points takes one size"),
    (["verify", "--D", "3", "--grid-points", "200,400"],
     "verify --grid-points takes one size"),
    # Flags a command would ignore are rejected, naming the flag.
    (["levels", "--D", "3", "--n-max", "1", "--grid-points", "5"],
     "unrecognized arguments: --grid-points 5"),
    (["levels", "--D", "3", "--n-max", "1", "--r-max", "3"],
     "unrecognized arguments: --r-max 3"),
    (["verify", "--clifford-only", "--D", "3", "--grid-points", "5"],
     "verify --clifford-only does not take --grid-points"),
    (["verify", "--clifford-only", "--D", "3", "--r-max", "3"],
     "verify --clifford-only does not take --r-max"),
    (["verify", "--clifford-only", "--D", "3", "--abs-kappa", "9"],
     "verify --clifford-only does not take --abs-kappa"),
    (["verify", "--clifford-only", "--D", "3", "--grid-points", "5",
      "--r-max", "3", "--abs-kappa", "9"],
     "does not take --grid-points, --r-max, --abs-kappa"),
    (["kernel", "--D", "3", "--r-max", "3"],
     "unrecognized arguments: --r-max 3"),
    (["verify", "--clifford-only", "--D", "3", "--zalpha", "5"],
     "verify --clifford-only does not take --zalpha"),
    # The block's sector assembly runs the bisection overflow guard.
    (["verify", "--D", "2", "--zalpha", "0.4998"], "wall_factor"),
    (["verify", "--D", "2", "--zalpha", "0.4999"], "wall_factor"),
    # Out-of-range numbers are named instead of overflowing.
    (["verify", "--D", "3", "--abs-kappa", "inf"], "abs_kappa must be finite"),
    (["verify", "--D", "3", "--abs-kappa", "1e300"],
     "abs_kappa must be finite"),
    (["kernel", "--D", "3", "--abs-kappa", "nan"], "abs_kappa must be finite"),
    (["spectrum", "--D", "3", "--l", "1" + "0" * 400],
     "kappa^2 overflows a double"),
    (["spectrum", "--D", "1" + "0" * 400], "within double range"),
    (["verify", "--clifford-only", "--D", "1" + "0" * 400], "exceeds cap"),
    (["kernel", "--D", "3", "--min-order", "nan"],
     "--min-order must be finite"),
    (["convergence", "--D", "3", "--min-order", "inf"],
     "--min-order must be finite"),
])
def test_usage_errors(capsys, argv, needle):
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert needle in err
    assert "math domain" not in err


@pytest.mark.parametrize("argv,failed", [
    (["verify", "--D", "3", "--zalpha", "0.99"],
     "FAILED: D3:k1:spectral_pairing_max_gap"),
    (["verify", "--D", "2", "--zalpha", "0.49"],
     "FAILED: D2:k0.5:kernel_annihilation"),
    (["kernel", "--D", "3", "--zalpha", "0.99"], ""),
    (["kernel", "--D", "2", "--zalpha", "0.49"], ""),
])
def test_small_s_blocks_get_a_verdict(capsys, argv, failed):
    # s = 0.141 and 0.0995: the wall cusp dominates every residual at these
    # grids, and the checks say so (exit 1) instead of the run crashing.
    rc, out, err = run(capsys, argv + ["--format", "json"])
    assert rc == 1
    assert json.loads(out)["pass"] is False
    assert err == (failed + "\n" if failed else "")


def test_cached_parser_matches_fresh_parser(capsys):
    # One process: several subcommands, a usage error, then a valid call.
    argvs = [
        ["levels", "--D", "3", "--n-max", "2", "--format", "csv"],
        ["spectrum", "--D", "3", "--sign", "-", "--grid-points", "200",
         "--levels", "2"],
        ["kernel", "--D", "3", "--grid-points", "200,400,800",
         "--format", "json"],
        ["spectrum", "--format", "yaml"],
        ["verify", "--clifford-only", "--D", "2:4", "--format", "json"],
        ["convergence", "--D", "3", "--grid-points", "100,200,400"],
    ]
    cached = [run(capsys, argv) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    for argv, got in zip(argvs, cached):
        cli.build_parser.cache_clear()
        assert run(capsys, argv) == got
    assert cached[3][0] == 2 and cached[-1][0] == 0


def test_argparse_errors_map_to_usage_exit(capsys):
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["spectrum", "--format", "yaml"]) == 2
    capsys.readouterr()


def test_text_format_is_aligned(capsys):
    rc, out, _ = run(capsys, ["levels", "--D", "3", "--n-max", "2"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("id")
    assert len(lines) == 5
    assert all(not line.endswith(" ") for line in lines)
