"""Command-line interface: schemas, exit codes, and byte determinism."""

import csv
import io
import json
import math

import pytest

from susyh import cli
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


def test_verify_clifford_only_range(capsys):
    rc, out, _ = run(capsys, ["verify", "--clifford-only", "--D", "2:6",
                              "--format", "json"])
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert all(r["pass"] for r in rows)
    dims = {r["name"].split(":")[0] for r in rows}
    assert dims == {"D2", "D3", "D4", "D5", "D6"}


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


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["levels", "--D", "3", "--format", "csv"]
    _, stdout_text, _ = run(capsys, argv)
    path = tmp_path / "levels.csv"
    rc, out, _ = run(capsys, argv + ["--out", str(path)])
    assert rc == 0 and out == ""
    assert path.read_text() == stdout_text


def test_thread_cap_does_not_change_output(capsys, monkeypatch):
    argv = ["verify", "--clifford-only", "--D", "2:6", "--format", "json"]
    monkeypatch.setenv("SUSYH_THREADS", "1")
    _, serial, _ = run(capsys, argv)
    monkeypatch.setenv("SUSYH_THREADS", "3")
    _, threaded, _ = run(capsys, argv)
    assert serial == threaded


def test_thread_cap_validation(capsys, monkeypatch):
    monkeypatch.setenv("SUSYH_THREADS", "zebra")
    rc, _, err = run(capsys, ["levels", "--D", "2:4"])
    assert rc == 2 and "error:" in err
    monkeypatch.setenv("SUSYH_THREADS", "0")
    rc, _, err = run(capsys, ["levels", "--D", "2:4"])
    assert rc == 2


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
])
def test_usage_errors(capsys, argv, needle):
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert needle in err


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
