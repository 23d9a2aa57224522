import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import tlschur
from tlschur.cli import run
from tlschur.weights import DecompTable, decomposition_matrix, projective_column


def out_of(capsys):
    cap = capsys.readouterr()
    return cap.out


def test_decomp_csv_matches_packaged_table(capsys):
    assert run(["decomp", "--d", "46"]) == 0
    out = out_of(capsys)
    packaged = resources.files("tlschur").joinpath("data/decomp_s2_46.csv").read_text()
    assert out == packaged == decomposition_matrix(46).to_csv()


def test_decomp_json_round_trip(capsys):
    assert run(["decomp", "--d", "8", "--format", "json"]) == 0
    table = DecompTable.from_json(out_of(capsys))
    assert table.to_csv() == decomposition_matrix(8).to_csv()


def test_decomp_pretty(capsys):
    assert run(["decomp", "--d", "4", "--format", "pretty"]) == 0
    out = out_of(capsys)
    assert "4" in out and "1" in out


def test_decomp_rejects_odd_degree():
    with pytest.raises(SystemExit) as exc:
        run(["decomp", "--d", "5"])
    assert exc.value.code == 2


def test_tilting_json(capsys):
    assert run(["tilting", "--m", "6", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj == {
        "m": 6,
        "standard_weights": [0, 2, 4, 6],
        "twisted_filtration": [[0, 2], [4, 6]],
    }


def test_tilting_json_odd_weight_has_no_pairs(capsys):
    assert run(["tilting", "--m", "5", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["standard_weights"] == [1, 5]
    assert obj["twisted_filtration"] is None


def test_tilting_csv(capsys):
    assert run(["tilting", "--m", "6", "--format", "csv"]) == 0
    assert out_of(capsys) == "kind,values\nstandard,0 2 4 6\npair,0 2\npair,4 6\n"


def test_projective_json(capsys):
    assert run(["projective", "--d", "28", "--m", "18", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["domdim"] == "infinity"
    assert obj["column"] == sorted(projective_column(28, 18))
    assert obj["column_size"] == len(projective_column(28, 18))
    assert run(["projective", "--d", "28", "--m", "16", "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["domdim"] == 28


def test_domdim_report_json(capsys):
    assert run(["domdim", "--d", "6"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["d"] == 6
    assert obj["domdim_regular"] == 6
    assert obj["domdim_tilting"] == 3
    assert obj["hn_dim"] == 1
    assert isinstance(obj["notes"], list)


def test_domdim_report_pretty(capsys):
    assert run(["domdim", "--d", "6", "--format", "pretty"]) == 0
    out = out_of(capsys)
    assert "domdim_regular: 6" in out and "hn_dim: 1" in out


def test_hn_single_value(capsys):
    assert run(["hn", "--d", "20", "--ring", "field-qchar2"]) == 0
    assert out_of(capsys) == "8\n"
    assert run(["hn", "--d", "2", "--ring", "field-qchar2"]) == 0
    assert out_of(capsys) == "-1\n"
    assert run(["hn", "--d", "2", "--ring", "integral-nondivisible"]) == 0
    assert out_of(capsys) == "0\n"


def test_hn_range_csv(capsys):
    assert run(["hn", "--d-range", "2:20", "--ring", "field-qchar2"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "d,domdim_tilting,hn_dim"
    assert "2,1,-1" in lines
    assert "20,10,8" in lines
    assert len(lines) == 20


def test_hn_needs_exactly_one_degree_flag(capsys):
    assert run(["hn", "--d", "4", "--d-range", "2:6", "--ring", "field-qchar2"]) == 2
    assert run(["hn", "--ring", "field-qchar2"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of" in err


def test_tl_word(capsys):
    assert run(["tl", "--d", "3", "--word", "U1 U2 U1"]) == 0
    out = out_of(capsys)
    assert "0 violations" in out
    assert "word U1 U2 U1 =" in out


def test_tl_gf5_delta_zero(capsys):
    assert run(["tl", "--d", "5", "--delta", "0", "--field", "GF(5)"]) == 0
    assert "0 violations" in out_of(capsys)


def test_tl_usage_errors(capsys):
    assert run(["tl", "--d", "3", "--word", "Ux"]) == 2
    assert run(["tl", "--d", "3", "--word", "U9"]) == 2
    assert run(["tl", "--d", "3", "--field", "GF(6)"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err


def test_verify_degree_2(capsys):
    assert run(["verify", "--d", "2", "--config", "gf2-u1"]) == 0
    lines = out_of(capsys).splitlines()
    verdicts = [json.loads(ln) for ln in lines]
    assert len(verdicts) == 13
    ids = [v["check_id"] for v in verdicts]
    assert ids == sorted(ids)
    assert {"oracle_regular_domdim", "oracle_delta0_not_summand"} <= set(ids)
    assert all(v["pass"] for v in verdicts)
    assert all(v["d"] == 2 and v["config"] == "gf2-u1" for v in verdicts)


@pytest.mark.parametrize("config", ["gf2-u1", "gf5-u2"])
def test_verify_degree_4_output_is_pinned(config):
    # every verdict line and every progress line, byte for byte; a fresh process, so
    # the progress lines of building the cached Schur algebra are printed too
    data = Path(__file__).parent / "data"
    env = {**os.environ, "PYTHONPATH": str(Path(tlschur.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "tlschur.cli", "verify", "--d", "4", "--config", config, "--progress"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (data / f"verify-d4-{config}.stdout").read_text()
    assert proc.stderr == (data / f"verify-d4-{config}.stderr").read_text()


def test_output_file_matches_stdout(tmp_path, capsys):
    assert run(["decomp", "--d", "12"]) == 0
    stdout_bytes = out_of(capsys)
    path = tmp_path / "table.csv"
    assert run(["decomp", "--d", "12", "-o", str(path)]) == 0
    assert path.read_text() == stdout_bytes


def test_deterministic_output(capsys):
    run(["decomp", "--d", "12"])
    first = out_of(capsys)
    run(["decomp", "--d", "12"])
    assert out_of(capsys) == first


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["decomp", "--d", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["hn", "--d", "4", "--ring", "made-up"])
    assert exc.value.code == 2


def test_module_entry_point_matches_run(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "tlschur.cli", "decomp", "--d", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert run(["decomp", "--d", "4"]) == 0
    assert proc.stdout == out_of(capsys)
