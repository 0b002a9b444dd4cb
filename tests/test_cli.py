import json

import numpy as np
import pytest

from linksim.cli import CSV_HEADER, main


def run_cli(args):
    return main(args)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--scenario", "fig4a_red", "--points", "11",
                    "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 11
    # the p=q=1 config starts at the separable baseline and ends at 1
    assert float(rows[0][3]) == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-8)
    # oracle column populated for the depolarizing family
    assert rows[5][4] != ""
    assert float(rows[5][3]) == pytest.approx(float(rows[5][4]), abs=1e-8)
    assert "fidelity range" in capsys.readouterr().out


def test_sweep_stdout_default(capsys):
    code = run_cli(["sweep", "--scenario", "fig4a_green", "--points", "3"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_sweep_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run_cli(["sweep", "--scenario", "fig8_green", "--points", "7",
                 "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_no_oracle_flag(tmp_path):
    out = tmp_path / "s.csv"
    run_cli(["sweep", "--scenario", "fig4a_red", "--points", "3",
             "--no-oracle", "--out", str(out)])
    for row in read_rows(out):
        assert row[4] == ""


def test_grid_command(tmp_path):
    out = tmp_path / "grid.csv"
    code = run_cli(["grid", "--scenario", "fig4a_red", "--points", "3",
                    "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 9
    assert {r[1] for r in rows[:3]} == {"0", "0.5", "1"}


def test_unknown_scenario_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--scenario", "missing_scenario"])
    assert exc.value.code == 3


def test_missing_scenario_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--points", "3"])
    assert exc.value.code == 2


def test_bad_config_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--config", str(bad)])
    assert exc.value.code == 2


def test_config_file_with_inline_scenario(tmp_path):
    s3 = 1.0 / np.sqrt(3.0)
    cfg = {
        "scenario": {
            "name": "inline",
            "family": "bell_depolarizing",
            "n": 2,
            "alpha": [0, s3, -s3, -s3],
            "beta": [0, -s3, s3, s3],
        },
        "sweep": {"start": 1.0, "stop": 1.0, "points": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    code = run_cli(["sweep", "--config", str(path), "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-8)


def test_inline_custom_family_is_a_config_error(tmp_path, capsys):
    cfg = {"scenario": {"family": "custom", "n": 2,
                        "alpha": [1, 0, 0, 0], "beta": [1, 0, 0, 0]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    assert "bad inline scenario" in capsys.readouterr().err


def test_dump_config_round_trip(tmp_path, capsys):
    code = run_cli(["sweep", "--scenario", "fig4a_red", "--points", "5",
                    "--dump-config"])
    assert code == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["scenario"] == "fig4a_red"
    assert dumped["sweep"]["points"] == 5
    # the dumped config is itself a valid config file
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dumped))
    out = tmp_path / "out.csv"
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert len(read_rows(out)) == 5


def test_verify_exits_zero(capsys):
    assert run_cli(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_optimize_writes_json(tmp_path):
    out = tmp_path / "opt.json"
    code = run_cli(["optimize", "--scenario", "cor1_p1", "--p", "1.0",
                    "--restarts", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["best_fidelity"] == pytest.approx(1.0, abs=1e-6)
    for vec in payload["best_config"]:
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-8)


def test_optimize_requires_p():
    with pytest.raises(SystemExit) as exc:
        run_cli(["optimize", "--scenario", "cor1_p1"])
    assert exc.value.code == 2


def test_walk_csv(tmp_path):
    out = tmp_path / "walk.csv"
    code = run_cli(["walk", "--positions", "16", "--steps", "4",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,position,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5 * 16
    for step in range(5):
        total = sum(float(r[2]) for r in rows if r[0] == str(step))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_walk_unknown_coin():
    with pytest.raises(SystemExit):
        run_cli(["walk", "--coin", "nope"])
