import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import linksim
from linksim import channels, cli, scenarios, walk
from linksim.cli import CSV_HEADER, main
from linksim.linalg import LinalgError, LinksimError

S2 = 1.0 / np.sqrt(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"
# output paths in a directory that does not exist and under a file
UNWRITABLE = str(Path(__file__).resolve().parent / "no-such-directory" / "out")
UNDER_A_FILE = str(Path(__file__).resolve() / "out")


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


def test_unknown_scenario_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--scenario", "missing_scenario"])
    assert exc.value.code == 3
    # printed plain, not quoted as a KeyError would be
    assert capsys.readouterr().err.startswith(
        "error: unknown scenario 'missing_scenario'; known: ")


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


@pytest.mark.parametrize("command", ["sweep", "grid"])
@pytest.mark.parametrize("policy", ["plus_only", "all_outcomes"])
def test_inline_scenario_is_built_once(command, policy, tmp_path, monkeypatch):
    # an inline spec and the builtin it copies are each built once, by the
    # sweep at its first point, and write the same bytes
    spec = scenarios.builtin("prop5_p05")
    inline = {"family": spec.family, "n": spec.n,
              "amps": [v.real.tolist() for v in spec.config.vectors]}
    build = scenarios.build_scenario
    builds, written = [], []

    def counted(spec, *noise):
        builds.append(noise)
        return build(spec, *noise)

    monkeypatch.setattr(scenarios, "build_scenario", counted)
    for scenario in (inline, spec.name):
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({
            "scenario": scenario, "sweep": {"start": 0.2, "stop": 0.9, "points": 3},
            "outcome_policy": policy}))
        assert run_cli([command, "--config", str(path), "--out", str(out)]) == 0
        assert builds == [(0.2, 0.2)]
        builds.clear()
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_inline_custom_family_is_a_config_error(tmp_path, capsys):
    cfg = {"scenario": {"family": "custom", "n": 2,
                        "alpha": [1, 0, 0, 0], "beta": [1, 0, 0, 0]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    assert "bad inline scenario" in capsys.readouterr().err


@pytest.mark.parametrize("family", [["bell_depolarizing"], {"a": 1}])
def test_inline_unhashable_family_is_an_unknown_family(family, tmp_path, capsys):
    # a JSON list or object as the family is unknown, not a TypeError
    cfg = {"scenario": {"family": family, "amps": [[1, 0, 0, 0], [1, 0, 0, 0]]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        f"error: bad inline scenario: unknown family {family!r}\n"


def test_optimize_of_an_ideal_family_names_it(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["optimize", "--scenario", "ideal_bell", "--p", "0.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        "error: family 'ideal_bell' has no free vacuum amplitudes\n"


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


@pytest.mark.parametrize("command", ["sweep", "grid", "optimize"])
def test_dump_config_shows_the_scenario_override(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "fig4a_red", "p": 0.5}))
    code = run_cli([command, "--config", str(path), "--scenario", "fig8_green",
                    "--dump-config"])
    assert code == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["scenario"] == "fig8_green"
    if command == "grid":
        run_cli(["sweep", "--scenario", "fig8_green", "--dump-config"])
        assert dumped.keys() == json.loads(capsys.readouterr().out).keys()
        assert dumped["sweep"]["lock_q_to_p"] is False


# command -> flags that set every flag-settable key to a non-default value
ROUND_TRIP = {
    **{command: ["--scenario", "fig8_green", "--start", "0.25", "--stop", "0.75",
                 "--points", "3", "--no-oracle"] for command in ("sweep", "grid")},
    "optimize": ["--scenario", "cor1_p05", "--p", "0.5", "--q", "0.25",
                 "--seed", "3", "--restarts", "2"],
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_dumped_config_reruns_the_same_command(command, tmp_path, capsys):
    out = tmp_path / "artifact"
    argv = [command, *ROUND_TRIP[command], "--out", str(out)]
    assert run_cli([*argv, "--dump-config"]) == 0
    assert not out.exists()
    dumped = capsys.readouterr().out
    path = tmp_path / "cfg.json"
    path.write_text(dumped)
    assert run_cli(argv) == 0
    expected = out.read_bytes()
    out.unlink()
    assert run_cli([command, "--config", str(path)]) == 0
    assert out.read_bytes() == expected
    capsys.readouterr()
    assert run_cli([command, "--config", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


# (command, key path, file value, flags, value the flags give); every file
# value differs from the default, so the file is seen to be read
_SWEEP_KEYS = [
    (("scenario",), "fig4a_red", ["--scenario", "fig8_green"], "fig8_green"),
    (("sweep", "start"), 0.25, ["--start", "0.5"], 0.5),
    (("sweep", "stop"), 0.75, ["--stop", "0.5"], 0.5),
    (("sweep", "points"), 7, ["--points", "3"], 3),
    (("emit_oracle",), True, ["--no-oracle"], False),
    (("out",), "file.csv", ["--out", "flag.csv"], "flag.csv"),
]
FLAG_OVER_FILE = [
    *[("sweep", *case) for case in _SWEEP_KEYS],
    *[("grid", *case) for case in _SWEEP_KEYS],
    ("optimize", ("scenario",), "fig4a_red", ["--scenario", "fig8_green"],
     "fig8_green"),
    ("optimize", ("p",), 0.25, ["--p", "0.5"], 0.5),
    ("optimize", ("q",), 0.25, ["--q", "0.5"], 0.5),
    ("optimize", ("seed",), 3, ["--seed", "4"], 4),
    ("optimize", ("restarts",), 3, ["--restarts", "4"], 4),
    ("optimize", ("out",), "file.json", ["--out", "flag.json"], "flag.json"),
]


@pytest.mark.parametrize("command,key,file_value,flags,flag_value", FLAG_OVER_FILE,
                         ids=[f"{c[0]}-{'.'.join(c[1])}" for c in FLAG_OVER_FILE])
def test_a_flag_overrides_its_config_key(command, key, file_value, flags,
                                         flag_value, tmp_path, capsys):
    cfg = {"scenario": "fig4a_red", "p": 0.5}
    *outer, last = key
    table = cfg
    for name in outer:
        table = table.setdefault(name, {})
    table[last] = file_value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def dumped(*extra):
        assert run_cli([command, "--config", str(path), *extra,
                        "--dump-config"]) == 0
        value = json.loads(capsys.readouterr().out)
        for name in key:
            value = value[name]
        return value

    assert dumped() == file_value
    assert dumped(*flags) == flag_value


def _walk(tmp_path, flags, cfg):
    """The CSV a walk writes to ``out.csv`` given ``flags`` and the config
    file ``cfg``."""
    out = tmp_path / "out.csv"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["walk", *flags, "--config", str(path)]) == 0
    text = out.read_text()
    out.unlink()
    return text


WALK_FILE = {"coin": "x", "positions": 8, "steps": 3}
WALK_FLAG = {"coin": "identity", "positions": 6, "steps": 2}


def test_walk_config_keys_match_their_flags(tmp_path):
    out = str(tmp_path / "out.csv")
    flags = [f"--{key}={value}" for key, value in {**WALK_FILE, "out": out}.items()]
    by_file = _walk(tmp_path, [], {**WALK_FILE, "out": out})
    assert by_file == _walk(tmp_path, flags, {})
    assert by_file.count("\n") == 1 + 4 * 8


@pytest.mark.parametrize("key", [*WALK_FLAG, "out"])
def test_walk_flag_overrides_its_config_key(key, tmp_path):
    out = str(tmp_path / "out.csv")
    file_cfg = {**WALK_FILE, "out": out}
    flag_cfg = {**WALK_FLAG, "out": out}
    if key == "out":
        file_cfg["out"] = str(tmp_path / "file.csv")
    got = _walk(tmp_path, [f"--{key}={flag_cfg[key]}"], file_cfg)
    assert got == _walk(tmp_path, [], {**file_cfg, key: flag_cfg[key]})
    assert not (tmp_path / "file.csv").exists()
    if key != "out":
        assert got != _walk(tmp_path, [], file_cfg)


def test_sweep_with_only_zero_probability_outcomes(tmp_path, capsys):
    # the plus outcome of these amplitudes never fires at p = 0, so the
    # only reported outcome is dropped and no record is left
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": {"family": "bell_depolarizing", "alpha": [1, 0, 0, 0],
                     "beta": [-1, 0, 0, 0]},
        "sweep": {"start": 0.0, "stop": 0.0, "points": 1}}))
    out = tmp_path / "out.csv"
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text() == CSV_HEADER + "\n"
    assert capsys.readouterr().out == f"custom: 0 records -> {out}\n"


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


def test_walk_on_more_positions_than_a_dense_operator_allows(tmp_path):
    # (2 x 2000)^2 complex entries would be 256 MB; rows still cap the walk
    out = tmp_path / "walk.csv"
    assert run_cli(["walk", "--positions", "2000", "--steps", "3",
                    "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 4 * 2000
    with pytest.raises(SystemExit) as exc:
        run_cli(["walk", "--positions", "2000", "--steps", "500"])
    assert exc.value.code == 2


def test_walk_writes_its_rows_as_they_are_made(tmp_path, capsys):
    """A 64-position walk of 1500 steps writes 96,065 lines, about 2.3 MB;
    its tracemalloc peak stays below 0.25 MB, as a 40-step walk's does
    (0.12 and 0.04 MB), where joining the rows before writing them read
    9.7 and 0.25 MB. The file holds the bytes the walk prints to stdout."""
    out = tmp_path / "walk.csv"
    assert run_cli(["walk", "--positions", "64", "--steps", "1"]) == 0
    printed = capsys.readouterr().out
    assert run_cli(["walk", "--positions", "64", "--steps", "1",
                    "--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()
    for steps in (40, 1500):
        tracemalloc.start()
        try:
            assert run_cli(["walk", "--positions", "64", "--steps", str(steps),
                            "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18
    assert out.read_text().count("\n") == 1 + 1501 * 64


def test_sweep_and_grid_write_their_rows_as_they_are_made(tmp_path, capsys):
    """A grid's tracemalloc peak stays below 1 MB at 40^2 and at 120^2
    points, where holding every record and row before writing read 0.97
    and 8.5 MB. Both commands write to a file the bytes they print, and
    the summary's count and fidelity range are the file's."""
    out = tmp_path / "grid.csv"
    for command in ("sweep", "grid"):
        argv = [command, "--scenario", "prop4_p05", "--points", "7"]
        assert run_cli(argv) == 0
        printed = capsys.readouterr().out
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode()
        fids = [row[3] for row in read_rows(out)]
        assert capsys.readouterr().out == (
            f"prop4_p05: {len(fids)} records, fidelity range "
            f"[{min(fids, key=float)}, {max(fids, key=float)}] -> {out}\n")
    for points in (40, 120):
        tracemalloc.start()
        try:
            assert run_cli(["grid", "--scenario", "prop4_p05", "--points",
                            str(points), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(read_rows(out)) == points**2
    assert f"{120**2} records" in capsys.readouterr().out


def test_a_failing_grid_keeps_the_rows_it_wrote(tmp_path, capsys, monkeypatch):
    # the second chunk's records fail: one error line, exit 3, and the file
    # holds the header and the first chunk's rows
    record_rows, calls = scenarios._record_rows, []

    def fails_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise LinalgError("second chunk failed")
        return record_rows(*args, **kwargs)

    monkeypatch.setattr(scenarios, "_record_rows", fails_second)
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["grid", "--scenario", "prop4_p05", "--points", "6",
                 "--out", str(out)])
    assert exc.value.code == 3 and len(calls) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: second chunk failed\n" and captured.out == ""
    assert len(read_rows(out)) == scenarios._CHUNK


def test_walk_unknown_coin():
    with pytest.raises(SystemExit):
        run_cli(["walk", "--coin", "nope"])


_BAD_ALPHA = {"scenario": {"family": "bell_depolarizing", "alpha": [1, 0, 0],
                           "beta": [1, 0, 0, 0]}}

# (argv, config or None, exit code): every input here once ended in a
# traceback, exited 1, or exited 0 with a silently wrong result
BAD_INPUTS = {
    "inline_alpha_wrong_length": (["sweep"], _BAD_ALPHA, 2),
    # NaN passes a norm check written as ``norm - 1 > tol``
    "inline_alpha_nan": (
        ["sweep"], {"scenario": {"family": "bell_depolarizing",
                                 "alpha": [float("nan"), 0, 0, 0],
                                 "beta": [1, 0, 0, 0]}}, 2),
    # an output that cannot be opened for writing, rejected before the work
    "sweep_out_unwritable": (["sweep", "--scenario", "fig4a_red", "--points", "1",
                              "--out", UNWRITABLE], None, 2),
    "optimize_out_under_a_file": (["optimize", "--scenario", "prop4_p05",
                                   "--p", "0.5", "--out", UNDER_A_FILE], None, 2),
    "walk_out_a_directory": (["walk", "--out", str(SRC)], None, 2),
    "w_memoryless_too_few_amps": (
        ["sweep"], {"scenario": {"family": "w_memoryless", "n": 3,
                                 "amps": [[S2, S2], [S2, S2]]}}, 2),
    "points_not_a_number": (["sweep", "--scenario", "fig4a_red"],
                            {"sweep": {"points": "x"}}, 2),
    "points_not_an_integer": (["sweep", "--scenario", "fig4a_red"],
                              {"sweep": {"points": 2.5}}, 2),
    "start_not_a_number": (["grid", "--scenario", "fig4a_red"],
                           {"sweep": {"start": "x"}}, 2),
    "walk_start_outside_lattice": (["walk", "--positions", "16"],
                                   {"start_position": 100}, 2),
    "walk_start_negative": (["walk", "--positions", "16"],
                            {"start_position": -1}, 2),
    "optimize_inline_bad_alpha": (["optimize", "--p", "0.5"], _BAD_ALPHA, 2),
    "optimize_p_above_one": (["optimize", "--scenario", "prop4_p05",
                              "--p", "1.5"], None, 2),
    "optimize_q_below_zero": (["optimize", "--scenario", "prop4_p05",
                               "--p", "0.5", "--q", "-0.1"], None, 2),
    "optimize_p_not_a_number": (["optimize", "--scenario", "prop4_p05"],
                                {"p": "x"}, 2),
    "optimize_negative_seed": (["optimize", "--scenario", "prop4_p05",
                                "--p", "0.5", "--seed", "-1"], None, 2),
    "walk_zero_positions": (["walk", "--positions", "0"], None, 2),
    "walk_negative_steps": (["walk", "--steps", "-1"], None, 2),
    "walk_zero_coin_state": (["walk", "--positions", "4"],
                             {"coin_state": [0, 0]}, 2),
    "ghz_depolarizing_one_qubit": (
        ["sweep"], {"scenario": {"family": "ghz_depolarizing", "n": 1,
                                 "amps": [[1, 0, 0, 0], [1, 0, 0, 0]]}}, 2),
    "unknown_outcome_policy": (["sweep", "--scenario", "fig4a_red"],
                               {"outcome_policy": "sometimes"}, 2),
    # only a missing outcome_policy keeps the spec's own
    **{f"outcome_policy_{name}": (["sweep", "--scenario", "fig4a_red"],
                                  {"outcome_policy": value}, 2)
       for name, value in (("empty", ""), ("zero", 0), ("false", False))},
    # a family takes one amplitude vector per branch: 2, or n for W
    **{f"{argv[0]}_one_amplitude_vector": (
        argv, {"scenario": {"family": "bell_depolarizing",
                            "amps": [[1, 0, 0, 0]]}}, 2)
       for argv in (["sweep"], ["optimize", "--p", "0.5"])},
    # an inline name is printed and written to JSON as given
    **{f"{argv[0]}_inline_name_not_a_string": (
        argv, {"scenario": {"family": "bell_depolarizing",
                            "name": [1, {"a": None}],
                            "amps": [[1, 0, 0, 0], [1, 0, 0, 0]]}}, 2)
       for argv in (["sweep"], ["optimize", "--p", "0.5"])},
    "ghz_bitphase_extra_amplitude_vector": (
        ["sweep"], {"scenario": {"family": "ghz_bitphase", "n": 3,
                                 "amps": [[0, 1, 0, 0], [0, 0, 0, 1],
                                          [1, 0, 0, 0]]}}, 2),
    # the settings a config file gained are checked like their flags
    "emit_oracle_not_a_bool": (["sweep", "--scenario", "fig4a_red"],
                               {"emit_oracle": "no"}, 2),
    "out_not_a_path": (["sweep", "--scenario", "fig4a_red"], {"out": 1}, 2),
    "walk_out_not_a_path": (["walk"], {"out": ["a.csv"]}, 2),
    "optimize_seed_in_file_negative": (
        ["optimize", "--scenario", "prop4_p05", "--p", "0.5"], {"seed": -1}, 2),
    "optimize_restarts_in_file_zero": (
        ["optimize", "--scenario", "prop4_p05", "--p", "0.5"], {"restarts": 0}, 2),
    "no_restarts": (["optimize", "--scenario", "prop4_p05", "--p", "0.5",
                     "--restarts", "0"], None, 2),
    "inline_n_not_an_integer": (
        ["sweep"], {"scenario": {"family": "ghz_bitphase", "n": 2.5,
                                 "amps": [[1, 0, 0, 0], [1, 0, 0, 0]]}}, 2),
    # the spec checks each vector against its family's slots when it is
    # made: an amplitude in the bit flip's Y slot, a norm 5e-12 off (which
    # VacuumConfig's 1e-10 passes) and a W vector of length 4
    "inline_bitphase_amplitude_in_empty_slot": (
        ["sweep"], {"scenario": {"family": "bell_bitphase",
                                 "amps": [[S2, 0, S2, 0], [S2, 0, 0, S2]]}}, 2),
    "inline_alpha_norm_just_off": (
        ["sweep"], {"scenario": {"family": "bell_depolarizing",
                                 "amps": [[1 + 2.5e-12, 0, 0, 0], [1, 0, 0, 0]]}}, 2),
    "inline_w_vector_of_length_4": (
        ["sweep"], {"scenario": {"family": "w_memoryless", "n": 3,
                                 "amps": [[0.5] * 4, [S2, S2], [S2, S2]]}}, 2),
    "joint_dimension_over_cap": (
        ["sweep"], {"scenario": {"family": "ideal_w", "n": 9,
                                 "amps": [[1]] * 9}}, 2),
    "sweep_points_too_many": (["sweep", "--scenario", "fig4a_red",
                               "--points", "1000000000000"], None, 2),
    "walk_positions_too_many": (["walk", "--positions", "1000000000000",
                                 "--steps", "1"], None, 2),
    # each side is within MAX_POINTS, but 1001^2 points are not
    "grid_points_squared_too_many": (["grid", "--scenario", "fig4a_red",
                                      "--points", "1001"], None, 2),
    "optimize_restarts_too_many": (["optimize", "--scenario", "prop4_p05",
                                    "--p", "0.5", "--restarts", "1001"], None, 2),
    # 62501 rows of 16 positions
    "walk_rows_too_many": (["walk", "--positions", "16", "--steps", "62500"],
                           None, 2),
    # families without vacuum amplitudes to optimize
    "optimize_builtin_ideal": (["optimize", "--scenario", "ideal_bell",
                                "--p", "0.5"], None, 2),
    "optimize_inline_ideal": (
        ["optimize", "--p", "0.5"], {"scenario": {"family": "ideal_ghz", "n": 3,
                                                  "amps": [[1], [1]]}}, 2),
    # argparse's own errors: a flag value of the wrong type, an unknown
    # flag, and a prefix that must not be read as --points
    "flag_points_not_an_integer": (["sweep", "--scenario", "fig4a_red",
                                    "--points", "x"], None, 2),
    "unknown_flag": (["sweep", "--scenario", "fig4a_red", "--bogus", "1"],
                     None, 2),
    "flag_prefix_not_expanded": (["sweep", "--scenario", "fig4a_red",
                                  "--p", "0.5"], None, 2),
}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_a_one_line_error(name, tmp_path, capsys, monkeypatch):
    # every probe is rejected before a sweep, an optimization or a walk starts
    monkeypatch.setattr(scenarios, "sweep", _no_work)
    monkeypatch.setattr(scenarios, "optimize_amplitudes", _no_work)
    monkeypatch.setattr(walk, "simulate", _no_work)
    argv, cfg, code = BAD_INPUTS[name]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


COLD_START = """
import sys
from linksim.cli import main

out = sys.argv[1]
for argv in (["sweep", "--scenario", "fig4a_red", "--points", "3"],
             ["grid", "--scenario", "prop5_p05", "--points", "2"],
             ["walk", "--positions", "8", "--steps", "2"],
             ["optimize", "--scenario", "prop4_p05", "--p", "0.5",
              "--restarts", "1"]):
    if main([*argv, "--out", out]) != 0:
        sys.exit(f"{argv[0]} failed")
if main(["verify"]) != 0:
    sys.exit("verify failed")
if "scipy" in sys.modules:
    sys.exit("scipy was imported")
# np.unique and friends import numpy.ma lazily, a cost every cold start pays
if "numpy.ma" in sys.modules:
    sys.exit("numpy.ma was imported")
"""


def test_no_command_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_joint_dimension_cap_is_checked_before_building(tmp_path, capsys,
                                                        monkeypatch):
    builds = []
    original = channels.pauli_string

    def counted(spec):
        builds.append(spec)
        return original(spec)

    monkeypatch.setattr(channels, "pauli_string", counted)
    monkeypatch.setattr(scenarios, "pauli_string", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {
        "family": "ghz_depolarizing", "n": 12,
        "amps": [[1, 0, 0, 0], [1, 0, 0, 0]]}}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    assert "joint dimension cap" in capsys.readouterr().err
    assert builds == []


def test_calls_in_one_process_share_one_parser_and_no_state(tmp_path, capsys):
    # main parses with the one parser build_parser makes per process; what
    # one call gives leaves nothing behind for the next
    parser = cli.build_parser()
    builds = cli.build_parser.cache_info().misses
    out = tmp_path / "out.csv"
    assert run_cli(["sweep", "--scenario", "fig4a_red", "--points", "3",
                    "--no-oracle", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 3
    # a bad flag after a good run: one error line, exit 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--scenario", "fig4a_red", "--pionts", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # --points and --no-oracle from the first call do not carry over
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "fig4a_red", "sweep": {"points": 4}}))
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 4 and all(row[4] for row in rows)
    capsys.readouterr()
    assert run_cli(["sweep", "--scenario", "fig4a_red", "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["sweep"]["points"] == 101 and dumped["emit_oracle"] is True
    # a dump after a run still reruns as the same command
    argv = ["grid", "--scenario", "fig4b_blue", "--points", "3", "--out", str(out)]
    assert run_cli(argv) == 0
    expected = out.read_bytes()
    capsys.readouterr()
    assert run_cli([*argv, "--dump-config"]) == 0
    path.write_text(capsys.readouterr().out)
    out.unlink()
    assert run_cli(["grid", "--config", str(path)]) == 0
    assert out.read_bytes() == expected
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == builds


def test_unexpected_exception_keeps_its_traceback(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not an input error")

    monkeypatch.setattr(scenarios, "sweep", broken)
    with pytest.raises(RuntimeError):
        run_cli(["sweep", "--scenario", "fig4a_red", "--points", "3"])


def test_every_library_exception_is_a_linksim_error():
    found = []
    for info in pkgutil.iter_modules(linksim.__path__):
        module = importlib.import_module(f"linksim.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found.append(cls)
                assert issubclass(cls, LinksimError), cls
    assert len(found) >= 15
