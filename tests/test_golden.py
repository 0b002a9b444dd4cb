"""The figure commands write exactly the bytes pinned in
``perfbench/golden.json``: the four figure sweeps, the prop5_p05 grid,
``verify`` and the two single-point sweeps. The file is only read."""

import hashlib
import json
from pathlib import Path

import pytest

from linksim.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                     / "golden.json").read_text())["digests"]

# digest key -> argv; every command but verify writes its CSV to --out
COMMANDS = {
    **{f"sweep_{name}": ["sweep", "--scenario", name, "--points", "101"]
       for name in ("fig4a_red", "fig4b_blue", "fig7a_green", "fig8_green")},
    "grid_prop5_p05": ["grid", "--scenario", "prop5_p05", "--points", "15"],
    "first_point_fig4a_red": ["sweep", "--scenario", "fig4a_red",
                              "--points", "1"],
    "first_point_prop4_p05": ["sweep", "--scenario", "prop4_p05",
                              "--start", "0.5", "--stop", "0.5",
                              "--points", "1"],
    "verify": ["verify"],
}


def test_every_golden_digest_has_a_command():
    assert sorted(COMMANDS) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(COMMANDS))
def test_output_matches_golden_digest(key, tmp_path, capsys):
    argv = COMMANDS[key]
    out = tmp_path / "out.csv"
    if key != "verify":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out if key == "verify" else out.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key]
