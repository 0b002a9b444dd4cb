"""The README's examples run: every JSON block is a valid ``sweep`` config
and every ``linksim`` command line parses; its family table names every
family, in order."""

import json
import re
import shlex
from pathlib import Path

import pytest

from linksim.cli import build_parser, main
from linksim.scenarios import FAMILIES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
CONFIGS = [body for lang, body in BLOCKS if lang == "json"]
COMMANDS = [line.split("#")[0].strip() for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("linksim ")]


def test_readme_has_examples():
    assert CONFIGS and len(COMMANDS) >= 6


@pytest.mark.parametrize("body", CONFIGS,
                         ids=[f"json_block_{i}" for i in range(len(CONFIGS))])
def test_readme_config_is_valid(body, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(body)
    assert isinstance(json.loads(body), dict)
    assert main(["sweep", "--config", str(path), "--dump-config"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    argv = shlex.split(line)[1:]
    assert build_parser().parse_args(argv).command == argv[0]


def test_readme_family_table_is_families():
    table = README.split("| family | n |", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert tuple(names) == FAMILIES
