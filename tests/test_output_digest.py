"""``tools/output_digest.py`` prints the digests recorded here, which it
printed before density matrices were held on their support: every output
it hashes (probabilities, post states, joint states, sweep records,
objective values, ``optimize`` JSON) is byte-identical. A change that
moves an output on purpose records the new digests, as it re-records
``perfbench/golden.json``. The tool is loaded from its file and never
written."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"

RECORDED = {
    "run": "a0b4df8ad6e2f6faf34e7495c49ca59b91f9802cbcfa0c8fbc1eb643e229032c",
    "sweep": "e3639957d5b5290280be78932faeda9d830131979e3675366bbcbe5639a2b943",
    "run_stack": "735c7202efb4e426a1b8357fdabb298e5f70b91541188d75a622e073cdd0d39d",
    "objective": "925854f57294ad890c614b67d7d363fb534b8e368c3a507f6805c1a94eeeb30a",
    "optimize": "df9003cf90db938bdcb17fa38cbbef296d652b383d5993ac6108f77b103d7ca7",
}


def test_output_digests_are_the_recorded_ones(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    words = capsys.readouterr().out.split()
    assert dict(zip(words[::2], words[1::2])) == RECORDED
