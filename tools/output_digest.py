"""SHA-256 digests of the program's outputs, bit for bit.

Run from the root of a source checkout, with no arguments:

    PYTHONPATH=src python3 tools/output_digest.py

Each line is ``<name> <sha256>``. Arrays are hashed over their raw bytes and
floats as ``float.hex``, so a change that only flips the sign of a zero
changes a digest. Only the outcomes a spec reports are hashed, outcome 0
for ``plus_only`` and every outcome for ``all_outcomes``, whether or not
the program computes the others. Two checkouts whose reported outputs are
byte-identical print the same lines; point ``PYTHONPATH`` at the other
checkout's ``src`` to compare.

The digests cover:

- ``run``: the reported probabilities and post states, and ``apply``'s
  joint state, for every builtin at p in {0, .13, .5, .77, 1} x q in
  {0, .31, 1};
- ``sweep``: every builtin's 7 x 5 grid records;
- ``run_stack``: 21-point scale tables of larger inline specs and seeded
  random configs (``stack_specs``), its arrays turned into outcome lists
  by the helper ``run`` uses, with ``measure_control(apply(s))`` on every
  fifth point;
- ``sweep_stack``: the 33-point sweep records of the ``stack_specs``
  (n up to 8) under both outcome policies;
- ``_fixed_noise_objective``: its values at seeded proposals;
- ``optimize --p 0.5 --restarts 4``: the JSON of five specs at seeds 7 and 11;
- ``walk``: the CSV of the default walk and of walks with each coin;
- ``kraus``: ``kraus_columns`` of every column of every builtin's
  channels at the ``run`` noise points, and their dense ``kraus`` for
  n <= 4.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace

import numpy as np

from linksim import cli, scenarios
from linksim.channels import kraus_columns, scale_row
from linksim.metrics import VacuumConfig
from linksim.scenarios import ScenarioSpec, build_scenario, builtin, builtin_names
from linksim.superposition import (
    _outcome_lists,
    apply,
    measure_control,
    run,
    run_stack,
)

_S2 = 1.0 / np.sqrt(2.0)


def _outcomes(h, spec, outcomes) -> None:
    """Hash the outcomes that ``spec`` reports."""
    for out in outcomes[:1] if spec.outcome_policy == "plus_only" else outcomes:
        h.update(f"{out.outcome_index} {out.probability.hex()};".encode())
        h.update(b"none" if out.post_state is None else out.post_state.mat.tobytes())


def run_digest() -> str:
    h = hashlib.sha256()
    for spec in map(builtin, builtin_names()):
        for p in (0.0, 0.13, 0.5, 0.77, 1.0):
            for q in (0.0, 0.31, 1.0):
                scenario = build_scenario(spec, p, q)
                _outcomes(h, spec, run(scenario))
                h.update(apply(scenario).mat.tobytes())
    return h.hexdigest()


def _records(h, records) -> None:
    for r in records:
        fields = (r.p, r.q, r.probability, r.fidelity, r.conc_pairwise,
                  r.conc_one_vs_rest, r.oracle_fidelity)
        h.update(" ".join("None" if x is None else float(x).hex()
                          for x in fields).encode())
        h.update(f" {r.outcome};".encode())


def sweep_digest() -> str:
    h = hashlib.sha256()
    for name in builtin_names():
        _records(h, scenarios.sweep(builtin(name), np.linspace(0, 1, 7),
                                    np.linspace(0, 1, 5)))
    return h.hexdigest()


def _unit(rng, size: int) -> np.ndarray:
    v = rng.standard_normal(size)
    return v / np.linalg.norm(v)


def stack_specs() -> list[ScenarioSpec]:
    rng = np.random.default_rng(15)
    return [
        ScenarioSpec("ghz8", "ghz_depolarizing", 8, scenarios.PROP5_P05),
        ScenarioSpec("ghz6_bitphase", "ghz_bitphase", 6, scenarios.COR2_P05),
        ScenarioSpec("w5", "w_memoryless", 5, VacuumConfig(((_S2, _S2),) * 5)),
        ScenarioSpec("w6", "w_memoryless", 6, VacuumConfig(
            tuple(_unit(rng, 2) for _ in range(6)))),
        ScenarioSpec("ghz7_ideal", "ideal_ghz", 7, scenarios._ideal_config(2)),
        ScenarioSpec("w5_ideal", "ideal_w", 5, scenarios._ideal_config(5)),
        *(ScenarioSpec(f"bell_random{k}", "bell_depolarizing", 2, VacuumConfig(
            (_unit(rng, 4), _unit(rng, 4)))) for k in range(3)),
        *(ScenarioSpec(f"w_random{k}", "w_memoryless", 3, VacuumConfig(
            tuple(_unit(rng, 2) for _ in range(3)))) for k in range(3)),
    ]


def stack_digest() -> str:
    h = hashlib.sha256()
    ps = np.linspace(0, 1, 21)
    for spec in stack_specs():
        stack = [build_scenario(spec, p, 1.0 - p) for p in ps]
        scales = [scale_row(scenario.channels) for scenario in stack]
        for outcomes in _outcome_lists(stack[0].input.dims,
                                       *run_stack(stack[0], scales)):
            _outcomes(h, spec, outcomes)
        for scenario in stack[::5]:
            joint = apply(scenario)
            h.update(joint.mat.tobytes())
            _outcomes(h, spec, measure_control(joint, scenario.measurement_basis))
    return h.hexdigest()


def sweep_stack_digest() -> str:
    h = hashlib.sha256()
    for spec in stack_specs():
        for policy in ("plus_only", "all_outcomes"):
            _records(h, scenarios.sweep(replace(spec, outcome_policy=policy),
                                        np.linspace(0, 1, 33)))
    return h.hexdigest()


def objective_digest() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(7)
    specs = [builtin(name) for name in builtin_names()
             if not builtin(name).family.startswith("ideal")]
    specs += [s for s in stack_specs() if not s.family.startswith("ideal")]
    for spec in specs:
        dim = sum(np.count_nonzero(m)
                  for m in scenarios._free_slots(spec.family, spec.n))
        for p, q in ((0.0, 0.0), (0.3, 0.7), (0.5, 0.5), (1.0, 0.2)):
            objective = scenarios._fixed_noise_objective(spec, p, q)
            for _ in range(5):
                value = objective(rng.standard_normal(dim)[None])[0]
                h.update(float(value).hex().encode())
    return h.hexdigest()


def optimize_digest() -> str:
    h = hashlib.sha256()
    for name in ("prop4_p05", "fig8_green", "cor1_p05", "prop5_p05", "fig7a_blue"):
        for seed in (7, 11):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                cli.main(["optimize", "--scenario", name, "--p", "0.5",
                          "--restarts", "4", "--seed", str(seed)])
            h.update(text.getvalue().encode())
    return h.hexdigest()


def walk_digest() -> str:
    h = hashlib.sha256()
    for flags in ([], ["--coin", "x", "--positions", "8", "--steps", "3"],
                  ["--coin", "identity", "--positions", "33", "--steps", "40"],
                  ["--positions", "256", "--steps", "100"]):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.main(["walk", *flags])
        h.update(text.getvalue().encode())
    return h.hexdigest()


def kraus_digest() -> str:
    h = hashlib.sha256()
    for spec in map(builtin, builtin_names()):
        for p in (0.0, 0.13, 0.5, 0.77, 1.0):
            for q in (0.0, 0.31, 1.0):
                chans = build_scenario(spec, p, q).channels
                reach, cols = kraus_columns(chans, scale_row(chans)[None],
                                            np.arange(chans[0].dim))
                h.update(reach.astype(np.int64).tobytes())
                h.update(cols.tobytes())
                if spec.n <= 4:
                    for c in chans:
                        for k in c.kraus:
                            h.update(k.tobytes())
    return h.hexdigest()


def main() -> None:
    for name, digest in (("run", run_digest), ("sweep", sweep_digest),
                         ("run_stack", stack_digest),
                         ("sweep_stack", sweep_stack_digest),
                         ("objective", objective_digest),
                         ("optimize", optimize_digest), ("walk", walk_digest),
                         ("kraus", kraus_digest)):
        print(name, digest(), flush=True)


if __name__ == "__main__":
    main()
