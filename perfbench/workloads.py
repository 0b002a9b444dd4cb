"""The benchmark's workloads: inputs made from a seed, and output checks.

A workload is a list of operations, each one call of ``linksim.cli.main``
as a user would type it. ``ops()`` returns one pass; a run repeats the
pass. Every operation comes with a check of what the command wrote, which
returns the problems it found (an empty list when the output is right).

Inputs are JSON config files written into the run's work directory, so
the program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())["digests"]

CSV_HEADER = "p,q,outcome,fidelity,oracle_fidelity,conc_pairwise,conc_one_vs_rest"

# Values agree to EXACT_TOL. CSV values carry 9 significant digits, so two
# such values can also print one unit of the ninth digit (at most 1e-9 for
# numbers up to 1) apart.
EXACT_TOL = 1e-9
CSV_TOL = EXACT_TOL + 1e-9


@dataclass
class Op:
    """One command: its argv, the file it writes, the points it delivers
    (a number, or a function of its output), and how to check it."""

    name: str
    argv: list[str]
    out: Path | None
    points: int | Callable[[str], int]
    check: Callable[[str], list[str]] = field(repr=False)

    def output(self, stdout: str) -> str:
        return self.out.read_text() if self.out is not None else stdout


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_rows(text: str) -> list[list[str]]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def check_rows(text: str, points: int, need_oracle: bool) -> list[str]:
    """One row per point, and every oracle value matched by its fidelity."""
    try:
        rows = csv_rows(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if len(rows) != points:
        problems.append(f"{len(rows)} rows, expected {points}")
    for row in rows:
        if row[4] == "":
            if need_oracle:
                problems.append(f"row {row[:2]} has no oracle value")
            continue
        gap = abs(float(row[3]) - float(row[4]))
        if gap > CSV_TOL:
            problems.append(f"row {row[:2]}: |fidelity - oracle| = {gap:.3e}")
    return problems


def check_golden(key: str, points: int) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        problems = [] if digest(text) == GOLDEN[key] else [
            f"{key}: output differs from the recorded digest"]
        if points:
            problems += check_rows(text, points, need_oracle=False)
        return problems
    return check


def _unit(rng, slots, size=4) -> list[float]:
    v = np.zeros(size)
    v[list(slots)] = rng.standard_normal(len(slots))
    return [float(x) for x in v / np.linalg.norm(v)]


class Workload:
    """Base: a seeded set of operations over files in ``workdir``."""

    name = ""
    # where the time goes, which picks the reference kernel (see run.py)
    kernel = "interpreter"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def path(self, name: str) -> Path:
        return self.workdir / name

    def write_config(self, name: str, cfg: dict) -> Path:
        path = self.path(name)
        path.write_text(json.dumps(cfg))
        return path

    def inputs(self) -> dict:
        """The generated inputs, for the run's record."""
        return {}

    def prepare(self) -> None:
        """Compute references the checks need (not timed)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def first_op(self) -> Op:
        """The workload's first point as a command of its own."""
        raise NotImplementedError


class Figures(Workload):
    """The paper's figure curves and claims through the CLI, plus seeded
    random vacuum configurations checked against the closed-form oracles."""

    name = "figures"
    SWEEPS = ("fig4a_red", "fig4b_blue", "fig7a_green", "fig8_green")
    RANDOM_PER_FAMILY = 4
    RANDOM_POINTS = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.random_configs = []
        for family, n in (("bell_depolarizing", 2), ("bell_bitphase", 2),
                          ("w_memoryless", 3)):
            for _ in range(self.RANDOM_PER_FAMILY):
                if family == "bell_depolarizing":
                    amps = [_unit(self.rng, range(4)), _unit(self.rng, range(4))]
                elif family == "bell_bitphase":
                    amps = [_unit(self.rng, (0, 1)), _unit(self.rng, (0, 3))]
                else:
                    amps = [_unit(self.rng, (0, 1), 2) for _ in range(n)]
                start = float(self.rng.uniform(0.02, 0.5))
                stop = float(self.rng.uniform(0.5, 0.98))
                self.random_configs.append({
                    "scenario": {"name": f"random_{family}", "family": family,
                                 "n": n, "amps": amps},
                    "sweep": {"start": start, "stop": stop,
                              "points": self.RANDOM_POINTS},
                })

    def inputs(self):
        return {"random_configs": self.random_configs}

    def ops(self):
        ops = []
        for name in self.SWEEPS:
            out = self.path(f"{name}.csv")
            ops.append(Op(f"sweep_{name}",
                          ["sweep", "--scenario", name, "--points", "101",
                           "--out", str(out)],
                          out, 101, check_golden(f"sweep_{name}", 101)))
        out = self.path("grid_prop5_p05.csv")
        ops.append(Op("grid_prop5_p05",
                      ["grid", "--scenario", "prop5_p05", "--points", "15",
                       "--out", str(out)],
                      out, 225, check_golden("grid_prop5_p05", 225)))
        ops.append(Op("verify", ["verify"], None, 0, self._check_verify))
        for i, cfg in enumerate(self.random_configs):
            config = self.write_config(f"random_{i}.json", cfg)
            out = self.path(f"random_{i}.csv")
            ops.append(Op(f"random_{i}",
                          ["sweep", "--config", str(config), "--out", str(out)],
                          out, self.RANDOM_POINTS,
                          lambda text: check_rows(text, self.RANDOM_POINTS,
                                                  need_oracle=True)))
        return ops

    @staticmethod
    def _check_verify(text: str) -> list[str]:
        problems = check_golden("verify", 0)(text)
        if "27/27 checks passed" not in text:
            problems.append("verify did not pass 27/27 checks")
        return problems

    def first_op(self):
        out = self.path("first_point.csv")
        return Op("first_point",
                  ["sweep", "--scenario", "fig4a_red", "--points", "1",
                   "--out", str(out)],
                  out, 1, check_golden("first_point_fig4a_red", 1))


def _iterations(text: str) -> int:
    return json.loads(text)["iterations"]


class Optimize(Workload):
    """Vacuum-amplitude optimization at fixed noise, optimizer seeds drawn
    from the benchmark seed."""

    name = "optimize"
    CASES = (("prop4_p05", 0.5, 0.5), ("fig8_green", 0.5, 0.5))
    RESTARTS = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31, len(self.CASES))]
        self.floors = {}

    def inputs(self):
        return {"optimizer_seeds": self.seeds}

    def prepare(self):
        from linksim import scenarios
        for name, p, q in self.CASES:
            spec = scenarios.builtin(name)
            self.floors[name] = max(
                scenarios.evaluate_point(
                    scenarios.ScenarioSpec(name, spec.family, spec.n, cfg), p, q
                )[0].fidelity
                for cfg in scenarios.published_configs(spec.family))

    def ops(self):
        ops = []
        for (name, p, q), seed in zip(self.CASES, self.seeds):
            out = self.path(f"optimize_{name}.json")
            ops.append(Op(f"optimize_{name}",
                          ["optimize", "--scenario", name, "--p", str(p),
                           "--q", str(q), "--seed", str(seed),
                           "--restarts", str(self.RESTARTS), "--out", str(out)],
                          out, _iterations,
                          lambda text, name=name, p=p, q=q:
                              self._check(text, name, p, q)))
        return ops

    def _check(self, text: str, name: str, p: float, q: float) -> list[str]:
        """At least the published-config floor, and the returned config
        really reaches the reported fidelity, which matches the oracle."""
        from linksim import scenarios
        from linksim.metrics import VacuumConfig
        result = json.loads(text)
        best = result["best_fidelity"]
        problems = []
        if result["scenario"] != name or result["p"] != p or result["q"] != q:
            problems.append(f"{name}: result is for another problem")
        if best < self.floors[name] - EXACT_TOL:
            problems.append(f"{name}: best {best!r} below the published "
                            f"floor {self.floors[name]!r}")
        spec = scenarios.builtin(name)
        cfg = VacuumConfig(tuple(np.asarray(v) for v in result["best_config"]))
        rec = scenarios.evaluate_point(
            scenarios.ScenarioSpec(name, spec.family, spec.n, cfg), p, q)[0]
        if abs(rec.fidelity - best) > EXACT_TOL:
            problems.append(f"{name}: returned config gives {rec.fidelity!r}, "
                            f"reported {best!r}")
        if rec.oracle_fidelity is None or abs(rec.oracle_fidelity - best) > EXACT_TOL:
            problems.append(f"{name}: oracle {rec.oracle_fidelity!r} differs "
                            f"from reported {best!r}")
        return problems

    def first_op(self):
        name, p, q = self.CASES[0]
        out = self.path("first_point.csv")
        return Op("first_point",
                  ["sweep", "--scenario", name, "--start", str(p),
                   "--stop", str(p), "--points", "1", "--out", str(out)],
                  out, 1, check_golden("first_point_prop4_p05", 1))


class Ghz8(Workload):
    """Eight-qubit GHZ through correlated depolarizing noise: large dense
    operators. Checked point by point against the same sweep at n = 4."""

    name = "ghz8"
    kernel = "blas"
    POINTS = 11

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.start = float(self.rng.uniform(0.0, 0.25))
        self.stop = float(self.rng.uniform(0.75, 1.0))
        self.reference: list[list[str]] = []

    def config(self, n: int, points: int) -> dict:
        from linksim.scenarios import PROP5_P05
        return {"scenario": {"name": f"ghz{n}", "family": "ghz_depolarizing",
                             "n": n,
                             "amps": [[float(x.real) for x in v]
                                      for v in PROP5_P05.vectors]},
                "sweep": {"start": self.start, "stop": self.stop,
                          "points": points}}

    def inputs(self):
        return {"start": self.start, "stop": self.stop, "points": self.POINTS}

    def prepare(self):
        from linksim import cli
        config = self.write_config("ghz4.json", self.config(4, self.POINTS))
        out = self.path("ghz4.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", "--config", str(config), "--out", str(out)])
        if rc != 0:
            raise RuntimeError("n = 4 reference sweep failed")
        self.reference = csv_rows(out.read_text())

    def _check(self, text: str, points: int) -> list[str]:
        try:
            rows = csv_rows(text)
        except ValueError as exc:
            return [str(exc)]
        if len(rows) != points:
            return [f"{len(rows)} rows, expected {points}"]
        problems = []
        for row, ref in zip(rows, self.reference):
            for col, (a, b) in enumerate(zip(row, ref)):
                if (a == "") != (b == "") or (
                        a and abs(float(a) - float(b)) > CSV_TOL):
                    problems.append(f"row {row[:2]} column {col}: n=8 {a} "
                                    f"vs n=4 {b}")
        return problems

    def ops(self):
        config = self.write_config("ghz8.json", self.config(8, self.POINTS))
        out = self.path("ghz8.csv")
        return [Op("sweep_ghz8", ["sweep", "--config", str(config),
                                  "--out", str(out)],
                   out, self.POINTS, lambda text: self._check(text, self.POINTS))]

    def first_op(self):
        config = self.write_config("ghz8_first.json", self.config(8, 1))
        out = self.path("first_point.csv")
        return Op("first_point", ["sweep", "--config", str(config),
                                  "--out", str(out)],
                  out, 1, lambda text: self._check(text, 1))


WORKLOADS = {w.name: w for w in (Figures, Optimize, Ghz8)}
