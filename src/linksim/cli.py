"""Command-line front end: scenario configs in, CSV/JSON artifacts out.

Commands:

* ``sweep``    -- 1-D noise sweep (q locked to p) for a builtin or inline
  scenario; writes ``p,q,outcome,fidelity,oracle_fidelity,conc_pairwise,
  conc_one_vs_rest`` CSV rows.
* ``grid``     -- 2-D (p, q) sweep, same row format.
* ``verify``   -- re-run every proposition/corollary claim; exit 0 iff all
  pass.
* ``optimize`` -- vacuum-amplitude optimization at fixed noise; writes a
  JSON result.
* ``walk``     -- discrete-time quantum walk position distributions.

Each setting is one config key, which a flag overrides; commands and
``--dump-config`` read only the effective config, so a dump reruns as the
same command. ``main`` maps errors to exit codes: 2 for an invalid config,
flag or inline scenario (checked before anything runs), 3 for a valid
config that fails while running; the CSV rows written before it stay.
Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import cache
from itertools import chain

import numpy as np

from . import scenarios, walk
from .linalg import LinalgError, LinksimError
from .metrics import VacuumConfig
from .scenarios import ScenarioSpec, ScenarioError

CSV_HEADER = "p,q,outcome,fidelity,oracle_fidelity,conc_pairwise,conc_one_vs_rest"

EXIT_CONFIG = 2
EXIT_SCENARIO = 3

# size limits; MAX_POINTS caps the points a sweep or grid evaluates and
# the rows, (steps + 1) positions, a walk writes
MAX_POINTS = 10**6
MAX_RESTARTS = 1000


def _fmt(x) -> str:
    """Serialize a float with 9 significant digits."""
    if x is None:
        return ""
    return format(float(x), ".9g")


class ConfigError(LinksimError):
    """The config file, a flag or an inline scenario is invalid."""


def _number(value, name: str, low, high=np.inf, integer: bool = False):
    """``value`` if it is a JSON number (an integer when asked) in [low, high]."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(f"{name}={value} outside [{low}, {high}]")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _effective(given: dict, args, defaults: dict) -> dict:
    """Each key of ``defaults`` from its flag, else the file ``given``, else
    its default (``...`` for none); a dict default is a nested object. Other
    keys are ignored, since one file serves every command."""
    cfg = {}
    for key, default in defaults.items():
        value = given.get(key, default)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be a JSON object")
            cfg[key] = _effective(value, args, default)
        else:
            flag = getattr(args, key, None)
            cfg[key] = value if flag is None else flag
    return cfg


def _kind(value, name: str, kinds, what: str):
    """``value`` if it is an instance of ``kinds``."""
    if not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _spec_from_config(cfg: dict) -> ScenarioSpec:
    """The config's scenario spec, under its ``outcome_policy`` if the
    command has that key; an inline spec checks its layout and amplitudes
    when it is made."""
    scen = cfg["scenario"]
    if scen is ...:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    if isinstance(scen, str):
        spec = scenarios.builtin(scen)
    elif isinstance(scen, dict):
        try:
            vectors = scen.get("amps")
            if vectors is None:
                vectors = [scen["alpha"], scen["beta"]]
            spec = ScenarioSpec(
                name=_kind(scen.get("name", "custom"), "name", str, "a string"),
                family=scen["family"],
                n=_number(scen.get("n", 2), "n", 2, integer=True),
                config=VacuumConfig(tuple(np.asarray(v, float) for v in vectors)),
            )
        except KeyError as exc:
            raise ConfigError(f"bad inline scenario: missing {exc}") from None
        except (TypeError, ValueError, LinksimError) as exc:
            raise ConfigError(f"bad inline scenario: {exc}") from None
    else:
        raise ConfigError("config must name a scenario (string or inline object)")
    # only a missing key keeps the spec's own policy
    if cfg.get("outcome_policy", ...) is not ...:
        try:
            spec = replace(spec, outcome_policy=cfg["outcome_policy"])
        except ScenarioError as exc:
            raise ConfigError(str(exc)) from None
    return spec


def _check_writable(out_path: str | None) -> None:
    """Raise unless ``out_path``, when given, is a writable file, or a new
    name in a writable directory. Nothing is opened: on some file systems
    a file opened for writing is flushed when it is closed."""
    if not out_path:
        return
    if os.path.exists(out_path):
        ok = not os.path.isdir(out_path) and os.access(out_path, os.W_OK)
    else:
        folder = os.path.dirname(out_path) or "."
        ok = os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
    if not ok:
        raise ConfigError(f"cannot write {out_path}: not a writable file or "
                          "a new file in a writable directory")


def _write(chunks, out_path: str | None) -> None:
    """Write the strings ``chunks`` in order, each as it is made, to
    ``out_path``, or to stdout without a path."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _write_records(records, out_path: str | None) -> None:
    rows = (",".join([
        _fmt(r.p), _fmt(r.q), str(r.outcome), _fmt(r.fidelity),
        _fmt(r.oracle_fidelity), _fmt(r.conc_pairwise), _fmt(r.conc_one_vs_rest),
    ]) + "\n" for r in records)
    _write(chain([CSV_HEADER + "\n"], rows), out_path)


def cmd_sweep(args) -> int:
    """``sweep`` (q locked to p) and ``grid`` (every (p, q) pair)."""
    cfg = _effective(_load_config(args.config), args, {
        "scenario": ..., "sweep": {"start": 0.0, "stop": 1.0, "points": 101},
        "out": None, "emit_oracle": True, "outcome_policy": ...})
    spec = _spec_from_config(cfg)
    cfg["outcome_policy"] = spec.outcome_policy  # the dump shows the one in effect
    grid = cfg["sweep"]
    p_grid = np.linspace(_number(grid["start"], "start", 0, 1),
                         _number(grid["stop"], "stop", 0, 1),
                         _number(grid["points"], "points", 1, MAX_POINTS, integer=True))
    is_grid = args.command == "grid"
    grid["lock_q_to_p"] = not is_grid
    if is_grid and len(p_grid) ** 2 > MAX_POINTS:
        raise ConfigError(f"a grid of {len(p_grid)}^2 points is more than "
                          f"{MAX_POINTS}")
    out = _kind(cfg["out"], "out", (str, type(None)), "a path or null")
    emit_oracle = _kind(cfg["emit_oracle"], "emit_oracle", bool, "true or false")
    if args.dump_config:
        print(json.dumps(cfg, indent=2))
        return 0
    _check_writable(out)
    records = scenarios.sweep(spec, p_grid, q_grid=p_grid if is_grid else None,
                              emit_oracle=emit_oracle)
    n, low, high = 0, np.inf, -np.inf  # count and fidelity range, as they pass

    def counted():
        nonlocal n, low, high
        for r in records:
            n, low, high = n + 1, min(low, r.fidelity), max(high, r.fidelity)
            yield r

    _write_records(counted(), out)
    if out:
        # zero-probability outcomes are dropped, so there may be no record
        span = f", fidelity range [{_fmt(low)}, {_fmt(high)}]" if n else ""
        print(f"{spec.name}: {n} records{span} -> {out}")
    return 0


def cmd_verify(args) -> int:
    checks = scenarios.verify_propositions()
    width = max(len(c.detail) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name:<6} {c.detail:<{width}}  "
              f"fid={c.value:.9f} (threshold {c.threshold:.9f})")
    note = ("note: cor2 p=q=1 uses the figure-legend amplitudes "
            "(a0=b0=0, a1=b1=1); the displayed p=q=1 equation is not "
            "normalizable as printed.")
    print(note)
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_optimize(args) -> int:
    cfg = _effective(_load_config(args.config), args, {
        "scenario": ..., "p": ..., "q": ..., "seed": 0, "restarts": 20,
        "out": None})
    spec = _spec_from_config(cfg)
    # only a family with free vacuum amplitudes has anything to optimize
    if scenarios._FAMILY[spec.family].slots is None:
        raise ConfigError(f"family {spec.family!r} has no free vacuum amplitudes")
    if cfg["p"] is ...:
        raise ConfigError("optimize requires --p")
    p = _number(cfg["p"], "p", 0, 1)
    if cfg["q"] is ...:
        cfg["q"] = p
    q = _number(cfg["q"], "q", 0, 1)
    seed = _number(cfg["seed"], "seed", 0, integer=True)
    restarts = _number(cfg["restarts"], "restarts", 1, MAX_RESTARTS, integer=True)
    out = _kind(cfg["out"], "out", (str, type(None)), "a path or null")
    if args.dump_config:
        print(json.dumps(cfg, indent=2))
        return 0
    _check_writable(out)
    result = scenarios.optimize_amplitudes(spec, p, q, seed=seed, restarts=restarts)
    payload = {
        "scenario": spec.name,
        "family": spec.family,
        "p": p,
        "q": q,
        "best_fidelity": float(result.best_fidelity),
        "best_config": [[float(x.real) for x in v]
                        for v in result.best_config.vectors],
        "iterations": result.iterations,
        "restarts": restarts,
        "seed": result.seed,
    }
    _write([json.dumps(payload, indent=2) + "\n"], out)
    if out:
        print(f"best fidelity {_fmt(result.best_fidelity)} -> {out}")
    return 0


_COINS = {"hadamard": walk.HADAMARD,
          "identity": np.eye(2, dtype=complex),
          "x": np.array([[0, 1], [1, 0]], dtype=complex)}


def _walk_csv(spec: walk.WalkSpec):
    """The walk's CSV, one string per step, each made as it is asked for."""
    yield "step,position,probability\n"
    for step, dist in enumerate(walk.simulate(spec)):
        yield "".join(f"{step},{pos},{_fmt(prob)}\n" for pos, prob in enumerate(dist))


def cmd_walk(args) -> int:
    cfg = _effective(_load_config(args.config), args, {
        "coin": "hadamard", "positions": 64, "steps": 20, "start_position": ...,
        "coin_state": [1.0, 1.0j], "out": None})
    coin = _COINS.get(cfg["coin"]) if isinstance(cfg["coin"], str) else None
    if coin is None:
        raise ConfigError(f"unknown coin {cfg['coin']!r}")
    n = _number(cfg["positions"], "positions", 1, integer=True)
    steps = _number(cfg["steps"], "steps", 0, integer=True)
    if (steps + 1) * n > MAX_POINTS:
        raise ConfigError(f"a walk of {steps} steps on {n} positions writes "
                          f"{(steps + 1) * n} rows, more than {MAX_POINTS}")
    start = cfg["start_position"]
    start = _number(n // 2 if start is ... else start, "start_position", 0, n - 1,
                    integer=True)
    try:
        state = np.array(cfg["coin_state"], dtype=complex)
    except (TypeError, ValueError):
        state = np.zeros(0)
    # a state of another shape places zeros, which ``WalkSpec`` refuses
    initial = np.zeros(2 * n, dtype=complex)
    initial[2 * start: 2 * start + 2] = state if state.shape == (2,) else 0.0
    try:
        spec = walk.WalkSpec(n, coin, steps, initial)  # normalizes the state
    except LinalgError:
        raise ConfigError("coin_state must be a non-zero 2-vector, "
                          f"got {cfg['coin_state']!r}") from None
    out = _kind(cfg["out"], "out", (str, type(None)), "a path or null")
    _check_writable(out)
    _write(_walk_csv(spec), out)
    if out:
        print(f"walk: {steps} steps on {n} positions -> {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag like a bad config: one ``error:`` line, exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; a parse leaves it unchanged."""
    # allow_abbrev=False: a prefix such as --p must not be read as --points
    parser = _Parser(
        prog="linksim",
        allow_abbrev=False,
        description="Entanglement generation via spatial superposition of "
                    "noisy channels",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # a flag's dest is its config key; an absent flag is None
    for name, func, text in (("sweep", cmd_sweep, "1-D noise sweep (q locked to p)"),
                             ("grid", cmd_sweep, "2-D (p, q) noise grid"),
                             ("verify", cmd_verify, "re-check every proposition claim"),
                             ("optimize", cmd_optimize, "optimize vacuum amplitudes"),
                             ("walk", cmd_walk, "discrete-time quantum walk CSV")):
        s = subs.add_parser(name, help=text, allow_abbrev=False)
        s.set_defaults(func=func)
        if func is cmd_verify:
            continue
        s.add_argument("--config", help="JSON config file")
        s.add_argument("--out", help="output file (default: stdout)")
        if func is cmd_walk:
            s.add_argument("--coin", choices=sorted(_COINS))
            s.add_argument("--positions", type=int)
            s.add_argument("--steps", type=int)
            continue
        s.add_argument("--scenario", help="builtin scenario name")
        s.add_argument("--dump-config", action="store_true",
                       help="echo the effective config and exit")
        if func is cmd_sweep:
            s.add_argument("--start", type=float)
            s.add_argument("--stop", type=float)
            s.add_argument("--points", type=int)
            s.add_argument("--no-oracle", dest="emit_oracle", action="store_const",
                           const=False, help="omit closed-form oracle values")
        else:
            s.add_argument("--p", type=float)
            s.add_argument("--q", type=float)
            s.add_argument("--seed", type=int)
            s.add_argument("--restarts", type=int)
    return parser


def main(argv=None) -> int:
    """Run one command with ``build_parser``'s one parser; return its code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LinksimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_SCENARIO
        raise SystemExit(code) from None


if __name__ == "__main__":
    raise SystemExit(main())
