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

Configuration is a JSON file plus flag overrides; ``--dump-config`` echoes
the effective config without running. ``main`` maps errors to exit codes:
2 for an invalid config, flag or inline scenario (checked before anything
runs), 3 for a valid config that fails while running. Any other exception
is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import scenarios, walk
from .linalg import LinksimError
from .metrics import VacuumConfig
from .scenarios import ScenarioSpec, ScenarioError

CSV_HEADER = "p,q,outcome,fidelity,oracle_fidelity,conc_pairwise,conc_one_vs_rest"

EXIT_CONFIG = 2
EXIT_SCENARIO = 3

# size limits; MAX_POINTS caps the points a sweep or grid evaluates and
# the rows a walk writes, and a walk builds dense (2 positions)^2 complex
# matrices
MAX_POINTS = 10**6
MAX_POSITIONS = 1024
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


def _spec_from_config(cfg: dict) -> ScenarioSpec:
    scen = cfg.get("scenario")
    if isinstance(scen, str):
        spec = scenarios.builtin(scen)
    elif isinstance(scen, dict):
        try:
            vectors = scen.get("amps")
            if vectors is None:
                vectors = [scen["alpha"], scen["beta"]]
            spec = ScenarioSpec(
                name=scen.get("name", "custom"),
                family=scen["family"],
                n=_number(scen.get("n", 2), "n", 2, integer=True),
                config=VacuumConfig(tuple(np.asarray(v, float) for v in vectors)),
            )
            # building at p = 0 runs every channel and amplitude check once
            scenarios.build_scenario(spec, 0.0)
        except KeyError as exc:
            raise ConfigError(f"bad inline scenario: missing {exc}") from None
        except (TypeError, ValueError, LinksimError) as exc:
            raise ConfigError(f"bad inline scenario: {exc}") from None
    else:
        raise ConfigError("config must name a scenario (string or inline object)")
    policy = cfg.get("outcome_policy")
    if policy:
        try:
            spec = replace(spec, outcome_policy=policy)
        except ScenarioError as exc:
            raise ConfigError(str(exc)) from None
    return spec


def _scenario_config(args) -> tuple[dict, ScenarioSpec]:
    """The effective config, the file's with ``--scenario`` put in, and the
    spec it names."""
    cfg = _load_config(args.config)
    if args.scenario:
        cfg["scenario"] = args.scenario
    if "scenario" not in cfg:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    return cfg, _spec_from_config(cfg)


def _write(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or to stdout without a path."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_records(records, out_path: str | None) -> None:
    rows = [",".join([
        _fmt(r.p), _fmt(r.q), str(r.outcome), _fmt(r.fidelity),
        _fmt(r.oracle_fidelity), _fmt(r.conc_pairwise), _fmt(r.conc_one_vs_rest),
    ]) for r in records]
    _write("\n".join([CSV_HEADER, *rows]) + "\n", out_path)


def _grid(cfg: dict, args) -> np.ndarray:
    sweep_cfg = cfg.get("sweep", {})
    if not isinstance(sweep_cfg, dict):
        raise ConfigError("sweep must be a JSON object")
    start = args.start if args.start is not None else sweep_cfg.get("start", 0.0)
    stop = args.stop if args.stop is not None else sweep_cfg.get("stop", 1.0)
    points = args.points if args.points is not None else sweep_cfg.get("points", 101)
    return np.linspace(_number(start, "start", 0, 1), _number(stop, "stop", 0, 1),
                       _number(points, "points", 1, MAX_POINTS, integer=True))


def cmd_sweep(args) -> int:
    """``sweep`` (q locked to p) and ``grid`` (every (p, q) pair)."""
    cfg, spec = _scenario_config(args)
    p_grid = _grid(cfg, args)
    is_grid = args.command == "grid"
    if is_grid and len(p_grid) ** 2 > MAX_POINTS:
        raise ConfigError(f"a grid of {len(p_grid)}^2 points is more than "
                          f"{MAX_POINTS}")
    if args.dump_config:
        print(json.dumps({
            "scenario": cfg["scenario"],
            "sweep": {"start": float(p_grid[0]), "stop": float(p_grid[-1]),
                      "points": len(p_grid), "lock_q_to_p": not is_grid},
            "out": args.out,
            "emit_oracle": not args.no_oracle,
            "outcome_policy": spec.outcome_policy,
        }, indent=2))
        return 0
    records = scenarios.sweep(spec, p_grid, q_grid=p_grid if is_grid else None,
                              emit_oracle=not args.no_oracle)
    _write_records(records, args.out)
    if args.out:
        # zero-probability outcomes are dropped, so there may be no record
        fids = [r.fidelity for r in records]
        span = f", fidelity range [{_fmt(min(fids))}, {_fmt(max(fids))}]" if fids else ""
        print(f"{spec.name}: {len(records)} records{span} -> {args.out}")
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
    cfg, spec = _scenario_config(args)
    # only a family with free vacuum amplitudes has anything to optimize
    try:
        scenarios._free_slots(spec.family, spec.n)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from None
    p = args.p if args.p is not None else cfg.get("p")
    if p is None:
        raise ConfigError("optimize requires --p")
    p = _number(p, "p", 0, 1)
    q = _number(args.q if args.q is not None else cfg.get("q", p), "q", 0, 1)
    _number(args.seed, "seed", 0, integer=True)
    _number(args.restarts, "restarts", 1, MAX_RESTARTS, integer=True)
    if args.dump_config:
        print(json.dumps({"scenario": cfg["scenario"],
                          "p": p, "q": q, "seed": args.seed,
                          "restarts": args.restarts, "out": args.out}, indent=2))
        return 0
    result = scenarios.optimize_amplitudes(
        spec, p, q, seed=args.seed, restarts=args.restarts)
    payload = {
        "scenario": spec.name,
        "family": spec.family,
        "p": p,
        "q": q,
        "best_fidelity": float(result.best_fidelity),
        "best_config": [[float(x.real) for x in v]
                        for v in result.best_config.vectors],
        "iterations": result.iterations,
        "restarts": args.restarts,
        "seed": result.seed,
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    if args.out:
        print(f"best fidelity {_fmt(result.best_fidelity)} -> {args.out}")
    return 0


_COINS = {"hadamard": walk.HADAMARD,
          "identity": np.eye(2, dtype=complex),
          "x": np.array([[0, 1], [1, 0]], dtype=complex)}


def _coin_state(value) -> np.ndarray:
    """``value`` as a normalized coin state; it must be a non-zero 2-vector."""
    try:
        state = np.array(value, dtype=complex)
    except (TypeError, ValueError):
        state = np.zeros(0)
    norm = np.linalg.norm(state)
    if state.shape != (2,) or not 0.0 < norm < np.inf:
        raise ConfigError(f"coin_state must be a non-zero 2-vector, got {value!r}")
    return state / norm


def cmd_walk(args) -> int:
    cfg = _load_config(args.config)
    coin_name = args.coin or cfg.get("coin", "hadamard")
    coin = _COINS.get(coin_name) if isinstance(coin_name, str) else None
    if coin is None:
        raise ConfigError(f"unknown coin {coin_name!r}")
    n = args.positions if args.positions is not None else cfg.get("positions", 64)
    n = _number(n, "positions", 1, MAX_POSITIONS, integer=True)
    steps = args.steps if args.steps is not None else cfg.get("steps", 20)
    steps = _number(steps, "steps", 0, integer=True)
    if (steps + 1) * n > MAX_POINTS:
        raise ConfigError(f"a walk of {steps} steps on {n} positions writes "
                          f"{(steps + 1) * n} rows, more than {MAX_POINTS}")
    start = _number(cfg.get("start_position", n // 2), "start_position", 0, n - 1,
                    integer=True)
    coin_state = _coin_state(cfg.get("coin_state", [1.0, 1.0j]))
    initial = np.zeros(2 * n, dtype=complex)
    initial[2 * start: 2 * start + 2] = coin_state
    spec = walk.WalkSpec(n, coin, steps, initial)
    lines = ["step,position,probability"]
    for step, dist in enumerate(walk.simulate(spec)):
        for pos, prob in enumerate(dist):
            lines.append(f"{step},{pos},{_fmt(prob)}")
    _write("\n".join(lines) + "\n", args.out)
    if args.out:
        print(f"walk: {steps} steps on {n} positions -> {args.out}")
    return 0


def _add_common(sub, with_grid=True):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--scenario", help="builtin scenario name")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--dump-config", action="store_true",
                     help="echo the effective config and exit")
    if with_grid:
        sub.add_argument("--start", type=float, default=None)
        sub.add_argument("--stop", type=float, default=None)
        sub.add_argument("--points", type=int, default=None)
        sub.add_argument("--no-oracle", action="store_true",
                         help="omit closed-form oracle values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linksim",
        description="Entanglement generation via spatial superposition of "
                    "noisy channels",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("sweep", help="1-D noise sweep (q locked to p)")
    _add_common(s)
    s.set_defaults(func=cmd_sweep)

    s = subs.add_parser("grid", help="2-D (p, q) noise grid")
    _add_common(s)
    s.set_defaults(func=cmd_sweep)

    s = subs.add_parser("verify", help="re-check every proposition claim")
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("optimize", help="optimize vacuum amplitudes")
    _add_common(s, with_grid=False)
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--q", type=float, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--restarts", type=int, default=20)
    s.set_defaults(func=cmd_optimize)

    s = subs.add_parser("walk", help="discrete-time quantum walk CSV")
    s.add_argument("--config", help="JSON config file")
    s.add_argument("--coin", choices=sorted(_COINS), default=None)
    s.add_argument("--positions", type=int, default=None)
    s.add_argument("--steps", type=int, default=None)
    s.add_argument("--out", help="output file (default: stdout)")
    s.set_defaults(func=cmd_walk)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LinksimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_SCENARIO
        raise SystemExit(code) from None


if __name__ == "__main__":
    raise SystemExit(main())
