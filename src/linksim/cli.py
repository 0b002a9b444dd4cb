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
the effective config without running. Exit codes: 2 for config errors,
3 for scenario errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import scenarios, walk
from .metrics import VacuumConfig
from .scenarios import ScenarioSpec, ScenarioError, UnknownScenarioError

CSV_HEADER = "p,q,outcome,fidelity,oracle_fidelity,conc_pairwise,conc_one_vs_rest"

EXIT_CONFIG = 2
EXIT_SCENARIO = 3


def _fmt(x) -> str:
    """Serialize a float with 9 significant digits."""
    if x is None:
        return ""
    return format(float(x), ".9g")


def _fail(code: int, message: str) -> "NoReturn":  # noqa: F821
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_CONFIG, f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        _fail(EXIT_CONFIG, f"config {path} must be a JSON object")
    return cfg


def _spec_from_config(cfg: dict) -> ScenarioSpec:
    scen = cfg.get("scenario")
    if isinstance(scen, str):
        try:
            spec = scenarios.builtin(scen)
        except UnknownScenarioError as exc:
            _fail(EXIT_SCENARIO, str(exc))
    elif isinstance(scen, dict):
        try:
            vectors = scen.get("amps")
            if vectors is None:
                vectors = [scen["alpha"], scen["beta"]]
            spec = ScenarioSpec(
                name=scen.get("name", "custom"),
                family=scen["family"],
                n=int(scen.get("n", 2)),
                config=VacuumConfig(tuple(np.asarray(v, float) for v in vectors)),
                noise=tuple(scen["noise"]) if "noise" in scen else None,
            )
        except (KeyError, ValueError, ScenarioError) as exc:
            _fail(EXIT_CONFIG, f"bad inline scenario: {exc}")
    else:
        _fail(EXIT_CONFIG, "config must name a scenario (string or inline object)")
    policy = cfg.get("outcome_policy")
    if policy:
        try:
            spec = scenarios.replace_policy(spec, policy)
        except ScenarioError as exc:
            _fail(EXIT_CONFIG, str(exc))
    return spec


def _write_records(records, out_path: str | None) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            _fmt(r.p), _fmt(r.q), str(r.outcome), _fmt(r.fidelity),
            _fmt(r.oracle_fidelity), _fmt(r.conc_pairwise),
            _fmt(r.conc_one_vs_rest),
        ]))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(cfg: dict, args, key: str = "sweep") -> np.ndarray:
    sweep_cfg = cfg.get(key, {})
    start = args.start if args.start is not None else sweep_cfg.get("start", 0.0)
    stop = args.stop if args.stop is not None else sweep_cfg.get("stop", 1.0)
    points = args.points if args.points is not None else sweep_cfg.get("points", 101)
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0) or points < 1:
        _fail(EXIT_CONFIG, "grid must lie in [0, 1] with at least one point")
    return np.linspace(start, stop, points)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    spec = _spec_from_config(_with_scenario(cfg, args))
    grid = _grid(cfg, args)
    if args.dump_config:
        print(json.dumps({
            "scenario": cfg.get("scenario", args.scenario),
            "sweep": {"start": float(grid[0]), "stop": float(grid[-1]),
                      "points": len(grid), "lock_q_to_p": True},
            "out": args.out,
            "emit_oracle": not args.no_oracle,
            "outcome_policy": spec.outcome_policy,
        }, indent=2))
        return 0
    try:
        records = scenarios.sweep(spec, grid, emit_oracle=not args.no_oracle)
    except ScenarioError as exc:
        _fail(EXIT_SCENARIO, str(exc))
    _write_records(records, args.out)
    if args.out:
        fids = [r.fidelity for r in records]
        print(f"{spec.name}: {len(records)} records, fidelity range "
              f"[{_fmt(min(fids))}, {_fmt(max(fids))}] -> {args.out}")
    return 0


def cmd_grid(args) -> int:
    cfg = _load_config(args.config)
    spec = _spec_from_config(_with_scenario(cfg, args))
    p_grid = _grid(cfg, args)
    if args.dump_config:
        print(json.dumps({
            "scenario": cfg.get("scenario", args.scenario),
            "sweep": {"start": float(p_grid[0]), "stop": float(p_grid[-1]),
                      "points": len(p_grid), "lock_q_to_p": False},
            "out": args.out,
        }, indent=2))
        return 0
    try:
        records = scenarios.sweep(spec, p_grid, q_grid=p_grid,
                                  emit_oracle=not args.no_oracle)
    except ScenarioError as exc:
        _fail(EXIT_SCENARIO, str(exc))
    _write_records(records, args.out)
    if args.out:
        print(f"{spec.name}: {len(records)} grid records -> {args.out}")
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
    cfg = _load_config(args.config)
    spec = _spec_from_config(_with_scenario(cfg, args))
    p = args.p if args.p is not None else cfg.get("p")
    if p is None:
        _fail(EXIT_CONFIG, "optimize requires --p")
    q = args.q if args.q is not None else cfg.get("q", p)
    if args.dump_config:
        print(json.dumps({"scenario": cfg.get("scenario", args.scenario),
                          "p": p, "q": q, "seed": args.seed,
                          "restarts": args.restarts, "out": args.out}, indent=2))
        return 0
    try:
        result = scenarios.optimize_amplitudes(
            spec, p, q, seed=args.seed, restarts=args.restarts)
    except ScenarioError as exc:
        _fail(EXIT_SCENARIO, str(exc))
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
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"best fidelity {_fmt(result.best_fidelity)} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COINS = {"hadamard": walk.HADAMARD,
          "identity": np.eye(2, dtype=complex),
          "x": np.array([[0, 1], [1, 0]], dtype=complex)}


def cmd_walk(args) -> int:
    cfg = _load_config(args.config)
    coin_name = args.coin or cfg.get("coin", "hadamard")
    coin = _COINS.get(coin_name)
    if coin is None:
        _fail(EXIT_CONFIG, f"unknown coin {coin_name!r}")
    n = args.positions or cfg.get("positions", 64)
    steps = args.steps if args.steps is not None else cfg.get("steps", 20)
    start = cfg.get("start_position", n // 2)
    coin_state = np.array(cfg.get("coin_state", [1.0, 1.0j]), dtype=complex)
    coin_state /= np.linalg.norm(coin_state)
    initial = np.zeros(2 * n, dtype=complex)
    initial[2 * start: 2 * start + 2] = coin_state
    spec = walk.WalkSpec(n, coin, steps, initial)
    lines = ["step,position,probability"]
    for step, dist in enumerate(walk.simulate(spec)):
        for pos, prob in enumerate(dist):
            lines.append(f"{step},{pos},{_fmt(prob)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"walk: {steps} steps on {n} positions -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _with_scenario(cfg: dict, args) -> dict:
    out = dict(cfg)
    if getattr(args, "scenario", None):
        out["scenario"] = args.scenario
    if "scenario" not in out:
        _fail(EXIT_CONFIG, "no scenario given (use --scenario or a config file)")
    return out


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
    s.set_defaults(func=cmd_grid)

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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
