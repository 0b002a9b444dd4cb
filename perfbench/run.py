"""linksim benchmark: one closed-loop client calling the CLI in-process.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time from starting
  the interpreter to the workload's first point being written, which is
  what every CLI call pays before its real work;
* ``points_per_s``: points delivered per second of time in the program,
  over every pass of the workload's commands. A point is a CSV row on
  ``figures`` and ``ghz8``, and one Nelder-Mead iteration (as the command
  reports it) on ``optimize``, whose iteration count depends on the
  optimizer seed;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

Times are reported at reference speed (see ``SpeedProbe``) and also as
measured. With ``--trace 1`` it alternates untraced and traced passes and
reports per-layer self times and counts from spans recorded around the
calls into each layer (see ``tracer.py``). Every command's output is
checked; the last line printed is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads. With the default of one thread
# per core, the 512x512 products of ghz8 slow down several-fold whenever
# anything else runs on the box, which swamps the change being measured.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# fresh interpreters timed per run for setup_s; one more runs first,
# untimed, so that compiling the package's bytecode is not counted
SETUPS = 5

# The child imports the package, runs the workload's first point and takes
# the monotonic clock, which is shared by all processes on Linux. Then,
# untimed, it times the reference kernel (see SpeedProbe) on its own core.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from linksim.cli import main\n"
    "rc = main(sys.argv[4:])\n"
    "done = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import kernel\n"
    "speed = sorted(kernel(sys.argv[3]) for _ in range(9))[4]\n"
    "print(repr(done), repr(speed))\n"
    "sys.exit(rc)\n"
)

# The box's speed drifts by up to 2x, switching within a second or holding
# for minutes, and process CPU time drifts with wall time, so this is not
# preemption. Every time is therefore also reported at reference speed:
# a small fixed kernel, the benchmark's own code that no change to linksim
# can move, is timed next to the program, and the program's time is
# multiplied by the kernel's nominal time over its median measured time.
# While a command runs the kernel is timed periodically from a SIGALRM
# handler, on the same core at the same moment; the handler's time is taken
# out of the command's. Interpreted Python slows far more in a slow spell
# than large BLAS products do, so each workload is calibrated by the kernel
# that matches where its time goes.
EDGE_SAMPLES = 3
_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_HERM = _SMALL + _SMALL.conj().T
_LARGE = _RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))


def _interpreter_kernel() -> None:
    """Small numpy calls and interpreted Python, like most of linksim."""
    acc = 0.0
    for _ in range(12):
        m = np.kron(_SMALL[:2, :2], _SMALL[:4, :4]) @ _SMALL
        acc += float(np.linalg.eigvalsh(_HERM)[0]) + float(m[0, 0].real)
        acc += sum(j * j for j in range(40))


def _blas_kernel() -> None:
    """One complex product of matrices larger than a core's L2 cache, like
    the 512x512 products of ghz8."""
    _LARGE @ _LARGE


# kind -> (kernel, its nominal time in seconds, sampling period in seconds)
KERNELS = {
    "interpreter": (_interpreter_kernel, 0.0005, 0.05),
    "blas": (_blas_kernel, 0.003, 0.1),
}


def kernel(kind: str) -> float:
    """Time one run of the reference kernel of this kind."""
    t0 = time.perf_counter()
    KERNELS[kind][0]()
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel timings just before, during (when ``ticking``) and just
    after a timed stretch of the program."""

    def __init__(self, kind: str, ticking: bool):
        self.kind = kind
        self.ticking = ticking
        self.samples: list[float] = []
        self.busy = 0.0
        self._in_tick = False

    def __enter__(self):
        self.samples = [kernel(self.kind) for _ in range(EDGE_SAMPLES)]
        self.busy = 0.0
        if self.ticking:
            period = KERNELS[self.kind][2]
            self._saved = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def _tick(self, signum, frame):
        if self._in_tick:  # a late signal while the kernel runs
            return
        self._in_tick = True
        t0 = time.perf_counter()
        kernel(self.kind)  # refill the caches the program evicted
        self.samples.append(kernel(self.kind))
        self.busy += time.perf_counter() - t0
        self._in_tick = False

    def __exit__(self, *exc):
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._saved)
        self.samples += [kernel(self.kind) for _ in range(EDGE_SAMPLES)]

    def at_reference_speed(self, elapsed: float) -> float:
        return elapsed * KERNELS[self.kind][1] / statistics.median(self.samples)


# per-layer count metrics and the tracer counter each one reads
COUNTS = {
    "channels.builds": "VacuumExtendedChannel",
    "superposition.joint_kraus_ops": "superposition.joint_kraus_ops",
    "superposition.apply_flop_computed": "superposition.apply_flop_computed",
    "superposition.zero_prob_outcomes": "superposition.zero_prob_outcomes",
    "metrics.concurrence_calls": "concurrence",
    "linalg.density_checks": "DensityMatrix",
    "scenarios.points": "evaluate_point",
    "scenarios.nm_iterations": "scenarios.nm_iterations",
}

UNITS = {"setup_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB",
         "superposition.apply_flop_computed": "flop",
         "superposition.zero_kraus_ratio": "ratio",
         "trace_overhead_ratio": "ratio"}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class Ledger:
    """Operations attempted and the problems their checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def call(op, kind: str, tracer=None, ticking: bool = True
         ) -> tuple[float, float, list[str], int]:
    """Run one command in-process, traced if a tracer is given; return its
    time as measured and at reference speed, the problems found and the
    points delivered. Only the command is traced, not its check."""
    from linksim import cli
    if op.out is not None:
        op.out.unlink(missing_ok=True)  # so a stale file cannot pass the check
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), SpeedProbe(kind, ticking) as probe:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = traceback.format_exc()
            elapsed = time.perf_counter() - t0 - probe.busy
        finally:
            if tracer is not None:
                tracer.uninstall()
    scaled = probe.at_reference_speed(elapsed)
    if rc != 0:
        return elapsed, scaled, [f"{op.name}: exit {rc}"], 0
    return (elapsed, scaled, *inspect(op, buf.getvalue()))


def inspect(op, stdout: str) -> tuple[list[str], int]:
    """Check an operation's output and count the points it delivered."""
    try:
        text = op.output(stdout)
        problems = op.check(text)
        points = op.points(text) if callable(op.points) else op.points
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{op.name}: unreadable output: {exc!r}"], 0
    return problems, points


def setup_once(op, kind: str) -> tuple[float, float, list[str]]:
    """Time a fresh interpreter from launch to the first point written,
    as measured and at reference speed."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), kind, *op.argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        return float("nan"), float("nan"), [
            f"setup: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    done, speed = map(float, proc.stdout.splitlines()[-1].split())
    elapsed = done - t0
    return (elapsed, elapsed * KERNELS[kind][1] / speed,
            inspect(op, proc.stdout)[0])


def run_pass(ops, kind, ledger, tracer=None, ticking=True
             ) -> tuple[float, float, int]:
    """One pass over the workload's commands: the summed call time, the
    same at reference speed, and the points delivered.

    Traced passes sample the speed only around each call, so that no
    kernel runs inside a span.
    """
    total, scaled, points = 0.0, 0.0, 0
    for op in ops:
        elapsed, at_reference, problems, delivered = call(
            op, kind, tracer, ticking and tracer is None)
        total += elapsed
        scaled += at_reference
        points += delivered
        ledger.add(problems)
    return total, scaled, points


def timed_run(workload, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    first = workload.first_op()
    kind = workload.kernel
    setup_once(first, kind)
    setups, scaled_setups = [], []
    for _ in range(SETUPS):
        elapsed, at_reference, problems = setup_once(first, kind)
        ledger.add(problems)
        setups.append(elapsed)
        scaled_setups.append(at_reference)

    ops = workload.ops()
    ledger.add(call(first, kind)[2])  # warm-up: lazy imports and first-call costs
    passes, scaled, points = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        elapsed, at_reference, delivered = run_pass(ops, kind, ledger)
        passes.append(elapsed)
        scaled.append(at_reference)
        points.append(delivered)
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "points_per_s": sum(points) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = {
        "setup_s": statistics.median(setups),
        "points_per_s": sum(points) / sum(passes),
    }
    detail = {"measured": measured, "setup_s": setups,
              "setup_s_at_reference": scaled_setups, "pass_s": passes,
              "pass_s_at_reference": scaled, "points": points}
    return metrics, detail


def pass_layers(spans, counts, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    by_layer, bookkeeping, top_outer = self_times(spans)
    out = {f"{layer}_s": by_layer[layer] for layer in LAYERS}
    # the benchmark's own share of the traced calls: time outside any
    # span plus the tracer's bookkeeping
    out["bench.self_s"] = wall - top_outer + bookkeeping
    out["traced_wall_s"] = wall
    for metric, key in COUNTS.items():
        out[metric] = counts.get(key, 0)
    ops = counts.get("superposition.joint_kraus_ops", 0)
    out["superposition.zero_kraus_ratio"] = (
        counts.get("superposition.zero_kraus_ops", 0) / ops if ops else 0.0)
    out["scenarios.objective_calls"] = sum(
        1 for _, name, parent, *_ in spans
        if name == "build_scenario" and parent >= 0
        and spans[parent][1] == "optimize_amplitudes")
    return out


def traced_run(workload, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    tracer = Tracer()
    ops = workload.ops()
    kind = workload.kernel
    ledger.add(call(workload.first_op(), kind)[2])  # warm-up
    untraced, traced, first_spans = [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # sampled the same way as the traced pass, for the overhead ratio
        untraced.append(run_pass(ops, kind, ledger, ticking=False)[1])
        wall, at_reference, _ = run_pass(ops, kind, ledger, tracer)
        spans, counts = tracer.take_spans()
        layers = pass_layers(spans, counts, wall)
        for name in layers:
            if unit(name) == "s":
                layers[name] *= at_reference / wall
        traced.append(layers)
        if first_spans is None:
            first_spans = spans
    metrics = {}
    for name, value in traced[0].items():
        if unit(name) == "s":
            metrics[name] = statistics.median(p[name] for p in traced)
        else:
            metrics[name] = value
            # identical passes must do identical work
            if any(p[name] != value for p in traced[1:]):
                ledger.problems.append(f"{name} differs between passes")
                ledger.failed += 1
    metrics["trace_overhead_ratio"] = (
        statistics.median(p["traced_wall_s"] for p in traced)
        / statistics.median(untraced) - 1.0)
    t0 = first_spans[0][3] if first_spans else 0.0
    detail = {"untraced_pass_s": untraced, "traced_passes": traced,
              "span_fields": ["layer", "function", "parent", "enter",
                              "call", "return", "exit"],
              "spans": [[*s[:3], *(round(t - t0, 9) for t in s[3:])]
                        for s in first_spans]}
    return metrics, detail


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, workload) -> dict:
    import numpy as np
    import scipy
    commit = ""
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "linksim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit or None,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads(),
        "THREADS": os.environ.get("THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("THREADS", "1") != "1":
        print("error: THREADS must be unset or 1: the benchmark is one "
              "client sending one call at a time", file=sys.stderr)
        return 2
    if not (SRC / "linksim" / "__init__.py").is_file():
        print(f"error: no linksim package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ledger = Ledger()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        run = traced_run if args.trace else timed_run
        metrics, detail = run(workload, args.seconds, ledger)
        record = {"provenance": provenance(args, workload), "metrics": metrics,
                  "attempted": ledger.attempted, "failed": ledger.failed,
                  "problems": ledger.problems[:50], "detail": detail}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in ledger.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit(name)}")
    fail_ratio = ledger.failed / max(ledger.attempted, 1)
    print(f"{'fail_ratio':36s} {fail_ratio:14.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    if not args.trace:
        for name, value in detail["measured"].items():
            print(f"{name + ' as measured':36s} {value:14.6g} {unit(name)}")
        passes = sorted(detail["pass_s"])
        print(f"pass_s over {len(passes)} passes: min {passes[0]:.4f} "
              f"median {statistics.median(passes):.4f} max {passes[-1]:.4f}")
    shown = {k: v for k, v in record["provenance"].items() if k != "inputs"}
    print(f"provenance: {json.dumps(shown)}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
