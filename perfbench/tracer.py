"""Span tracer that wraps linksim's public functions from the outside.

Each wrapped function records one span per call: its layer name, the
function, the index of the enclosing span, and two intervals. The inner
interval brackets the real call; the outer one also covers the tracer's
own bookkeeping (reading the clock, counting what the call returned).

A span's self time is its inner duration minus the outer durations of its
direct children, so self times, the tracer's bookkeeping and the time
outside any span add up exactly to the traced wall time.

Spans stay in memory until ``take_spans``; nothing is written while a
pass runs. ``Tracer.uninstall`` puts every original attribute back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from math import prod
from time import perf_counter

import numpy as np

# (module, attribute, layer). Every module attribute that refers to the
# same function object is swapped, so calls through a re-export or a
# ``from ... import`` binding are traced too.
FUNCTIONS = (
    ("linksim.cli", "main", "cli.self"),
    ("linksim.scenarios", "sweep", "scenarios.self"),
    ("linksim.scenarios", "evaluate_point", "scenarios.self"),
    ("linksim.scenarios", "verify_propositions", "scenarios.self"),
    ("linksim.scenarios", "optimize_amplitudes", "scenarios.optimizer_self"),
    ("linksim.scenarios", "build_scenario", "channels.build"),
    ("linksim.channels", "depolarizing_correlated", "channels.build"),
    ("linksim.channels", "pauli_channel_correlated", "channels.build"),
    ("linksim.channels", "memoryless_bitflip", "channels.build"),
    ("linksim.channels", "unitary_channel", "channels.build"),
    ("linksim.channels", "pauli_string", "channels.pauli_string"),
    ("linksim.superposition", "global_kraus", "superposition.global_kraus"),
    ("linksim.superposition", "apply", "superposition.apply"),
    ("linksim.superposition", "measure_control", "superposition.measure"),
    ("linksim.scenarios", "outcome_fidelity", "metrics.fidelity"),
    ("linksim.metrics", "fidelity_pure", "metrics.fidelity"),
    ("linksim.metrics", "fidelity_up_to_phase", "metrics.fidelity"),
    ("linksim.metrics", "avg_pairwise_concurrence", "metrics.conc_pairwise"),
    ("linksim.metrics", "concurrence", "metrics.conc_pairwise"),
    ("linksim.metrics", "avg_one_vs_rest_concurrence", "metrics.conc_one_vs_rest"),
    ("linksim.scenarios", "oracle_fidelity", "metrics.oracle"),
    ("linksim.metrics", "fid_closed_depolarizing", "metrics.oracle"),
    ("linksim.metrics", "fid_closed_bitphase", "metrics.oracle"),
    ("linksim.metrics", "fid_closed_w3", "metrics.oracle"),
    ("linksim.linalg", "partial_trace", "linalg.partial_trace"),
    ("linksim.linalg", "sqrt_psd", "linalg.sqrt_psd"),
)

# (module, class, layer): constructors traced through ``__post_init__``.
METHODS = (
    ("linksim.linalg", "DensityMatrix", "linalg.density_check"),
    ("linksim.channels", "VacuumExtendedChannel", "channels.build"),
)

LAYERS = tuple(dict.fromkeys(
    [layer for *_, layer in FUNCTIONS] + [layer for *_, layer in METHODS]))


def _apply_count(args, result) -> dict:
    scenario = args[0]
    dim = scenario.input.dim * scenario.control.dim
    ops = prod(len(c.kraus) for c in scenario.channels)
    # two complex dim x dim products per joint Kraus operator, 8 dim^3
    # real floating-point operations each
    return {"superposition.apply_flop_computed": ops * 16 * dim**3}


def _global_kraus_count(args, result) -> dict:
    return {"superposition.joint_kraus_ops": len(result),
            "superposition.zero_kraus_ops": sum(not s.any() for s in result)}


def _measure_count(args, result) -> dict:
    return {"superposition.zero_prob_outcomes":
            sum(o.post_state is None for o in result)}


def _optimize_count(args, result) -> dict:
    return {"scenarios.nm_iterations": result.iterations}


# counts taken from a call's arguments or result, by function name
COUNTERS = {
    "apply": _apply_count,
    "global_kraus": _global_kraus_count,
    "measure_control": _measure_count,
    "optimize_amplitudes": _optimize_count,
}


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for modname, attr, layer in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, layer, attr)
            for mod in [m for name, m in sys.modules.items()
                        if name == "linksim" or name.startswith("linksim.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for modname, clsname, layer in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__post_init__
            self._saved.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(original, layer, clsname)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            e_in = perf_counter()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            t_in = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t_out = perf_counter()
                stack.pop()
                counts[name] += 1
                if counter is not None and result is not None:
                    for key, value in counter(args, result).items():
                        counts[key] += value
                spans[index] = (layer, name, parent, e_in, t_in, t_out,
                                perf_counter())

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------

    def take_spans(self) -> tuple[list[tuple], dict[str, int]]:
        """Hand over and reset the spans and counts recorded so far."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: list[tuple]) -> tuple[dict[str, float], float, float]:
    """Per-layer self time, tracer bookkeeping, and top-level outer time.

    Self time is a span's inner duration minus the outer durations of its
    direct children.
    """
    child_outer = np.zeros(len(spans))
    top_outer = 0.0
    for layer, name, parent, e_in, t_in, t_out, e_out in spans:
        if parent >= 0:
            child_outer[parent] += e_out - e_in
        else:
            top_outer += e_out - e_in
    by_layer = dict.fromkeys(LAYERS, 0.0)
    bookkeeping = 0.0
    for i, (layer, name, parent, e_in, t_in, t_out, e_out) in enumerate(spans):
        by_layer[layer] += (t_out - t_in) - child_outer[i]
        bookkeeping += (e_out - e_in) - (t_out - t_in)
    return by_layer, bookkeeping, top_outer
