"""Spans and counters for the traced benchmark run.

The tracer rebinds gproxim's public functions, in every gproxim module that
imported them, with wrappers that open a span.  A span's self time is its
duration minus the time of the spans it encloses.  Four counters are charged
to the innermost open span:

- ``evals``: calls of ``gspace.eval_g``;
- ``points``: ``Point`` constructions;
- ``h_apply``: ``ConvexStructure.apply`` calls;
- ``map_apply``: ``MapSpec.apply`` calls.

Spans are kept in memory and read out once per job, so the worker can scale
each job's span times by that job's host-speed factor.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from typing import Callable

from workloads import FIXTURE_NAMES

MODULES = ("expr", "gspace", "properties", "solvers", "config", "fixtures", "cli")

# Public functions that open a span, as "module.function".
SPANS = (
    "cli.main",
    "cli.replay_entry",
    "config.load_instance",
    "expr.compile_expr",
    "expr.parse",
    "gspace.falsify_axiom",
    "gspace.check_convex_structure",
    "gspace.check_starshaped",
    "gspace.check_semi_sharp",
    "gspace.check_side_condition",
    "gspace.proximal_core",
    "gspace.proximal_select",
    "gspace.classify_sequence",
    "properties.check_banach_contraction",
    "properties.estimate_coefficient",
    "properties.qualifying_pairs",
    "properties.check_proximal_inequality",
    "properties.estimate_proximal_coefficient",
    "solvers.picard",
    "solvers.power_fixed_point",
    "solvers.proximal_iterate",
    "solvers.berinde_scheme",
    "fixtures.run_fixture",
)
EVALS, POINTS, H_APPLY, MAP_APPLY = range(4)


ROOT = "(outside any span)"


def _layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    scans = ("gspace.falsify_axiom", "properties.check_banach_contraction",
             "properties.estimate_coefficient")
    out = []
    for span in SPANS:
        if span == "fixtures.run_fixture":
            continue
        out.append((f"{span}.self_s", "s", "lower"))
        if span not in ("cli.main", "cli.replay_entry", "expr.compile_expr", "expr.parse",
                        "gspace.proximal_select"):
            out.append((f"{span}.evals", "count", "lower"))
            out.append((f"{span}.points", "count", "lower"))
        if span in scans:
            out.append((f"{span}.evals_per_s", "1/s", "higher"))
    out += [
        ("gspace.check_convex_structure.h_apply", "count", "lower"),
        ("properties.check_banach_contraction.map_apply", "count", "lower"),
        ("properties.qualifying_pairs.map_apply", "count", "lower"),
        ("properties.qualifying_pairs.pairs", "count", "lower"),
        ("gspace.proximal_core.peak_mb", "MB", "lower"),
        ("gspace.proximal_select.calls", "count", "lower"),
        ("gspace.proximal_select.evals", "count", "lower"),
        ("solvers.picard.steps", "count", "lower"),
        ("solvers.picard.map_apply", "count", "lower"),
        ("solvers.proximal_iterate.steps", "count", "lower"),
        ("solvers.berinde_scheme.steps", "count", "lower"),
    ]
    out += [(f"fixtures.run_fixture.{name}.total_s", "s", "lower") for name in FIXTURE_NAMES]
    out.append(("trace_overhead", "ratio", "lower"))
    return out


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Span and counter bookkeeping for one traced pass."""

    def __init__(self):
        # name -> [self_s, total_s, calls, evals, points, h_apply, map_apply, pairs, steps]
        self.stats: dict[str, list[float]] = {}
        self.fixture_total: dict[str, float] = {}
        # open spans: [counters list, child time]
        self.stack: list[list] = [[self._row(ROOT), 0.0]]

    def _row(self, name: str) -> list[float]:
        row = self.stats.get(name)
        if row is None:
            row = self.stats[name] = [0.0] * 9
        return row

    def span(self, name: str, fn: Callable) -> Callable:
        row = self._row(name)
        stack = self.stack
        clock = time.perf_counter
        extra = _EXTRA.get(name)
        fixture_total = self.fixture_total if name == "fixtures.run_fixture" else None

        def wrapper(*args, **kwargs):
            frame = [row, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                row[0] += dt - frame[1]
                row[1] += dt
                row[2] += 1
            if extra is not None:
                row[extra[0]] += extra[1](result)
            if fixture_total is not None:
                key = args[0] if args else kwargs.get("name")
                fixture_total[key] = fixture_total.get(key, 0.0) + dt
            return result

        return wrapper

    def counter(self, index: int, fn: Callable) -> Callable:
        stack = self.stack
        slot = 3 + index

        def wrapper(*args, **kwargs):
            stack[-1][0][slot] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self) -> tuple[dict, dict]:
        """Return and reset the statistics gathered since the last call."""
        snapshot = {name: row[:] for name, row in self.stats.items()}
        for row in self.stats.values():  # wrappers hold their rows: zero in place
            row[:] = [0.0] * 9
        fixtures = dict(self.fixture_total)
        self.fixture_total.clear()
        return snapshot, fixtures


# Extra per-span quantities: (row index, function of the result).
PAIRS, STEPS = 7, 8
_EXTRA = {
    "properties.qualifying_pairs": (PAIRS, len),
    "solvers.picard": (STEPS, lambda trace: trace.steps),
    "solvers.power_fixed_point": (STEPS, lambda trace: trace.steps),
    "solvers.proximal_iterate": (STEPS, lambda trace: trace.steps),
    "solvers.berinde_scheme": (STEPS, lambda res: sum(st.trace.steps for st in res.stages)),
}


def _modules():
    pkg = importlib.import_module("gproxim")
    mods = {name: importlib.import_module(f"gproxim.{name}") for name in MODULES}
    return pkg, mods


def _rebind(pkg, mods, owner: str, name: str, make: Callable[[Callable], Callable]) -> None:
    orig = getattr(mods[owner], name)
    wrapped = make(orig)
    for mod in (pkg, *mods.values()):
        if getattr(mod, name, None) is orig:
            setattr(mod, name, wrapped)


def install() -> Tracer:
    """Instrument gproxim for a traced pass."""
    pkg, mods = _modules()
    tracer = Tracer()
    for span in SPANS:
        owner, name = span.split(".")
        _rebind(pkg, mods, owner, name, lambda fn, span=span: tracer.span(span, fn))
    _rebind(pkg, mods, "gspace", "eval_g", lambda fn: tracer.counter(EVALS, fn))
    point = mods["gspace"].Point
    point.__post_init__ = tracer.counter(POINTS, point.__post_init__)
    convex = mods["gspace"].ConvexStructure
    convex.apply = tracer.counter(H_APPLY, convex.apply)
    mapspec = mods["properties"].MapSpec
    mapspec.apply = tracer.counter(MAP_APPLY, mapspec.apply)
    return tracer


class AllocProbe:
    """Peak traced allocation inside each ``proximal_core`` call."""

    def __init__(self):
        self.peak_bytes = 0

    def wrap(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes = max(self.peak_bytes, peak)

        return wrapper


def install_alloc() -> AllocProbe:
    """Instrument only ``proximal_core``, with tracemalloc on inside it."""
    pkg, mods = _modules()
    probe = AllocProbe()
    _rebind(pkg, mods, "gspace", "proximal_core", probe.wrap)
    return probe
