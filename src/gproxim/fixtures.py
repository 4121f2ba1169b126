"""Named runnable instances with machine-checkable expected outcomes.

A fixture is a config document in fixtures_data/ and its rows in _TABLE.
Each row states a subject in the command line's terms (a check spec, an
estimate, a report entry to replay, solve's arguments), runs it through the
command line's code (see _Run) and compares the result with the row's
expected values.  "reference" rows assert the instance's published outcome,
"trivial" ones a value immediate from the construction, and
"derived:<oracle>" ones an expected value that an independent oracle here
computes or states in closed form.  A new fixture is a config and its rows;
only a new oracle needs Python.  All fixtures pass on the shipped default
tolerances, and the test suite enforces that.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from importlib import resources
from types import SimpleNamespace
from typing import Any, Union

from .config import Instance, load_instance
from .gspace import (
    Point,
    SampleSet,
    SequencePrefix,
    classify_sequence,
    enumerate_g_limits,
    eval_g,
)

__all__ = [
    "ExpectationOutcome",
    "FixtureReport",
    "fixture_names",
    "fixture_config_path",
    "load_fixture_instance",
    "run_fixture",
    "run_fixtures",
]


@dataclass(frozen=True)
class ExpectationOutcome:
    label: str
    provenance: str  # "reference" | "trivial" | "derived:<oracle>"
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FixtureReport:
    name: str
    outcomes: tuple[ExpectationOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


# the sequences the rows name, by their terms
_SEQUENCES = {"(1/n, 1)": lambda n: (1.0 / n, 1.0), "1/n": lambda n: 1.0 / n}


class _Run:
    """One fixture's instance, one method per subject kind.  run(kind, *args)
    evaluates each subject once, in the order the rows ask.  The rows share
    the instance's memo (Instance.memo), as the checks of one verify command
    do: its proximity cores, and its contraction rows, so the checks and the
    estimate that read the same rows build them once."""

    def __init__(self, name: str):
        from . import cli  # imported here because cli imports this module

        self.cli, self.path = cli, str(fixture_config_path(name))
        self.inst, self.memo = load_instance(self.path), {}

    def __call__(self, kind: str, *args):
        key = repr((kind, args))  # the arguments are literals from the table
        if key not in self.memo:
            self.memo[key] = getattr(self, kind)(*args)
        return self.memo[key]

    def check(self, spec: str):
        return self.cli.run_check(self.inst, spec)

    def estimate(self, spec: str) -> float:  # as search gives it at seed 0
        c = self.cli._Spec(self.inst, spec)
        return self.cli._CHECKS[c.kind].sweep(c, 0, [])[0]

    def core(self, spec: str):  # the proximity core of the spec's gauge and sets
        return self.cli._Spec(self.inst, spec).core

    def replay(self, entry: Union[str, dict]):
        """A verify report entry, or a spec standing for its own report's,
        with replays telling whether the witness reproduces; None when the
        report has no witness."""
        if isinstance(entry, str):
            entry = self.cli._report_entry(entry, self("check", entry))
        same = self.cli.replay_entry(self.inst, entry)
        return None if same is None else SimpleNamespace(**entry, replays=same)

    def solve(self, argv: str):
        """The Trace, or for berinde the BerindeResult, of solve with argv."""
        args = self.cli.build_parser().parse_args(
            ["solve", "--config", self.path, *argv.split()]
        )
        return self.cli.solve(self.inst, args)[1]

    def hypothesis(self, name: str):  # None when the battery has no such item
        battery = self("solve", "--scheme berinde").battery
        return next((item for item in battery if item.name == name), None)

    def prefix(self, terms: str) -> SequencePrefix:  # the first 1000 terms
        return SequencePrefix.from_function(_SEQUENCES[terms], 1000)

    def sequence(self, gauge: str, terms: str, target: tuple):
        g, tol = self.inst.gauge(gauge), self.inst.tol
        return classify_sequence(g, self("prefix", terms), Point(target), tol)

    def limits(self, gauge: str, terms: str, candidates: str) -> list:
        g, s, tol = self.inst.gauge(gauge), self.inst.set_(candidates), self.inst.tol
        return enumerate_g_limits(g, self("prefix", terms), s, tol)

    def member(self, name: str, point: tuple) -> bool:
        return self.inst.set_(name).contains(Point(point))

    def images(self, name: str) -> list:  # of the domain points, in sample order
        f = self.inst.map_(name)
        return [f.apply(x) for x in f.domain.points]


def _plain(value):
    """value with its points as coordinate tuples, as the table writes them."""
    if isinstance(value, Point):
        return value.coords
    if isinstance(value, SampleSet):
        return [p.coords for p in value.points]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def _evaluate(run: _Run, subject, want: Any = None, template: str = ""):
    """(passed, detail) of a row.  subject is (_Run method, *args), or an
    oracle run -> (passed, detail).  want maps fields of the subject's result
    r to expected values or predicates, or else is what r itself must be;
    template is a str.format template over r for the detail."""
    if callable(subject):
        return subject(run)
    kind, *args = subject
    r = run(kind, *args)
    if r is None:  # the row fails, and never drops out of the report
        return False, f"{kind} {args[0]!r} has nothing to evaluate"
    wrong = []
    for name, expected in want.items() if isinstance(want, dict) else [(None, want)]:
        got = _plain(r if name is None else getattr(r, name))
        if not (expected(got) if callable(expected) else got == expected):
            wrong.append(f"{name or kind} is {got!r}")
    return not wrong, "; ".join(filter(None, [template.format(r=r), *wrong]))


# Oracles, and claims no one subject states: run -> (passed, detail).

def _tail_limits(run: _Run):
    # g(x_n, c) = c_x / n, so the tail maximum is |c_x| / (N - w + 1)
    tol, candidates = run.inst.tol, run.inst.set_("candidates").points
    limits = run("limits", "g", "(1/n, 1)", "candidates")
    start = len(run("prefix", "(1/n, 1)")) - tol.tail_len + 1
    oracle = [c for c in candidates if abs(c.coords[0]) / start <= tol.eps_zero]
    passed = len(limits) == len(candidates) == 441 and limits == oracle
    return passed, f"{len(limits)} limits"


def _image_gauge_zero(run: _Run):
    # every image has first coordinate 0; over every sixtieth domain point
    g, f = run.inst.g, run.inst.map_("f")
    images = [f.apply(x) for x in f.domain.points[:: max(1, len(f.domain) // 60)]]
    worst = max(abs(eval_g(g, fx, fy)) for fx in images for fy in images)
    return worst == 0.0, f"max image gauge {worst}"


def _reaches_zero(run: _Run):
    trace = run("solve", _PICARD)
    gap = abs(eval_g(run.inst.g, trace.final, Point((0.0,))))
    passed = trace.converged and trace.steps <= 16 and gap <= 1e-9
    return passed, f"{trace.steps} steps, |g(final, 0)| = {gap}"


def _distinct_fixed_points(run: _Run):
    a, b = (run("solve", f"--scheme picard --from ({x},1) --alpha 0.5").final
            for x in (3.0, 7.0))
    return a.coords[0] != b.coords[0], ""


def _gauge(g):
    return lambda p, q: abs(eval_g(g, p, q))


def _realising_sets(run: _Run):
    # the level is the least gauge over all 20 pairs; the sets, the pairs in band
    inst, g = run.inst, _gauge(run.inst.g)
    a, b = inst.set_("A").points, inst.set_("B").points
    level = min(g(x, y) for x in a for y in b)
    band = [(x, y) for x in a for y in b if abs(g(x, y) - level) <= inst.tol.eps_prox]
    a_or = [x.coords for x in a if any(x == p for p, _ in band)]
    b_or = [y.coords for y in b if any(y == q for _, q in band)]
    core = run("core", "proximal-weak:g")
    return (_plain(core.a_g) == a_or == [(1,), (2,), (3,)]
            and _plain(core.b_g) == b_or == [(-1,), (-2,), (-3,)]), ""


def _exhaustive_quadruples(run: _Run):
    # all 625 quadruples of A, the pairs qualifying by brute force
    inst, g = run.inst, _gauge(run.inst.g)
    f, a, tol = inst.map_("f"), inst.set_("A").points, inst.tol
    level = min(g(x, y) for x in a for y in inst.set_("B").points)
    pairs = [(x, u) for x in a for u in a
             if abs(g(u, f.apply(x)) - level) <= tol.eps_prox]
    violated = any(
        g(u1, u2) > 0.5 * g(x1, x2) + 1.0 * g(x2, u1) + tol.eps_ineq
        for x1, u1 in pairs for x2, u2 in pairs
    )
    return not violated and run("check", "proximal-weak:g:beta=0.5:N=1").holds, ""


def _final_step_residual(run: _Run):
    last = run(*_HALVING).step_residuals[-1]
    return last <= 1e-6, f"residual {last}"


REF, TRIVIAL, HOLDS, FALSIFIED = "reference", "trivial", "holds-on-sample", "falsified"
_PICARD = "--scheme picard --from 1 --alpha 0.25"
_HALVING = ("solve", "--scheme proximal --from (0,1)")  # visits (0, 2^-k)
_GEOMETRIC = "derived:geometric-sequence-oracle"
_BATTERY = ("convex-structure", "starshaped-A", "starshaped-B", "centres-realise-level",
            "semi-sharp", "berinde-nonexpansive", "side-condition")

# Each fixture's rows: (label, provenance, subject, want, detail template),
# the last three as _evaluate takes them.
_TABLE: dict[str, tuple[tuple, ...]] = {
    "xu-nonunique-limits": (
        ("identity axiom falsified at ((1,0),(0,1))", REF,
         ("check", "identity:g:set=pair"),
         {"verdict": FALSIFIED, "witness": {"x": (1, 0), "y": (0, 1)}}, "witness {r.witness}"),
        ("triangle axiom falsified at ((1,0),(0,0),(4,0)) with 4 > 0", REF,
         ("check", "triangle:g:set=triple"), {"verdict": FALSIFIED, "lhs": 4.0, "rhs": 0.0,
          "witness": {"x": (1, 0), "y": (0, 0), "z": (4, 0)}}, "lhs {r.lhs} rhs {r.rhs}"),
        *((f"sequence (1/n, 1) converges to {target} under g", REF,
           ("sequence", "g", "(1/n, 1)", target), {"convergent": True},
           "max tail residual {r.max_convergence_residual}")
          for target in ((0.0, 1.0), (0.5, 1.0))),
        ("every grid candidate is a limit (441 of 441)", "derived:analytic-tail-residual",
         _tail_limits),
        ("both named limits (0,1) and (1/2,1) enumerated", REF,
         ("limits", "g", "(1/n, 1)", "candidates"), lambda got: {(0, 1), (0.5, 1)} <= set(got)),
    ),
    "min-contraction": (
        ("contraction at alpha=1/2 under g", REF,
         ("check", "banach:g:map=T:alpha=0.5"), {"verdict": HOLDS}),
        ("falsified under h at any alpha", REF,
         ("check", "banach:h:map=T:alpha=0.9"), {"verdict": FALSIFIED}),
        ("replayed pair ((1/2,0),(1,0)): image gauge 2 vs alpha/2", REF,
         ("replay", {"spec": "banach:h:map=T:alpha=0.9", "lhs": 2.0, "rhs": 0.45,
                     "witness": {"x": [0.5, 0], "y": [1, 0]}}),
         {"replays": True}, "lhs {r.lhs} rhs {r.rhs}"),
        ("tightest coefficient under g is exactly 1/2", "derived:exact-halving-ratio",
         ("estimate", "banach:g:map=T"), 0.5, "estimate {r}"),  # T halves min(x2, u2)
    ),
    "box-shift": (
        ("shift map contracts at alpha=1/2", REF,
         ("check", "banach:g:map=f:alpha=0.5"), {"verdict": HOLDS}),
        ("image gauge identically zero", REF, _image_gauge_zero),
        ("tightest coefficient is 0", TRIVIAL, ("estimate", "banach:g:map=f"), 0.0),
    ),
    "halving-on-unit": (
        ("tightest coefficient is exactly 1/4", REF,
         ("estimate", "banach:g:map=T"), 0.25, "estimate {r}"),
        ("iteration reaches the zero fixed point within 16 steps", REF, _reaches_zero),
        ("residuals decay geometrically at rate 1/4", "derived:geometric-tail-bound",
         ("solve", _PICARD), {"step_residuals": lambda res: all(
             b <= 0.25 * a + 1e-12 for a, b in zip(res, res[1:]))}),
    ),
    "projection-nonunique-fixed": (
        ("identity axiom falsified: g((1,2),(4,2)) = 0 with distinct points", REF,
         ("check", "identity:g:set=W"),
         {"verdict": FALSIFIED, "lhs": 0.0, "witness": {"x": (1, 2), "y": (4, 2)}}),
        ("projection map contracts at alpha=1/2 under g", REF,
         ("check", "banach:g:map=T:alpha=0.5"), {"verdict": HOLDS}),
        *((f"iteration from {(x, 1.0)} reaches ({x}, 0)", REF,
           ("solve", f"--scheme picard --from ({x},1) --alpha 0.5"),
           {"converged": True,
            "final": lambda got, x=x: abs(got[0] - x) <= 1e-9 and abs(got[1]) <= 1e-9},
           "final {r.final}")
          for x in (3.0, 7.0)),
        ("the two fixed points are distinct", REF, _distinct_fixed_points),
    ),
    "quarter-proximal": (
        ("proximity level under g is 0", REF, ("core", "proximal-weak:g"), {"d_g": 0.0}),
        ("tightest proximal coefficient is 1/16 (within 1e-9)", REF,
         ("estimate", "proximal-weak:g:N=0"), lambda got: abs(got - 0.0625) <= 1e-9,
         "estimate {r!r}"),
        ("proximal weak contraction holds at beta=1/16, N=0", REF,
         ("check", "proximal-weak:g:beta=0.0625:N=0"), {"verdict": HOLDS, "vacuous": False}),
        ("falsified under h for any beta, N", REF,
         ("check", "proximal-weak:h:beta=0.9:N=1"), {"verdict": FALSIFIED}),
        ("reported witness replays exactly", TRIVIAL,
         ("replay", "proximal-weak:h:beta=0.9:N=1"), {"replays": True}),
        ("named witness quadruple gives 1/4 > 0 exactly", REF,
         ("replay", {"spec": "proximal-weak:h:beta=0.9:N=1", "lhs": 0.25, "rhs": 0.0,
                     "witness": {"x1": [0, 0], "x2": [0, 0], "u1": [0, 0.5], "u2": [0, 0.25]}}),
         {"replays": True}, "lhs {r.lhs} rhs {r.rhs}"),
    ),
    "finite-sets": (
        ("interpolating map reproduces the point table exactly", TRIVIAL,
         ("images", "f"), [(4,), (-1,), (-2,), (4,), (4,)]),  # at 0, 1, 2, 3, 5
        ("proximity level under g is 0", REF, ("core", "proximal-weak:g"), {"d_g": 0.0}),
        ("realising sets are {1,2,3} and {-1,-2,-3}", "derived:pairwise-brute-force",
         _realising_sets),
        ("proximal weak contraction holds under g at beta=1/2, N=1", REF,
         ("check", "proximal-weak:g:beta=0.5:N=1"), {"verdict": HOLDS, "vacuous": False}),
        ("exhaustive 625-quadruple oracle agrees the inequality holds",
         "derived:exhaustive-quadruples", _exhaustive_quadruples),
        ("proximity level under the usual metric is 1", REF,
         ("core", "proximal-weak:metric"), {"d_g": 1.0}),
        ("falsified under the metric with violation margin 1/2", REF,
         ("check", "proximal-weak:metric:beta=0.5:N=1"), {"verdict": FALSIFIED, "margin": 0.5},
         "witness {r.witness} margin {r.margin}"),
        ("named witness (u1=5, x1=0, u2=0, x2=1) gives 5 > 4.5", REF,
         ("replay", {"spec": "proximal-weak:metric:beta=0.5:N=1", "lhs": 5.0, "rhs": 4.5,
                     "witness": {"u1": [5], "x1": [0], "u2": [0], "x2": [1]}}),
         {"replays": True}),
    ),
    "g-closed-halfline": (
        ("1/n converges to 1/2 under the shifted gauge", "derived:analytic-limit",
         ("sequence", "g", "1/n", (0.5,)),  # |g(1/n, 1/2)| = 1/n over the tail n > 990
         {"convergent": True, "max_convergence_residual": lambda got: got <= 1 / 991 + 1e-15},
         "max residual {r.max_convergence_residual}"),
        ("the limit 1/2 belongs to the half line", REF, ("member", "A", (0.5,)), True),
        ("1/n converges to -1/2 under the product gauge", REF,
         ("sequence", "h", "1/n", (-0.5,)), {"convergent": True}),
        ("-1/2 escapes the half line, so it is not closed under h", REF,
         ("member", "A", (-0.5,)), False),
    ),
    "segment-bpp": (
        ("proximity level 0 with singleton realising sets {(1,0)}", REF,
         ("core", "proximal-weak:g"), {"d_g": 0.0, "a_g": [(1, 0)], "b_g": [(1, 0)]}),
        ("uniqueness precondition 1 - beta - N = 1/2 > 0 and one seed only", REF,
         ("core", "proximal-weak:g"), {"a_g": lambda got: len(got) == 1}),
        ("iteration certifies (1,0) in one step with residual 0", REF,
         ("solve", "--scheme proximal --from (1,0)"),
         {"converged": True, "steps": 1, "final": (1, 0),
          "certificate_residual": lambda got: got <= 1e-12},
         "{r.steps} steps, residual {r.certificate_residual}"),
    ),
    "berinde-reflection": (
        *((f"hypothesis: {name}", REF, ("hypothesis", name), {"passed": True}, "{r.note}")
          for name in _BATTERY),
        ("scheme converges to (0,0) with residual at zero level", REF,
         ("solve", "--scheme berinde"), {"final": (0, 0), "residual": lambda got: got <= 1e-9},
         "final {r.final} residual {r.residual}"),
        ("every stage verifies its contraction at beta = 1 - a_n",
         "derived:stage-coefficients", ("solve", "--scheme berinde"),
         {"stages": lambda stages: all(
             abs(st.beta_n - (1.0 - st.a_n)) <= 1e-9 and st.check.holds
             and not st.check.vacuous for st in stages)}),
    ),
    "parallel-segments": (
        ("proximity level between the segments is exactly 1",  # on x1 = 0 and x1 = 1
         "derived:closed-form-distance", ("core", "proximal-weak:g"), {"d_g": 1.0}),
        ("iteration converges within 25 steps", _GEOMETRIC,  # 2^-k < 1e-6 from k = 20
         _HALVING, {"converged": True, "steps": lambda got: got <= 25}, "{r.steps} steps"),
        ("iterates match the closed form (0, 2^-k) to 1e-12", _GEOMETRIC,
         _HALVING, {"points": lambda got: all(
             abs(p[0]) <= 1e-12 and abs(p[1] - 2.0 ** -k) <= 1e-12
             for k, p in enumerate(got))}),
        ("final step residual at most 1e-6", _GEOMETRIC, _final_step_residual),
    ),
}


def fixture_names() -> list[str]:
    return list(_TABLE)


def fixture_config_path(name: str):
    """Filesystem path of a fixture's shipped config document."""
    if name not in _TABLE:
        raise KeyError(f"unknown fixture {name!r}")
    return resources.files("gproxim") / "fixtures_data" / f"{name}.json"


def load_fixture_instance(name: str) -> Instance:
    return load_instance(fixture_config_path(name))


def run_fixture(name: str) -> FixtureReport:
    """Evaluate one fixture's table rows against its shipped config."""
    run = _Run(name)
    return FixtureReport(name, tuple(
        ExpectationOutcome(label, provenance, *_evaluate(run, *row))
        for label, provenance, *row in _TABLE[name]
    ))


def run_fixtures(pattern: str = "*") -> list[FixtureReport]:
    """Run every fixture whose name matches the glob pattern."""
    return [run_fixture(name) for name in _TABLE if fnmatch.fnmatchcase(name, pattern)]
