"""Named runnable instances with machine-checkable expected outcomes.

Each fixture loads a shipped config document, runs a list of expectations
against it and reports per-expectation pass/fail.  Expectations tagged
"reference" assert the instance's published outcome directly, "trivial" ones
assert a value that is immediate from the construction, and tags of the form
"derived:<oracle>" compute their expected values from the named independent
oracle at run time instead of trusting a frozen number.  All fixtures pass on the shipped default
tolerances, and the test suite enforces that.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .config import Instance, load_instance
from .gspace import (
    Point,
    SequencePrefix,
    classify_sequence,
    enumerate_g_limits,
    eval_g,
    falsify_axiom,
    proximal_core,
)
from .properties import (
    banach_sides,
    check_banach_contraction,
    check_proximal_inequality,
    estimate_coefficient,
    estimate_proximal_coefficient,
    proximal_sides,
)
from .solvers import Schedule, berinde_scheme, picard, proximal_iterate

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


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _coords_close(p: Point, coords, tol: float) -> bool:
    return len(p.coords) == len(coords) and all(
        abs(a - b) <= tol for a, b in zip(p.coords, coords)
    )


class _Recorder:
    def __init__(self):
        self.outcomes: list[ExpectationOutcome] = []

    def expect(self, label: str, provenance: str, passed: bool, detail: str = ""):
        self.outcomes.append(
            ExpectationOutcome(label, provenance, bool(passed), detail)
        )


def _fx_xu_nonunique_limits(inst: Instance, rec: _Recorder) -> None:
    g = inst.g
    tol = inst.tol
    rep = falsify_axiom("identity", g, inst.set_("pair"), tol)
    rec.expect(
        "identity axiom falsified at ((1,0),(0,1))", "reference",
        rep.falsified
        and _coords_close(rep.witness["x"], (1, 0), 0)
        and _coords_close(rep.witness["y"], (0, 1), 0),
        f"witness {rep.witness}",
    )
    rep = falsify_axiom("triangle", g, inst.set_("triple"), tol)
    rec.expect(
        "triangle axiom falsified at ((1,0),(0,0),(4,0)) with 4 > 0", "reference",
        rep.falsified and rep.lhs == 4.0 and rep.rhs == 0.0
        and _coords_close(rep.witness["z"], (4, 0), 0),
        f"lhs {rep.lhs} rhs {rep.rhs}",
    )
    seq = SequencePrefix.from_function(lambda n: (1.0 / n, 1.0), 1000)
    for target in ((0.0, 1.0), (0.5, 1.0)):
        cls = classify_sequence(g, seq, Point(target), tol)
        rec.expect(
            f"sequence (1/n, 1) converges to {target} under g", "reference",
            cls.convergent is True,
            f"max tail residual {cls.max_convergence_residual}",
        )
    candidates = inst.set_("candidates")
    limits = enumerate_g_limits(g, seq, candidates, tol)
    # oracle: g(x_n, c) = c_x / n, so the tail maximum is |c_x| / (N - w + 1)
    window_start = len(seq) - tol.tail_len + 1
    oracle = [
        c for c in candidates.points
        if abs(c.coords[0]) / window_start <= tol.eps_zero
    ]
    rec.expect(
        "every grid candidate is a limit (441 of 441)",
        "derived:analytic-tail-residual",
        len(limits) == len(candidates) == 441 and limits == oracle,
        f"{len(limits)} limits",
    )
    got = {p.coords for p in limits}
    rec.expect(
        "both named limits (0,1) and (1/2,1) enumerated", "reference",
        (0.0, 1.0) in got and (0.5, 1.0) in got,
    )


def _fx_min_contraction(inst: Instance, rec: _Recorder) -> None:
    g, h = inst.gauge("g"), inst.gauge("h")
    t = inst.map_("T")
    tol = inst.tol
    rep = check_banach_contraction(g, t, 0.5, tol)
    rec.expect("contraction at alpha=1/2 under g", "reference", rep.holds)
    rep = check_banach_contraction(h, t, 0.9, tol)
    rec.expect("falsified under h at any alpha", "reference", rep.falsified)
    lhs, rhs = banach_sides(h, t, 0.9, {"x": Point((0.5, 0.0)), "y": Point((1.0, 0.0))})
    rec.expect(
        "replayed pair ((1/2,0),(1,0)): image gauge 2 vs alpha/2", "reference",
        lhs == 2.0 and rhs == 0.45,
        f"lhs {lhs} rhs {rhs}",
    )
    est = estimate_coefficient(g, t, tol)
    rec.expect(
        "tightest coefficient under g is exactly 1/2",
        "derived:exact-halving-ratio",
        est == 0.5,
        f"estimate {est}",
    )


def _fx_box_shift(inst: Instance, rec: _Recorder) -> None:
    g = inst.g
    f = inst.map_("f")
    tol = inst.tol
    rep = check_banach_contraction(g, f, 0.5, tol)
    rec.expect("shift map contracts at alpha=1/2", "reference", rep.holds)
    pts = f.domain.points[:: max(1, len(f.domain.points) // 60)]
    images = [f.apply(x) for x in pts]
    worst = max(abs(eval_g(g, fx, fy)) for fx in images for fy in images)
    rec.expect(
        "image gauge identically zero", "reference", worst == 0.0,
        f"max image gauge {worst}",
    )
    est = estimate_coefficient(g, f, tol)
    rec.expect("tightest coefficient is 0", "trivial", est == 0.0)


def _fx_halving_on_unit(inst: Instance, rec: _Recorder) -> None:
    g = inst.g
    t = inst.map_("T")
    tol = inst.tol
    est = estimate_coefficient(g, t, tol)
    rec.expect(
        "tightest coefficient is exactly 1/4", "reference", est == 0.25,
        f"estimate {est}",
    )
    trace = picard(g, t, Point((1.0,)), 0.25, tol)
    final_gap = abs(eval_g(g, trace.final, Point((0.0,))))
    rec.expect(
        "iteration reaches the zero fixed point within 16 steps", "reference",
        trace.converged and trace.steps <= 16 and final_gap <= 1e-9,
        f"{trace.steps} steps, |g(final, 0)| = {final_gap}",
    )
    decay = all(
        trace.step_residuals[k + 1] <= 0.25 * trace.step_residuals[k] + 1e-12
        for k in range(len(trace.step_residuals) - 1)
    )
    rec.expect(
        "residuals decay geometrically at rate 1/4",
        "derived:geometric-tail-bound", decay,
    )


def _fx_projection_nonunique_fixed(inst: Instance, rec: _Recorder) -> None:
    g = inst.g
    t = inst.map_("T")
    tol = inst.tol
    rep = falsify_axiom("identity", g, inst.set_("W"), tol)
    rec.expect(
        "identity axiom falsified: g((1,2),(4,2)) = 0 with distinct points",
        "reference",
        rep.falsified and rep.lhs == 0.0
        and _coords_close(rep.witness["x"], (1, 2), 0)
        and _coords_close(rep.witness["y"], (4, 2), 0),
    )
    rec.expect(
        "projection map contracts at alpha=1/2 under g", "reference",
        check_banach_contraction(g, t, 0.5, tol).holds,
    )
    finals = []
    for seed in ((3.0, 1.0), (7.0, 1.0)):
        trace = picard(g, t, Point(seed), 0.5, tol)
        finals.append(trace.final)
        rec.expect(
            f"iteration from {seed} reaches ({seed[0]}, 0)", "reference",
            trace.converged
            and _coords_close(trace.final, (seed[0], 0.0), 1e-9),
            f"final {trace.final}",
        )
    rec.expect(
        "the two fixed points are distinct", "reference",
        finals[0].coords[0] != finals[1].coords[0],
    )


def _fx_quarter_proximal(inst: Instance, rec: _Recorder) -> None:
    g, h = inst.gauge("g"), inst.gauge("h")
    t = inst.map_("T")
    a, b = inst.set_("A"), inst.set_("B")
    tol = inst.tol
    core = proximal_core(g, a, b, tol)
    rec.expect("proximity level under g is 0", "reference", core.d_g == 0.0)
    est = estimate_proximal_coefficient(g, t, a, 0.0, core, tol)
    rec.expect(
        "tightest proximal coefficient is 1/16 (within 1e-9)", "reference",
        _close(est, 0.0625, 1e-9), f"estimate {est!r}",
    )
    rep = check_proximal_inequality(g, t, a, 0.0625, 0.0, core, tol)
    rec.expect(
        "proximal weak contraction holds at beta=1/16, N=0", "reference",
        rep.holds and not rep.vacuous,
    )
    core_h = proximal_core(h, a, b, tol)
    rep_h = check_proximal_inequality(h, t, a, 0.9, 1.0, core_h, tol)
    rec.expect("falsified under h for any beta, N", "reference", rep_h.falsified)
    if rep_h.falsified:
        lhs, rhs = proximal_sides(h, rep_h.witness, 0.9, 1.0)
        rec.expect(
            "reported witness replays exactly", "trivial",
            lhs == rep_h.lhs and rhs == rep_h.rhs,
        )
    wit = {
        "x1": Point((0.0, 0.0)), "x2": Point((0.0, 0.0)),
        "u1": Point((0.0, 0.5)), "u2": Point((0.0, 0.25)),
    }
    lhs, rhs = proximal_sides(h, wit, 0.9, 1.0)
    rec.expect(
        "named witness quadruple gives 1/4 > 0 exactly", "reference",
        lhs == 0.25 and rhs == 0.0, f"lhs {lhs} rhs {rhs}",
    )


def _fx_finite_sets(inst: Instance, rec: _Recorder) -> None:
    g, metric = inst.gauge("g"), inst.gauge("metric")
    f = inst.map_("f")
    a, b = inst.set_("A"), inst.set_("B")
    tol = inst.tol
    table = {0.0: 4.0, 1.0: -1.0, 2.0: -2.0, 3.0: 4.0, 5.0: 4.0}
    rec.expect(
        "interpolating map reproduces the point table exactly", "trivial",
        all(f.apply(Point((x,))).coords[0] == y for x, y in table.items()),
    )
    core = proximal_core(g, a, b, tol)
    rec.expect("proximity level under g is 0", "reference", core.d_g == 0.0)
    # oracle: brute-force minimum over all 20 pairs and band membership
    pairs = [(x, y) for x in a.points for y in b.points]
    dmin = min(abs(eval_g(g, x, y)) for x, y in pairs)
    a_or = [
        x for x in a.points
        if any(abs(abs(eval_g(g, x, y)) - dmin) <= tol.eps_prox for y in b.points)
    ]
    b_or = [
        y for y in b.points
        if any(abs(abs(eval_g(g, x, y)) - dmin) <= tol.eps_prox for x in a.points)
    ]
    rec.expect(
        "realising sets are {1,2,3} and {-1,-2,-3}",
        "derived:pairwise-brute-force",
        list(core.a_g.points) == a_or == [Point((1.0,)), Point((2.0,)), Point((3.0,))]
        and list(core.b_g.points) == b_or
        == [Point((-1.0,)), Point((-2.0,)), Point((-3.0,))],
    )
    rep = check_proximal_inequality(g, f, a, 0.5, 1.0, core, tol)
    rec.expect(
        "proximal weak contraction holds under g at beta=1/2, N=1", "reference",
        rep.holds and not rep.vacuous,
    )
    # oracle: independent exhaustive enumeration of all 625 quadruples
    def qualifies(u, x):
        return abs(abs(eval_g(g, u, f.apply(x))) - dmin) <= tol.eps_prox
    violated = False
    for x1 in a.points:
        for x2 in a.points:
            for u1 in a.points:
                for u2 in a.points:
                    if qualifies(u1, x1) and qualifies(u2, x2):
                        wit = {"x1": x1, "x2": x2, "u1": u1, "u2": u2}
                        lhs, rhs = proximal_sides(g, wit, 0.5, 1.0)
                        if lhs > rhs + tol.eps_ineq:
                            violated = True
    rec.expect(
        "exhaustive 625-quadruple oracle agrees the inequality holds",
        "derived:exhaustive-quadruples",
        not violated and rep.holds,
    )
    core_d = proximal_core(metric, a, b, tol)
    rec.expect(
        "proximity level under the usual metric is 1", "reference",
        core_d.d_g == 1.0,
    )
    rep_d = check_proximal_inequality(metric, f, a, 0.5, 1.0, core_d, tol)
    rec.expect(
        "falsified under the metric with violation margin 1/2", "reference",
        rep_d.falsified and rep_d.margin == 0.5,
        f"witness {rep_d.witness} margin {rep_d.margin}",
    )
    wit = {
        "u1": Point((5.0,)), "x1": Point((0.0,)),
        "u2": Point((0.0,)), "x2": Point((1.0,)),
    }
    lhs, rhs = proximal_sides(metric, wit, 0.5, 1.0)
    rec.expect(
        "named witness (u1=5, x1=0, u2=0, x2=1) gives 5 > 4.5", "reference",
        lhs == 5.0 and rhs == 4.5,
    )


def _fx_g_closed_halfline(inst: Instance, rec: _Recorder) -> None:
    g, h = inst.gauge("g"), inst.gauge("h")
    a = inst.set_("A")
    tol = inst.tol
    seq = SequencePrefix.from_function(lambda n: 1.0 / n, 1000)
    cls = classify_sequence(g, seq, Point((0.5,)), tol)
    # oracle: |g(1/n, 1/2)| = 1/n, below zero level over the tail window
    bound = 1.0 / (len(seq) - tol.tail_len + 1)
    rec.expect(
        "1/n converges to 1/2 under the shifted gauge",
        "derived:analytic-limit",
        cls.convergent is True
        and cls.max_convergence_residual <= bound + 1e-15,
        f"max residual {cls.max_convergence_residual}",
    )
    rec.expect("the limit 1/2 belongs to the half line", "reference",
               a.contains(Point((0.5,))))
    cls_h = classify_sequence(h, seq, Point((-0.5,)), tol)
    rec.expect(
        "1/n converges to -1/2 under the product gauge", "reference",
        cls_h.convergent is True,
    )
    rec.expect(
        "-1/2 escapes the half line, so it is not closed under h", "reference",
        not a.contains(Point((-0.5,))),
    )


def _fx_segment_bpp(inst: Instance, rec: _Recorder) -> None:
    g = inst.g
    f = inst.map_("f")
    a, b = inst.set_("A"), inst.set_("B")
    tol = inst.tol
    core = proximal_core(g, a, b, tol)
    rec.expect(
        "proximity level 0 with singleton realising sets {(1,0)}", "reference",
        core.d_g == 0.0
        and list(core.a_g.points) == [Point((1.0, 0.0))]
        and list(core.b_g.points) == [Point((1.0, 0.0))],
    )
    rec.expect("uniqueness precondition 1 - beta - N = 1/2 > 0 and one seed only",
               "reference", len(core.a_g) == 1 and 1.0 - 0.5 - 0.0 > 0.0)
    trace = proximal_iterate(g, f, a, b, core, Point((1.0, 0.0)), tol)
    rec.expect(
        "iteration certifies (1,0) in one step with residual 0", "reference",
        trace.converged and trace.steps == 1
        and trace.final == Point((1.0, 0.0))
        and trace.certificate_residual <= 1e-12,
        f"{trace.steps} steps, residual {trace.certificate_residual}",
    )


def _fx_berinde_reflection(inst: Instance, rec: _Recorder) -> None:
    g = inst.g
    f = inst.map_("f")
    a, b = inst.set_("A"), inst.set_("B")
    cv = inst.convex
    sched = inst.schedule or Schedule.harmonic(10)
    res = berinde_scheme(
        g, f, a, b, cv.h, cv.r, cv.s, sched, inst.tol,
        lambda_grid=cv.lambda_grid,
    )
    for item in res.battery:
        rec.expect(f"hypothesis: {item.name}", "reference", item.passed, item.note)
    rec.expect(
        "scheme converges to (0,0) with residual at zero level", "reference",
        res.final == Point((0.0, 0.0)) and res.residual <= 1e-9,
        f"final {res.final} residual {res.residual}",
    )
    rec.expect(
        "every stage verifies its contraction at beta = 1 - a_n",
        "derived:stage-coefficients",
        all(
            abs(st.beta_n - (1.0 - st.a_n)) <= 1e-9
            and st.check.holds and not st.check.vacuous
            for st in res.stages
        ),
    )


def _fx_parallel_segments(inst: Instance, rec: _Recorder) -> None:
    g = inst.g
    f = inst.map_("f")
    a, b = inst.set_("A"), inst.set_("B")
    tol = inst.tol
    core = proximal_core(g, a, b, tol)
    rec.expect(
        "proximity level between the segments is exactly 1",
        "derived:closed-form-distance", core.d_g == 1.0,
    )
    trace = proximal_iterate(g, f, a, b, core, Point((0.0, 1.0)), tol)
    rec.expect(
        "iteration converges within 25 steps",
        "derived:geometric-sequence-oracle",
        trace.converged and trace.steps <= 25,
        f"{trace.steps} steps",
    )
    # oracle: the halving map visits (0, 2^-k) exactly
    oracle = [(0.0, 2.0 ** -k) for k in range(len(trace.points))]
    rec.expect(
        "iterates match the closed form (0, 2^-k) to 1e-12",
        "derived:geometric-sequence-oracle",
        all(
            _coords_close(p, q, 1e-12) for p, q in zip(trace.points, oracle)
        ),
    )
    rec.expect(
        "final step residual at most 1e-6",
        "derived:geometric-sequence-oracle",
        trace.step_residuals[-1] <= 1e-6,
        f"residual {trace.step_residuals[-1]}",
    )


_FIXTURES: dict[str, Callable[[Instance, _Recorder], None]] = {
    "xu-nonunique-limits": _fx_xu_nonunique_limits,
    "min-contraction": _fx_min_contraction,
    "box-shift": _fx_box_shift,
    "halving-on-unit": _fx_halving_on_unit,
    "projection-nonunique-fixed": _fx_projection_nonunique_fixed,
    "quarter-proximal": _fx_quarter_proximal,
    "finite-sets": _fx_finite_sets,
    "g-closed-halfline": _fx_g_closed_halfline,
    "segment-bpp": _fx_segment_bpp,
    "berinde-reflection": _fx_berinde_reflection,
    "parallel-segments": _fx_parallel_segments,
}


def fixture_names() -> list[str]:
    return list(_FIXTURES)


def fixture_config_path(name: str):
    """Filesystem path of a fixture's shipped config document."""
    if name not in _FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    return resources.files("gproxim") / "fixtures_data" / f"{name}.json"


def load_fixture_instance(name: str) -> Instance:
    return load_instance(fixture_config_path(name))


def run_fixture(name: str) -> FixtureReport:
    """Replay one fixture's expectations against its shipped config."""
    if name not in _FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    inst = load_fixture_instance(name)
    rec = _Recorder()
    _FIXTURES[name](inst, rec)
    return FixtureReport(name, tuple(rec.outcomes))


def run_fixtures(pattern: str = "*") -> list[FixtureReport]:
    """Run every fixture whose name matches the glob pattern."""
    return [
        run_fixture(name)
        for name in _FIXTURES
        if fnmatch.fnmatchcase(name, pattern)
    ]
