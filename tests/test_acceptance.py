"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line with its number.  Every tolerance is pinned here."""

import math
import random
import time

import pytest

from conftest import (
    OracleError,
    oracle_eval,
    random_env,
    random_expr,
    reflection_doc,
    rel_close,
    solve_berinde,
    write_config,
)
from gproxim.expr import EvalError, evaluate, format_expr, parse
from gproxim.fixtures import load_fixture_instance
from gproxim.gspace import (
    Point,
    SequencePrefix,
    enumerate_g_limits,
    eval_g,
    falsify_axiom,
    proximal_core,
)
from gproxim.properties import (
    check_proximal_inequality,
    estimate_proximal_coefficient,
    proximal_sides,
)
from gproxim.solvers import picard, proximal_iterate


def _report(number: int, description: str, passed: bool) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {description} ... {state}")
    assert passed, f"acceptance criterion {number} failed"


@pytest.fixture(scope="module")
def halving_trace():
    inst = load_fixture_instance("halving-on-unit")
    t0 = time.perf_counter()
    trace = picard(inst.g, inst.map_("T"), Point((1.0,)), 0.25, inst.tol)
    elapsed = time.perf_counter() - t0
    return inst, trace, elapsed


def test_criterion_1_picard_halving(halving_trace):
    inst, trace, elapsed = halving_trace
    gap = abs(eval_g(inst.g, trace.final, Point((0.0,))))
    ok = (
        trace.converged
        and trace.steps <= 16
        and gap <= 1e-9
        and elapsed < 0.010
    )
    _report(
        1,
        f"halving iteration: {trace.steps} steps, |g(final,0)| = {gap:.3e}, "
        f"{elapsed * 1000:.2f} ms",
        ok,
    )


def test_criterion_2_geometric_decay(halving_trace):
    _, trace, _ = halving_trace
    ok = all(
        trace.step_residuals[k + 1] <= 0.25 * trace.step_residuals[k] + 1e-12
        for k in range(len(trace.step_residuals) - 1)
    )
    _report(2, "geometric decay at rate 1/4 (+1e-12) along the trace", ok)


def test_criterion_3_touching_segments():
    inst = load_fixture_instance("segment-bpp")
    g, f = inst.g, inst.map_("f")
    a, b = inst.set_("A"), inst.set_("B")
    core = proximal_core(g, a, b, inst.tol)
    trace = proximal_iterate(g, f, a, b, core, Point((1.0, 0.0)), inst.tol)
    ok = (
        trace.converged
        and trace.steps == 1
        and trace.final == Point((1.0, 0.0))
        and trace.certificate_residual <= 1e-12
        and len(core.a_g) == 1
        and 1.0 - 0.5 - 0.0 > 0.0
    )
    _report(
        3,
        f"touching segments: final {trace.final.coords} in {trace.steps} step, "
        f"residual {trace.certificate_residual:.1e}, realising set size "
        f"{len(core.a_g)}",
        ok,
    )


def test_criterion_4_parallel_segments_oracle():
    inst = load_fixture_instance("parallel-segments")
    g, f = inst.g, inst.map_("f")
    a, b = inst.set_("A"), inst.set_("B")
    core = proximal_core(g, a, b, inst.tol)
    trace = proximal_iterate(g, f, a, b, core, Point((0.0, 1.0)), inst.tol)
    oracle = [(0.0, 2.0 ** -k) for k in range(len(trace.points))]
    coordwise = all(
        max(abs(c - o) for c, o in zip(p.coords, q)) <= 1e-12
        for p, q in zip(trace.points, oracle)
    )
    ok = (
        trace.converged
        and trace.steps <= 25
        and coordwise
        and trace.step_residuals[-1] <= 1e-6
    )
    _report(
        4,
        f"parallel segments: {trace.steps} steps match (0, 2^-k) to 1e-12, "
        f"last residual {trace.step_residuals[-1]:.2e}",
        ok,
    )


def test_criterion_5_quarter_coefficient_and_witness():
    inst = load_fixture_instance("quarter-proximal")
    g, h, t = inst.gauge("g"), inst.gauge("h"), inst.map_("T")
    a, b = inst.set_("A"), inst.set_("B")
    core = proximal_core(g, a, b, inst.tol)
    est = estimate_proximal_coefficient(g, t, a, 0.0, core, inst.tol)
    core_h = proximal_core(h, a, b, inst.tol)
    rep = check_proximal_inequality(h, t, a, 0.9, 1.0, core_h, inst.tol)
    replayed = proximal_sides(h, rep.witness, 0.9, 1.0) == (rep.lhs, rep.rhs)
    named = {
        "x1": Point((0.0, 0.0)), "x2": Point((0.0, 0.0)),
        "u1": Point((0.0, 0.5)), "u2": Point((0.0, 0.25)),
    }
    named_sides = proximal_sides(h, named, 0.9, 1.0)
    ok = (
        abs(est - 0.0625) <= 1e-9
        and rep.falsified
        and replayed
        and named_sides == (0.25, 0.0)
    )
    _report(
        5,
        f"quarter map: coefficient {est!r}, min-gauge falsified, named "
        f"quadruple replays to lhs={named_sides[0]}, rhs={named_sides[1]}",
        ok,
    )


def test_criterion_6_finite_sets_both_gauges():
    inst = load_fixture_instance("finite-sets")
    g, d, f = inst.gauge("g"), inst.gauge("metric"), inst.map_("f")
    a, b = inst.set_("A"), inst.set_("B")
    core = proximal_core(g, a, b, inst.tol)
    rep_g = check_proximal_inequality(g, f, a, 0.5, 1.0, core, inst.tol)

    def qualifies(gauge, level, u, x):
        return abs(abs(eval_g(gauge, u, f.apply(x))) - level) <= inst.tol.eps_prox

    brute = any(
        abs(eval_g(g, u1, u2))
        > 0.5 * abs(eval_g(g, x1, x2)) + abs(eval_g(g, x2, u1))
        + inst.tol.eps_ineq
        for x1 in a for x2 in a for u1 in a for u2 in a
        if qualifies(g, core.d_g, u1, x1) and qualifies(g, core.d_g, u2, x2)
    )
    core_d = proximal_core(d, a, b, inst.tol)
    rep_d = check_proximal_inequality(d, f, a, 0.5, 1.0, core_d, inst.tol)
    named = {
        "u1": Point((5.0,)), "x1": Point((0.0,)),
        "u2": Point((0.0,)), "x2": Point((1.0,)),
    }
    ok = (
        core.d_g == 0.0
        and rep_g.holds and not rep_g.vacuous and brute is False
        and rep_d.falsified and rep_d.margin == 0.5
        and proximal_sides(d, named, 0.5, 1.0) == (5.0, 4.5)
    )
    _report(
        6,
        "finite sets: level 0, square-gauge inequality holds (625-quadruple "
        f"oracle agrees), metric falsified with margin {rep_d.margin}",
        ok,
    )


def test_criterion_7_limit_enumeration():
    inst = load_fixture_instance("xu-nonunique-limits")
    g = inst.g
    seq = SequencePrefix.from_function(lambda n: (1.0 / n, 1.0), 1000)
    grid = inst.set_("candidates")
    limits = enumerate_g_limits(g, seq, grid, inst.tol)
    window_start = len(seq) - inst.tol.tail_len + 1
    oracle = [
        c for c in grid.points
        if abs(c.coords[0]) / window_start <= inst.tol.eps_zero
    ]
    got = {p.coords for p in limits}
    ok = (
        len(limits) == 441
        and limits == oracle
        and (0.0, 1.0) in got
        and (0.5, 1.0) in got
    )
    _report(
        7,
        f"limit enumeration: {len(limits)} of {len(grid)} grid candidates, "
        "including (0,1) and (1/2,1)",
        ok,
    )


def test_criterion_8_staged_scheme(tmp_path):
    # the berinde-reflection instance at resolution 11, solved as the
    # command line solves it; the fixture suite covers it at 201
    res = solve_berinde(write_config(tmp_path, reflection_doc()))
    stages_ok = all(
        abs(st.beta_n - (1.0 - 1.0 / (st.stage + 1))) <= 1e-9
        and st.check.holds and not st.check.vacuous
        for st in res.stages
    )
    ok = (
        res.hypotheses_ok
        and len(res.stages) == 10
        and res.final == Point((0.0, 0.0))
        and res.residual <= 1e-9
        and stages_ok
    )
    _report(
        8,
        f"staged scheme: battery ok, final {res.final.coords} with residual "
        f"{res.residual:.1e}, stage coefficients equal 1 - a_n",
        ok,
    )


def test_criterion_9_nonunique_fixed_points():
    inst = load_fixture_instance("projection-nonunique-fixed")
    g, t = inst.g, inst.map_("T")
    rep = falsify_axiom("identity", g, inst.set_("W"), inst.tol)
    finals = []
    for seed in ((3.0, 1.0), (7.0, 1.0)):
        trace = picard(g, t, Point(seed), 0.5, inst.tol)
        finals.append(trace.final)
    ok = (
        rep.falsified
        and rep.lhs == 0.0
        and rep.witness["x"] != rep.witness["y"]
        and all(
            f.coords[0] == s and abs(f.coords[1]) <= 1e-9
            for f, s in zip(finals, (3.0, 7.0))
        )
        and finals[0].coords != finals[1].coords
    )
    _report(
        9,
        f"projection gauge: identity witness at zero gauge, distinct fixed "
        f"points {finals[0].coords} and {finals[1].coords}",
        ok,
    )


def test_criterion_10_expression_dsl():
    rng = random.Random(20260809)
    count, ok = 0, True
    for _ in range(1000):
        e = random_expr(rng, 6)
        if parse(format_expr(e)) != e:
            ok = False
            break
        env = random_env(rng)
        try:
            ours, failed = evaluate(e, env), None
        except EvalError as err:
            ours, failed = None, err.kind
        try:
            ref, ref_failed = oracle_eval(e, env), None
        except OracleError as err:
            ref, ref_failed = None, err.kind
        if failed != ref_failed:
            ok = False
            break
        if failed is None and math.isfinite(ours) and not rel_close(ours, ref):
            ok = False
            break
        count += 1
    _report(
        10,
        f"expression DSL: {count} random trees round-trip and match the "
        "oracle to relative 1e-12",
        ok and count == 1000,
    )


def test_criterion_11_full_fixture_suite(fixture_suite):
    code, elapsed = fixture_suite.code, fixture_suite.elapsed
    ok = code == 0 and elapsed < 30.0
    _report(
        11,
        f"full fixture suite exits {code} in {elapsed:.1f}s (< 30s)",
        ok,
    )
