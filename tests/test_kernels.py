"""Differential tests: the scans that run on row kernels against a small
scalar reference kept here, which walks every tuple through eval_g in the
documented scan order.

Both sides must agree bit for bit: the same verdict, witness and lhs/rhs, or
the same typed error (class, kind and message).  Gauges come from the seeded
random-expression generator, plus planted cases: a violation early, in the
middle and late in a row, and a gauge that raises part way through a scan
with a violation planted before or after the raising tuple.
"""

from __future__ import annotations

import math
import random
import re
from itertools import count, repeat

import pytest

from conftest import random_expr
from gproxim.config import load_instance
from gproxim.expr import (
    Binary,
    EvalError,
    Num,
    Unary,
    Var,
    _gen,
    compile_expr,
    compile_row_kernels,
    parse,
)
from gproxim.fixtures import fixture_config_path
from gproxim.gspace import (
    ConvexStructure,
    GFunction,
    GSpaceError,
    NoProximalMate,
    Point,
    ProximalCore,
    SampleSet,
    ToleranceSet,
    check_convex_structure,
    check_side_condition,
    eval_g,
    falsify_axiom,
    proximal_core,
    proximal_select,
)
from gproxim.properties import (
    MapSpec,
    check_banach_contraction,
    check_proximal_inequality,
    estimate_coefficient,
    estimate_proximal_coefficient,
    qualifying_pairs,
)
from gproxim.solvers import proximal_iterate
import gproxim.gspace as gspace_module
import gproxim.properties as properties_module
import gproxim.solvers as solvers_module

TOL = ToleranceSet(eps_prox=1e-9, eps_zero=1e-9, eps_ineq=1e-9)
NO_SUBSAMPLING = 10 ** 12
HOLDS, FALSIFIED = "holds-on-sample", "falsified"


# --------------------------------------------------------------------------
# scalar reference scans


def ref_axiom(kind, g, pts, tol):
    if kind == "identity":
        for x in pts:
            for y in pts:
                if x.coords == y.coords:
                    continue
                v = abs(eval_g(g, x, y))
                if v <= tol.eps_zero:
                    return FALSIFIED, {"x": x, "y": y}, v, tol.eps_zero
    elif kind == "symmetry":
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                lhs = abs(abs(eval_g(g, x, y)) - abs(eval_g(g, y, x)))
                if lhs > tol.eps_ineq:
                    return FALSIFIED, {"x": x, "y": y}, lhs, tol.eps_ineq
    else:
        for x in pts:
            for y in pts:
                if y.coords == x.coords:
                    continue
                gxy = abs(eval_g(g, x, y))
                for z in pts:
                    if z.coords in (x.coords, y.coords):
                        continue
                    lhs = abs(eval_g(g, x, z))
                    rhs = gxy + abs(eval_g(g, y, z))
                    if lhs > rhs + tol.eps_ineq:
                        return FALSIFIED, {"x": x, "y": y, "z": z}, lhs, rhs
    return HOLDS, None, None, None


def ref_banach(g, t, alpha, tol):
    pts = list(t.domain.points)
    images = [t.apply(p) for p in pts]
    for x, tx in zip(pts, images):
        for y, ty in zip(pts, images):
            lhs = abs(eval_g(g, tx, ty))
            rhs = alpha * abs(eval_g(g, x, y))
            if lhs > rhs + tol.eps_ineq:
                return FALSIFIED, {"x": x, "y": y}, lhs, rhs
    return HOLDS, None, None, None


def ref_estimate(g, t, tol):
    pts = list(t.domain.points)
    images = [t.apply(p) for p in pts]
    best = 0.0
    for tx, x in zip(images, pts):
        for ty, y in zip(images, pts):
            num = abs(eval_g(g, tx, ty))
            den = abs(eval_g(g, x, y))
            if den > tol.eps_zero:
                best = max(best, num / den)
            elif num > tol.eps_zero:
                return math.inf
    return best


def ref_core(g, a, b, tol):
    values = [[abs(eval_g(g, x, y)) for y in b.points] for x in a.points]
    d_g = min(min(row) for row in values)
    a_pts, b_hit, wits = [], set(), []
    for x, row in zip(a.points, values):
        mates = [j for j, v in enumerate(row) if abs(v - d_g) <= tol.eps_prox]
        b_hit.update(mates)
        if mates:
            a_pts.append(x)
            wits.append((x, b.points[mates[0]]))
    b_pts = [y for j, y in enumerate(b.points) if j in b_hit]
    return d_g, a_pts, b_pts, wits


def ref_pairs(g, f, a, level, tol):
    images = [(x, f.apply(x)) for x in a.points]
    return [
        (x, u)
        for x, fx in images
        for u in a.points
        if abs(abs(eval_g(g, u, fx)) - level) <= tol.eps_prox
    ]


def ref_convex(h, g, pts, lams, tol, lams_two=None):
    """Both conditions over pts; condition two over lams_two when given."""
    eps = tol.eps_ineq
    for x0 in pts:
        gx = [abs(eval_g(g, x0, x)) for x in pts]
        gy = [abs(eval_g(g, x0, y)) for y in pts]
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                for lam in lams:
                    lhs = abs(eval_g(g, x0, h.apply(x, y, lam)))
                    rhs = lam * gx[i] + (1.0 - lam) * gy[j]
                    if lhs > rhs + eps:
                        wit = {"x0": x0, "x": x, "y": y, "lam": lam}
                        return FALSIFIED, wit, lhs, rhs
    for x in pts:
        for y in pts:
            for x0 in pts:
                gxx0 = abs(eval_g(g, x, x0))
                for y0 in pts:
                    gyy0 = abs(eval_g(g, y, y0))
                    for lam in lams if lams_two is None else lams_two:
                        lhs = abs(eval_g(g, h.apply(x, y, lam), h.apply(x0, y0, lam)))
                        rhs = lam * gxx0 + (1.0 - lam) * gyy0
                        if lhs > rhs + eps:
                            wit = {"x": x, "y": y, "x0": x0, "y0": y0, "lam": lam}
                            return FALSIFIED, wit, lhs, rhs
    return HOLDS, None, None, None


def ref_select(g, a, b, d_g, tol):
    best = None
    for x in a.points:
        residual = abs(abs(eval_g(g, x, b)) - d_g)
        if residual <= tol.eps_prox:
            if best is None or (residual, x.coords) < best[:2]:
                best = (residual, x.coords, x)
    if best is None:
        raise NoProximalMate(
            f"no point of {a.name or 'A'} realises the proximity level "
            f"{d_g!r} against {b} within {tol.eps_prox!r}"
        )
    return best[2]


def ref_side_condition(g, core, r, s, tol):
    target = 2.0 * ref_core(g, core.a_g, core.b_g, tol)[0]
    for x in core.b_g.points:
        grx = abs(eval_g(g, r, x))
        for y in core.a_g.points:
            lhs = grx + abs(eval_g(g, y, s))
            if abs(lhs - target) > tol.eps_ineq:
                return FALSIFIED, {"x": x, "y": y}, lhs, target
    return HOLDS, None, None, None


# --------------------------------------------------------------------------
# comparison helpers


def exact(value):
    """A comparable form in which floats compare bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Point):
        return tuple(c.hex() for c in value.coords)
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(exact(v) for v in value)
    return value


def outcome(fn):
    try:
        result = fn()
    except EvalError as exc:
        return "error", type(exc).__name__, exc.kind, str(exc)
    except GSpaceError as exc:
        return "error", type(exc).__name__, str(exc)
    if hasattr(result, "verdict"):
        result = (result.verdict, result.witness, result.lhs, result.rhs)
    elif hasattr(result, "d_g"):
        result = (result.d_g, result.a_g.points, result.b_g.points, result.witnesses)
    return "ok", exact(result)


def assert_same(kernel, reference):
    got, want = outcome(kernel), outcome(reference)
    assert got == want
    return want


def exact_set(coords, name):
    return SampleSet.from_points(coords, name=name)


# --------------------------------------------------------------------------
# the kernels themselves


def test_kernels_compile_lazily():
    g = GFunction("abs(x1-u1)", 1)
    assert "kernels" not in vars(g)
    inst = load_instance(fixture_config_path("halving-on-unit"))
    assert all("kernels" not in vars(gauge) for gauge in inst.gauges.values())
    falsify_axiom("identity", g, exact_set([0.0, 1.0], "S"), TOL)
    assert "kernels" in vars(g)


@pytest.mark.parametrize("seed", range(40))
def test_row_kernels_match_the_scalar_callable(seed):
    rng = random.Random(seed)
    e = random_expr(rng, 4)
    names = ("x1", "x2", "u1", "u2", "l")
    fn = compile_expr(e, names)
    kernels = compile_row_kernels(e, names[:2], names[2:])
    grid = [-2.5, -1.0, 0.0, 0.5, 2.0]
    rows = [((a, b), (c, d, lam)) for a in grid for b in grid[:2]
            for c in grid[1:3] for d in grid[3:] for lam in (0.0, 0.25)]
    for p, q in rows:
        try:
            want = abs(fn(*p, *q))
        except EvalError as exc:
            with pytest.raises(EvalError) as info:
                kernels.values([p], [q])
            assert (info.value.kind, str(info.value)) == (exc.kind, str(exc))
            continue
        got = kernels.values([p], [q])[0]
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))
        bound = 1.0
        hit = kernels.first_violation([p], [q], [0.0], [bound], 0.0)
        assert hit == (-1 if want <= bound else 0)


def test_first_violation_stops_at_nan_and_inf():
    kernels = compile_row_kernels(parse("x1*u1"), ("x1",), ("u1",))
    P, LA, R = [(1.0,)] * 3, [0.0], [1.0] * 3
    assert kernels.first_violation(P, [(0.5,), (math.nan,), (0.5,)], LA, R, 0.0) == 1
    assert kernels.first_violation(P, [(0.5,), (0.5,), (math.inf,)], LA, R, 0.0) == 2
    assert kernels.first_violation(P, [(0.5,)] * 3, LA, R, 0.0) == -1


def test_holding_scans_do_not_go_through_eval_g(monkeypatch):
    calls = []

    def counting(g, x, y):
        calls.append(1)
        return eval_g(g, x, y)

    monkeypatch.setattr(gspace_module, "eval_g", counting)
    monkeypatch.setattr(properties_module, "eval_g", counting)
    g = GFunction("abs(x1-u1)", 1)
    s = SampleSet.grid([(0.0, 1.0)], 33)
    t = MapSpec(["x1/2"], s, s)
    assert check_banach_contraction(g, t, 0.5, TOL).holds
    for kind in ("identity", "symmetry", "triangle"):
        assert falsify_axiom(kind, g, s, TOL).holds
    h = ConvexStructure(("l*x1 + (1-l)*u1",))
    monkeypatch.setattr(gspace_module, "MAX_TUPLES", 10 ** 5)
    assert check_convex_structure(h, g, s, LAMS, TOL).holds
    proximal_core(g, s, s, TOL)
    assert calls == []


# --------------------------------------------------------------------------
# seeded random gauges


def _without_l(e):
    """Replace the interpolation variable l, which gauges cannot use."""
    if isinstance(e, Var):
        return Num(0.5) if e.name == "l" else e
    if isinstance(e, Unary):
        return Unary(e.op, _without_l(e.operand))
    if isinstance(e, Binary):
        return Binary(e.op, _without_l(e.left), _without_l(e.right))
    return e


PLANE = [(-1.0, 0.5), (0.0, 0.0), (0.5, -1.0), (1.0, 1.0), (2.0, 0.5), (-0.5, -0.5)]
A_SET = exact_set(PLANE[:4], "A")
B_SET = exact_set([(c + 1.0, d) for c, d in PLANE[:5]], "B")
MAP = MapSpec(["x2/2", "0.25 - x1/2"], A_SET, A_SET)
CONVEX_SET = exact_set(PLANE[:4], "C")
LAMS = [0.0, 0.5, 1.0]


def _random_case(seed):
    rng = random.Random(seed)
    g = GFunction(_without_l(random_expr(rng, 3)), 2)
    if seed % 3:
        h = ConvexStructure(("l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"))
    else:
        h = ConvexStructure((random_expr(rng, 2), "l*x2 + (1-l)*u2"))
    return g, h


@pytest.mark.parametrize("seed", range(60))
def test_random_gauges_match_the_reference(seed):
    g, h = _random_case(seed)
    pts = list(A_SET.points)
    for kind in ("identity", "symmetry", "triangle"):
        assert_same(lambda: falsify_axiom(kind, g, A_SET, TOL),
                    lambda: ref_axiom(kind, g, pts, TOL))
    assert_same(lambda: check_banach_contraction(g, MAP, 0.5, TOL),
                lambda: ref_banach(g, MAP, 0.5, TOL))
    assert_same(lambda: estimate_coefficient(g, MAP, TOL),
                lambda: ref_estimate(g, MAP, TOL))
    core = assert_same(lambda: proximal_core(g, A_SET, B_SET, TOL),
                       lambda: ref_core(g, A_SET, B_SET, TOL))
    if core[0] == "ok":
        level = proximal_core(g, A_SET, B_SET, TOL)
        assert_same(lambda: qualifying_pairs(g, MAP, A_SET, level, TOL),
                    lambda: ref_pairs(g, MAP, A_SET, level.d_g, TOL))
    assert_same(
        lambda: check_convex_structure(h, g, CONVEX_SET, LAMS, TOL, NO_SUBSAMPLING),
        lambda: ref_convex(h, g, list(CONVEX_SET.points), LAMS, TOL),
    )


# --------------------------------------------------------------------------
# planted violations and errors on the grid t_i = i/16, i = 0..16

GRID = [i / 16 for i in range(17)]
LINE = exact_set(GRID, "L")
GRID_POINTS = list(LINE.points)
HALF = MapSpec(["x1/2"], LINE, LINE)


def _hat(var, at):
    # 1 at the grid point `at`, 0 at every other grid point
    return f"max(0, 1 - 128*abs({var} - {at!r}))"


def _planted(p, q, raise_at=None):
    """abs(x1-u1), 4 higher at the single ordered pair (p, q); with raise_at,
    division by zero wherever the second argument sits at that grid point.

    Under T(x) = x/2 and alpha = 1/2 the only banach violation is then
    (x, y) = (2p, 2q); the first triangle violation has x = p and z = q.
    """
    text = f"abs(x1-u1) + 4*{_hat('x1', p)}*{_hat('u1', q)}"
    if raise_at is not None:
        text += f" + 0/(u1 - {raise_at!r})"
    return GFunction(text, 1)


def _all_scans(g):
    """Every kernel scan on the planted instance, checked against the
    reference; returns the outcomes by scan."""
    h = ConvexStructure(("l*x1 + (1-l)*u1",))
    small = exact_set(GRID[::2], "S")
    out = {}
    for kind in ("identity", "symmetry", "triangle"):
        out[kind] = assert_same(lambda: falsify_axiom(kind, g, LINE, TOL),
                                lambda: ref_axiom(kind, g, GRID_POINTS, TOL))
    out["banach"] = assert_same(lambda: check_banach_contraction(g, HALF, 0.5, TOL),
                                lambda: ref_banach(g, HALF, 0.5, TOL))
    out["estimate"] = assert_same(lambda: estimate_coefficient(g, HALF, TOL),
                                  lambda: ref_estimate(g, HALF, TOL))
    out["core"] = assert_same(lambda: proximal_core(g, LINE, small, TOL),
                              lambda: ref_core(g, LINE, small, TOL))
    if out["core"][0] == "ok":
        level = proximal_core(g, LINE, small, TOL)
        out["pairs"] = assert_same(
            lambda: qualifying_pairs(g, HALF, LINE, level, TOL),
            lambda: ref_pairs(g, HALF, LINE, level.d_g, TOL),
        )
    out["convex"] = assert_same(
        lambda: check_convex_structure(h, g, small, LAMS, TOL, NO_SUBSAMPLING),
        lambda: ref_convex(h, g, list(small.points), LAMS, TOL),
    )
    return out


def _point_at(*values):
    return {k: exact(Point((v,))) for k, v in zip(("x", "y"), values)}


@pytest.mark.parametrize(
    "q", [GRID[1], GRID[4], GRID[7]], ids=["early", "middle", "late"]
)
def test_planted_violation_positions(q):
    # banach row x = 1/4 breaks at y = 2q: index 2, 8 or 14 of 17
    out = _all_scans(_planted(GRID[2], q))
    assert out["banach"][1][:2] == (FALSIFIED, _point_at(GRID[4], 2 * q))
    assert out["symmetry"][1][0] == FALSIFIED
    assert out["triangle"][1][1]["z"] == exact(Point((q,)))
    assert out["identity"][1][0] == HOLDS


@pytest.mark.parametrize(
    "q, first",
    [(GRID[1], "violation"), (GRID[7], "error")],
    ids=["violation-before-error", "violation-after-error"],
)
def test_planted_error_against_violation(q, first):
    # row x = 0 of the banach scan breaks at y = 2q, and g(0, 3/8) on its
    # right-hand side divides by zero at y = 3/8 (index 6); the symmetry
    # row x = 0 breaks at y = q and raises at y = 3/8
    out = _all_scans(_planted(0.0, q, raise_at=GRID[6]))
    for scan in ("banach", "symmetry"):
        if first == "violation":
            assert out[scan][0] == "ok" and out[scan][1][0] == FALSIFIED
        else:
            assert out[scan][:3] == ("error", "EvalError", "division-by-zero")
    assert out["core"][:3] == ("error", "EvalError", "division-by-zero")


# --------------------------------------------------------------------------
# proximal selection and the side condition


def _select_cases(g, a, b):
    """proximal_select against every point of B and two points off it."""
    core = proximal_core(g, a, b, TOL)
    targets = list(b.points) + [Point((9.0,) * a.dimension), Point((0.25,) * a.dimension)]
    for target in targets:
        assert_same(lambda: proximal_select(g, a, target, core, TOL),
                    lambda: ref_select(g, a, target, core.d_g, TOL))


@pytest.mark.parametrize("seed", range(60))
def test_random_gauges_select_and_side_condition_match_the_reference(seed):
    g, _ = _random_case(seed)
    try:
        core = proximal_core(g, A_SET, B_SET, TOL)
    except (EvalError, GSpaceError):
        return  # the core raises: compared in test_random_gauges_match_the_reference
    _select_cases(g, A_SET, B_SET)
    r, s = Point((0.5, 0.0)), Point((1.0, -0.5))
    assert_same(lambda: check_side_condition(g, core, r, s, TOL),
                lambda: ref_side_condition(g, core, r, s, TOL))


def test_select_breaks_exact_ties_by_coordinates():
    # 1 and -1 both realise the level 1 against 0; -1 comes second in A
    g = GFunction("abs(x1-u1)", 1)
    a, b = exact_set([1.0, -1.0, 5.0], "A"), exact_set([0.0, 6.0], "B")
    core = proximal_core(g, a, b, TOL)
    assert proximal_select(g, a, Point((0.0,)), core, TOL) == Point((-1.0,))
    _select_cases(g, a, b)


def test_select_with_an_empty_band_keeps_its_message():
    g = GFunction("abs(x1-u1)", 1)
    core = proximal_core(g, LINE, LINE, TOL)
    want = assert_same(lambda: proximal_select(g, LINE, Point((3.0,)), core, TOL),
                       lambda: ref_select(g, LINE, Point((3.0,)), core.d_g, TOL))
    assert want[:2] == ("error", "NoProximalMate")
    # a residual of exactly eps_prox is in the band
    wide = ToleranceSet(eps_prox=0.5)
    a = exact_set([0.0, 0.5], "A")
    core = proximal_core(g, a, exact_set([0.0], "B"), wide)
    assert proximal_select(g, a, Point((1.0,)), core, wide) == Point((0.5,))


@pytest.mark.parametrize("text, kind", [
    # 0/(x1 - 1/2) divides by zero at the middle of A, after the mate 0
    ("abs(x1-u1) + 0/(x1 - 0.5)", "division-by-zero"),
    # non-finite from x1 = 3/4 on
    ("abs(x1-u1) + 1e308*max(x1 - 0.7, 0)*1e10", "non-finite"),
])
def test_select_raises_where_the_scalar_loop_does(text, kind):
    g = GFunction(text, 1)
    b = exact_set([0.0], "B")
    core = proximal_core(GFunction("abs(x1-u1)", 1), LINE, b, TOL)
    want = assert_same(lambda: proximal_select(g, LINE, Point((0.0,)), core, TOL),
                       lambda: ref_select(g, LINE, Point((0.0,)), core.d_g, TOL))
    assert want[:3] == ("error", "EvalError", kind)
    wrong = Point((0.0, 0.0))
    want = assert_same(lambda: proximal_select(g, LINE, wrong, core, TOL),
                       lambda: ref_select(g, LINE, wrong, core.d_g, TOL))
    assert want[:2] == ("error", "DimensionMismatch")


def _side_condition_case(raise_at):
    """The two-centre side condition on two columns of 9 points: every sum is
    2 except that abs(g(r, x)) grows for x2 above 0.45, and g(r, x) divides
    by zero at x2 = raise_at, which no core or abs(g(y, s)) reaches."""
    g = GFunction(
        "abs(x1-u1) + max(u2 - 0.45, 0)*max(-x1, 0) + 0/(x1 + 1.5 + u2 - "
        f"{0.5 + raise_at!r})",
        2,
    )
    a = SampleSet.grid([(0.0, 0.0), (0.0, 1.0)], [1, 9], name="A")
    b = SampleSet.grid([(1.0, 1.0), (0.0, 1.0)], [1, 9], name="B")
    core = proximal_core(g, a, b, TOL)
    r, s = Point((-1.0, 0.0)), Point((0.0, 0.0))
    return assert_same(lambda: check_side_condition(g, core, r, s, TOL),
                       lambda: ref_side_condition(g, core, r, s, TOL))


def test_side_condition_violation_before_and_after_an_error():
    # the first violation is at x2 = 1/2, the fifth point of b_g
    got = _side_condition_case(raise_at=0.75)
    assert got[1][0] == FALSIFIED
    assert got[1][1]["x"] == exact(Point((1.0, 0.5)))
    got = _side_condition_case(raise_at=0.25)
    assert got[:3] == ("error", "EvalError", "division-by-zero")


def test_side_condition_off_by_exactly_eps_holds():
    # abs(g(r, x)) = 2 + max(x2 - 1/2, 0): off the level 2 by exactly 1/8 at
    # x2 = 5/8, which holds, and by 1/4 at x2 = 3/4, the first violation
    tol = ToleranceSet(eps_ineq=0.125)
    g = GFunction("abs(x1-u1) + max(u2 - 0.5, 0)*max(-x1, 0)", 2)
    a = SampleSet.grid([(0.0, 0.0), (0.0, 1.0)], [1, 9], name="A")
    b = SampleSet.grid([(1.0, 1.0), (0.0, 1.0)], [1, 9], name="B")
    core = proximal_core(g, a, b, tol)
    r, s = Point((-1.0, 0.0)), Point((0.0, 0.0))
    got = assert_same(lambda: check_side_condition(g, core, r, s, tol),
                      lambda: ref_side_condition(g, core, r, s, tol))
    assert got[1][1]["x"] == exact(Point((1.0, 0.75)))


def test_a_row_wholly_in_band_shares_the_points_of_b():
    # g ignores its second point: only x = 1 realises the level, with all of B
    g = GFunction("abs(x1 - 2)", 1)
    b = exact_set([0.0, 1.0], "B")
    core = proximal_core(g, LINE, b, TOL)
    assert core.partners == (b.points,) and core.partners[0] is b.points


# --------------------------------------------------------------------------
# the fast text: bare operations, and the checked rerun of values


@pytest.mark.parametrize("text, row, kind, bare", [
    ("sqrt(x1 - u1)", [1.0, 0.5, -0.5, 2.0], "sqrt-of-negative", ValueError),
    ("1/(x1 - u1)", [1.0, 0.5, 0.0, 2.0], "division-by-zero", ZeroDivisionError),
    ("x1^2 + u1", [1.0, 1e100, 1e200, 2.0], "non-finite", OverflowError),
])
def test_fast_text_raises_where_the_checked_text_does(text, row, kind, bare):
    e = parse(text)
    fn = compile_expr(e, ("x1", "u1"))
    kernels = compile_row_kernels(e, ("x1",), ("u1",))
    P, Q = [(v,) for v in row], [(0.0,)] * len(row)
    with pytest.raises(EvalError) as scalar:
        for p, q in zip(P, Q):
            fn(*p, *q)
    with pytest.raises(EvalError) as info:
        kernels.values(P, Q)
    assert (info.value.kind, str(info.value)) == (kind, str(scalar.value))
    assert [math.isnan(v) for v in kernels.marked(P, Q)] == [False, False, True, False]
    # first_violation runs the fast text alone; marked marks the raising tuple
    assert kernels.first_violation(P[:2], Q[:2], [0.0], [1e300] * 2, 0.0) == -1
    with pytest.raises(bare):
        kernels.first_violation(P, Q, [0.0], [1e300] * len(P), 0.0)
    assert math.isnan(kernels.marked(P, Q)[2])


def test_a_non_integral_literal_exponent_keeps_the_checked_power():
    # (-1) ** 0.5 is a complex number in Python, whose abs is 1.0
    kernels = compile_row_kernels(parse("x1^0.5"), ("x1",), ("u1",))
    with pytest.raises(EvalError) as info:
        kernels.first_violation([(-1.0,)], [(0.0,)], [0.0], [10.0], 0.0)
    assert info.value.kind == "fractional-power-of-negative"
    assert kernels.values([(4.0,)], [(0.0,)]) == [2.0]


def test_values_reads_a_one_shot_row_into_a_list_before_its_first_pass():
    # the fast pass raises at the third tuple; the checked pass must see the
    # whole row again, not the one tuple left in a generator
    kernels = compile_row_kernels(parse("sqrt(x1) + sqrt(u1)"), ("x1",), ("u1",))
    P = [(1.0,), (4.0,), (-1.0,), (9.0,)]
    for args in (((p for p in P), repeat((0.0,))), (repeat((0.0,)), (p for p in P))):
        with pytest.raises(EvalError) as info:
            kernels.values(*args)
        assert info.value.kind == "sqrt-of-negative"
    assert kernels.values(iter(P[:2]), repeat((0.0,))) == [1.0, 2.0]


def test_fast_text_inlines_min_and_max_with_one_binding_per_temporary():
    for text in ("min(max(x1,u1),min(x2,u2))",
                 "min(max(x1*2,u1+1),min(x2-1,max(u2,x1/u1)))"):
        fast = _gen(parse(text), count())
        assert "min(" not in fast and "max(" not in fast
        bound = re.findall(r"\((_t\d+) :=", fast)
        assert len(bound) == len(set(bound))
        assert all(fast.count(f"{name} :=") == 1 for name in bound)
    # a variable operand is read twice instead of bound
    assert _gen(parse("min(x1,u1)"), count()) == "(u1 if x1 > u1 else x1)"


# --------------------------------------------------------------------------
# the convex check's fused loop, against the reference

FUSED_SET = exact_set(GRID[::2], "S")
AVERAGE_H = ConvexStructure(("l*x1 + (1-l)*u1",))


def _fused(g, lams=LAMS):
    return assert_same(
        lambda: check_convex_structure(AVERAGE_H, g, FUSED_SET, lams, TOL, NO_SUBSAMPLING),
        lambda: ref_convex(AVERAGE_H, g, list(FUSED_SET.points), lams, TOL),
    )


def test_fused_convex_condition_one_violation():
    # H(0, 1/8, 1/2) = 1/16 sits 4 higher under g than any endpoint does
    got = _fused(GFunction(f"abs(x1-u1) + 4*{_hat('u1', 1 / 16)}", 1))
    assert got[1][:2] == (FALSIFIED, {
        "x0": exact(Point((0.0,))), "x": exact(Point((0.0,))),
        "y": exact(Point((0.125,))), "lam": exact(0.5),
    })


def test_fused_convex_condition_two_violation():
    # no sample point is 1/16 or 3/16, so condition one holds; condition two
    # breaks between the interpolants 1/16 = H(0, 1/8, 1/2) and 3/16
    g = GFunction(f"abs(x1-u1) + 4*{_hat('x1', 1 / 16)}*{_hat('u1', 3 / 16)}", 1)
    got = _fused(g)
    assert got[1][0] == FALSIFIED and "y0" in got[1][1]


def test_fused_convex_h_raising_in_a_q_row_of_condition_two(monkeypatch):
    # Under 48 tuples condition one reads the lambdas 0, .2, .4, .6, .8, 1
    # and condition two 0, .5, 1, over both points of S.  H divides by zero
    # at x = 1/8, y = 0, l = 1/2, which only condition two reads: in its q
    # row for x0 = 1/8, while the p row for x = y = 0 is whole.
    s = exact_set([0.0, 0.125], "S")
    h = ConvexStructure(
        ("l*x1 + (1-l)*u1 + 0/(abs(x1 - 0.125) + abs(u1) + abs(l - 0.5))",)
    )
    g = GFunction("0*(x1-u1)", 1)  # every comparison holds, unless marked
    lams = [i / 10 for i in range(11)]
    pts = list(s.points)
    assert ref_convex(h, g, pts, lams[::2], TOL, [])[0] == HOLDS
    monkeypatch.setattr(gspace_module, "MAX_TUPLES", 48)
    got = assert_same(
        lambda: check_convex_structure(h, g, s, lams, TOL),
        lambda: ref_convex(h, g, pts, lams[::2], TOL, [0.0, 0.5, 1.0]),
    )
    assert got[:3] == ("error", "EvalError", "division-by-zero")


@pytest.mark.parametrize("plant, verdict", [
    ("", HOLDS),
    (f" + 5e306*{_hat('u1', 1 / 16)}", FALSIFIED),
    (f" + 1e308*{_hat('u1', -1 / 8)}", "non-finite"),
], ids=["holds", "violated", "left-side-infinite"])
def test_fused_convex_right_sides_overflowing(plant, verdict):
    # lambda 2 makes 2 * |g| = 1.8e308 overflow to inf on every right side,
    # while every left side stays at most 9.5e307, except where the last
    # plant puts an infinite one: at H(0, 1/8, 2) = -1/8, under lambda 2
    got = _fused(GFunction("9e307 + 0*x1" + plant, 1), lams=[0.0, 0.5, 1.0, 2.0])
    assert (got[1][0] if got[0] == "ok" else got[2]) == verdict


# --------------------------------------------------------------------------
# the proximal quadruple scans, and the search sweep


def ref_proximal(g, pairs, beta, n_cap, tol):
    for x1, u1 in pairs:
        for x2, u2 in pairs:
            lhs = abs(eval_g(g, u1, u2))
            rhs = beta * abs(eval_g(g, x1, x2)) + n_cap * abs(eval_g(g, x2, u1))
            if lhs > rhs + tol.eps_ineq:
                return FALSIFIED, {"x1": x1, "x2": x2, "u1": u1, "u2": u2}, lhs, rhs
    return HOLDS, None, None, None


def ref_proximal_estimate(g, pairs, n_cap, tol):
    best = 0.0
    for x1, u1 in pairs:
        for x2, u2 in pairs:
            num = abs(eval_g(g, u1, u2))
            den = abs(eval_g(g, x1, x2))
            num -= n_cap * abs(eval_g(g, x2, u1))
            if den > tol.eps_zero:
                best = max(best, num / den)
            elif num > tol.eps_zero:
                return math.inf
    return best


def _report(rep):
    return rep.verdict, rep.witness, rep.lhs, rep.rhs


def _searched(sweep, values):
    """What search reports: the estimate and each value's report, from the
    one-pass sweep."""
    estimate, reports = sweep(values)
    return estimate, [_report(rep) for rep in reports]


def _ref_searched(estimate, check, values):
    return estimate(), [check(v) for v in values]


BETAS = [0.25, 0.5, 0.75, 1.0]
ALPHAS = [0.25, 0.5, 0.75]


def _proximal_scans(g, f, a, core, n_cap, tol=TOL, betas=BETAS):
    """The proximal check at each beta, the estimate and the sweep, each
    against the reference; returns the outcomes by scan."""
    pairs = lambda: ref_pairs(g, f, a, core.d_g, tol)
    out = {}
    for beta in betas:
        out[beta] = assert_same(
            lambda: check_proximal_inequality(g, f, a, beta, n_cap, core, tol),
            lambda: ref_proximal(g, pairs(), beta, n_cap, tol),
        )
    out["estimate"] = assert_same(
        lambda: estimate_proximal_coefficient(g, f, a, n_cap, core, tol),
        lambda: ref_proximal_estimate(g, pairs(), n_cap, tol),
    )
    out["search"] = assert_same(
        lambda: _searched(
            lambda vs: estimate_proximal_coefficient(g, f, a, n_cap, core, tol, sweep=vs),
            betas,
        ),
        lambda: _ref_searched(
            lambda: ref_proximal_estimate(g, pairs(), n_cap, tol),
            lambda v: ref_proximal(g, pairs(), v, n_cap, tol),
            betas,
        ),
    )
    return out


@pytest.mark.parametrize("seed", range(60))
def test_random_gauges_proximal_scans_match_the_reference(seed):
    g, _ = _random_case(seed)
    try:
        core = proximal_core(g, A_SET, B_SET, TOL)
    except (EvalError, GSpaceError):
        return  # the core raises: compared in test_random_gauges_match_the_reference
    for n_cap in (0.0, 1.0):
        _proximal_scans(g, MAP, A_SET, core, n_cap)
    assert_same(
        lambda: _searched(
            lambda vs: estimate_coefficient(g, MAP, TOL, sweep=vs),
            ALPHAS,
        ),
        lambda: _ref_searched(
            lambda: ref_estimate(g, MAP, TOL),
            lambda v: ref_banach(g, MAP, v, TOL),
            ALPHAS,
        ),
    )


# On LINE under T(x) = x/2 at level 0 the qualifying pairs are (t_2j, t_j),
# j = 0..8, and abs(g(u1, u2)) is exactly half of abs(g(x1, x2)): every beta
# from 1/2 up holds.  Quadruple rows are indexed by j of (x1, u1).
LEVEL_CORE = proximal_core(GFunction("abs(x1-u1)", 1), LINE, LINE, TOL)


def _quad(j1, j2):
    return {"x1": exact(GRID_POINTS[2 * j1]), "x2": exact(GRID_POINTS[2 * j2]),
            "u1": exact(GRID_POINTS[j1]), "u2": exact(GRID_POINTS[j2])}


def _proximal_planted(text):
    g = GFunction(text, 1)
    return _proximal_scans(g, HALF, LINE, LEVEL_CORE, 0.0)


def test_proximal_scans_hold_on_the_halving_instance():
    out = _proximal_planted("abs(x1-u1)")
    assert out["estimate"] == ("ok", exact(0.5))
    assert [out[b][1][0] for b in BETAS] == [FALSIFIED, HOLDS, HOLDS, HOLDS]
    g = GFunction("abs(x1-u1)", 1)
    rep = check_proximal_inequality(g, HALF, LINE, 0.5, 0.0, LEVEL_CORE, TOL)
    assert rep.holds and not rep.vacuous
    # rows that all come from the kernels answer the sweep in one pass
    _, reports = estimate_proximal_coefficient(
        g, HALF, LINE, 0.0, LEVEL_CORE, TOL, sweep=BETAS
    )
    assert [r.verdict for r in reports] == [FALSIFIED, HOLDS, HOLDS, HOLDS]


@pytest.mark.parametrize(
    "j1, j2", [(1, 0), (4, 5), (8, 7)], ids=["early", "middle", "late"]
)
def test_planted_proximal_violation_positions(j1, j2):
    # abs(g(u1, u2)) is 4 higher at the one pair (t_j1, t_j2): quadruple row
    # j1 breaks at column j2 for every beta from 1/2 up (1/4 breaks at once)
    out = _proximal_planted(
        f"abs(x1-u1) + 4*{_hat('x1', GRID[j1])}*{_hat('u1', GRID[j2])}"
    )
    want = [(FALSIFIED, _quad(0, 1))] + [(FALSIFIED, _quad(j1, j2))] * 3
    assert [out[beta][1][:2] for beta in BETAS] == want
    assert [rep[:2] for rep in out["search"][1][1]] == want


@pytest.mark.parametrize(
    "j1, first",
    [(1, "violation"), (7, "error")],
    ids=["violation-before-error", "violation-after-error"],
)
def test_planted_proximal_error_against_violation(j1, first):
    # abs(g(x1, x2)) divides by zero at (t_10, t_12): row 5, column 6, a pair
    # the qualifying scan never evaluates; the violation sits in row j1
    text = (f"abs(x1-u1) + 4*{_hat('x1', GRID[j1])}*{_hat('u1', GRID[j1 - 1])}"
            f" + 0/(abs(x1 - {GRID[10]!r}) + abs(u1 - {GRID[12]!r}))")
    out = _proximal_planted(text)
    for beta in BETAS[1:]:
        if first == "violation":
            assert out[beta][1][:2] == (FALSIFIED, _quad(j1, j1 - 1))
        else:
            assert out[beta][:3] == ("error", "EvalError", "division-by-zero")
    assert out["estimate"][:3] == ("error", "EvalError", "division-by-zero")
    assert out["search"][:3] == ("error", "EvalError", "division-by-zero")


def test_non_finite_proximal_term_raises_where_the_scalar_loop_does():
    # abs(g(x1, x2)) overflows at (t_10, t_14) only
    text = (f"abs(x1-u1) + 1e308*{_hat('x1', GRID[10])}*{_hat('u1', GRID[14])}*1e10")
    out = _proximal_planted(text)
    assert out[0.5][:3] == ("error", "EvalError", "non-finite")
    assert out["search"][:3] == ("error", "EvalError", "non-finite")


def test_infinite_proximal_estimate_and_the_sweep_past_it():
    # abs(g(t_10, t_12)) is 0: row 5 has a zero denominator under a positive
    # numerator, so the estimate is infinite, and every beta breaks there;
    # a division by zero in row 7, after it, is never reached
    text = (f"abs(x1-u1) - abs(x1-u1)*{_hat('x1', GRID[10])}*{_hat('u1', GRID[12])}"
            f" + 0/(abs(x1 - {GRID[14]!r}) + abs(u1 - {GRID[16]!r}))")
    out = _proximal_planted(text)
    assert out["estimate"] == ("ok", exact(math.inf))
    assert out["search"][1][0] == exact(math.inf)
    for beta in BETAS[1:]:
        assert out[beta][1][:2] == (FALSIFIED, _quad(5, 6))
    # with the estimate infinite and every beta falsified, the pass stops
    # before row 7
    g = GFunction(text, 1)
    _, reports = estimate_proximal_coefficient(
        g, HALF, LINE, 0.0, LEVEL_CORE, TOL, sweep=BETAS
    )
    assert not any(rep.holds for rep in reports)


def test_sweep_runs_rows_whose_sum_overflows_through_the_scalar_loop():
    # every value is finite, but each row's sum is not: the kernels give
    # every row up, and the same pass evaluates them tuple by tuple
    g = GFunction("abs(x1-u1)*1e308", 1)
    out = _proximal_scans(g, HALF, LINE, LEVEL_CORE, 0.0)
    assert out["estimate"] == ("ok", exact(0.5))
    assert [rep[0] for rep in out["search"][1][1]] == [FALSIFIED, HOLDS, HOLDS, HOLDS]
    out = assert_same(
        lambda: _searched(lambda vs: estimate_coefficient(g, HALF, TOL, sweep=vs), ALPHAS),
        lambda: _ref_searched(
            lambda: ref_estimate(g, HALF, TOL),
            lambda v: ref_banach(g, HALF, v, TOL),
            ALPHAS,
        ),
    )
    assert [rep[0] for rep in out[1][1]] == [FALSIFIED, HOLDS, HOLDS]


def test_vacuous_proximal_scans():
    # no point of LINE realises the level 4 against an image in [0, 1/2]
    far = proximal_core(GFunction("abs(x1-u1)", 1), LINE, exact_set([5.0], "B"), TOL)
    g = GFunction("abs(x1-u1)", 1)
    out = _proximal_scans(g, HALF, LINE, far, 1.0)
    assert out["estimate"] == ("ok", exact(0.0))
    rep = check_proximal_inequality(g, HALF, LINE, 0.5, 1.0, far, TOL)
    assert rep.holds and rep.vacuous
    _, reports = estimate_proximal_coefficient(g, HALF, LINE, 1.0, far, TOL, sweep=BETAS)
    assert all(rep.holds and rep.vacuous for rep in reports)


def test_sweep_checks_each_value_where_the_check_does():
    # the sweep keeps the check's value rules and their order
    g = GFunction("abs(x1-u1)", 1)
    with pytest.raises(GSpaceError, match=r"beta must lie in \(0, 1\], got 1.5"):
        estimate_proximal_coefficient(g, HALF, LINE, 0.0, LEVEL_CORE, TOL,
                                      sweep=[0.5, 1.5, -1.0])
    with pytest.raises(GSpaceError, match="N must be non-negative"):
        estimate_proximal_coefficient(g, HALF, LINE, -1.0, LEVEL_CORE, TOL, sweep=[0.5])
    with pytest.raises(GSpaceError, match=r"alpha must lie in \(0, 1\), got 1.0"):
        estimate_coefficient(g, HALF, TOL, sweep=[0.5, 1.0])


def test_sweep_raises_in_the_order_of_one_check_per_value():
    # g(x, y) is 0 at (t_2, t_3), where g(Tx, Ty) is 1/32, within eps_ineq:
    # the estimate is infinite there and no alpha breaks.  Alpha 1/4 breaks
    # in row 0; 1/2 runs on to row 10, where g(x, y) divides by zero at
    # (t_10, t_12); 1 is not an admissible alpha.  So the sweep must not
    # scan with 1, or it would raise that error in place of the check's
    text = (f"abs(x1-u1)*(1 - {_hat('x1', GRID[2])}*{_hat('u1', GRID[3])})"
            f" + 0/(abs(x1 - {GRID[10]!r}) + abs(u1 - {GRID[12]!r}))")
    g, tol = GFunction(text, 1), ToleranceSet(eps_zero=1e-9, eps_ineq=0.125)
    assert estimate_coefficient(g, HALF, tol) == math.inf
    assert check_banach_contraction(g, HALF, 0.25, tol).falsified
    with pytest.raises(EvalError, match="division"):
        check_banach_contraction(g, HALF, 0.5, tol)
    estimate, (rep,) = estimate_coefficient(g, HALF, tol, sweep=[0.25])
    assert estimate == math.inf and rep == check_banach_contraction(g, HALF, 0.25, tol)
    with pytest.raises(GSpaceError, match=r"got 1.0"):
        estimate_coefficient(g, HALF, tol, sweep=[0.25, 1.0])
    with pytest.raises(EvalError, match="division"):
        estimate_coefficient(g, HALF, tol, sweep=[0.25, 0.5, 1.0])


def test_sweep_keeps_the_eps_slack():
    # one pair is above its right side by 1/16, within eps_ineq = 1/8: it
    # holds, and breaks once the slack is gone
    bump = "(1/16)*" + _hat("x1", GRID[1]) + "*" + _hat("u1", GRID[3])
    g = GFunction("abs(x1-u1) + " + bump, 1)
    for tol, verdict in ((ToleranceSet(eps_ineq=0.125), HOLDS), (TOL, FALSIFIED)):
        out = assert_same(
            lambda: _searched(
                lambda vs: estimate_coefficient(g, HALF, tol, sweep=vs),
                [0.5],
            ),
            lambda: _ref_searched(
                lambda: ref_estimate(g, HALF, tol),
                lambda v: ref_banach(g, HALF, v, tol),
                [0.5],
            ),
        )
        assert out[1][1][0][0] == verdict
        # abs(g(u1, u2)) at (t_1, t_3), in quadruple row 1, column 3
        out = _proximal_scans(g, HALF, LINE, LEVEL_CORE, 0.0, tol, betas=[0.5])
        assert out[0.5][1][0] == verdict == out["search"][1][1][0][0]


def test_holding_proximal_scans_do_not_go_through_eval_g(monkeypatch):
    # abs(g(u1, u2)) is 1/32 higher at (t_1, t_0), above beta * abs(g(x1,
    # x2)) = 1/16 but not above the right side with N * abs(g(x2, u1)) = 1/16
    calls = []

    def counting(g, x, y):
        calls.append(1)
        return eval_g(g, x, y)

    g = GFunction(f"abs(x1-u1) + (1/32)*{_hat('x1', GRID[1])}*{_hat('u1', GRID[0])}", 1)
    monkeypatch.setattr(gspace_module, "eval_g", counting)
    monkeypatch.setattr(properties_module, "eval_g", counting)
    assert check_proximal_inequality(g, HALF, LINE, 0.5, 1.0, LEVEL_CORE, TOL).holds
    estimate, reports = estimate_proximal_coefficient(
        g, HALF, LINE, 1.0, LEVEL_CORE, TOL, sweep=[0.5, 0.75]
    )
    assert all(rep.holds for rep in reports)
    assert calls == []


# --------------------------------------------------------------------------
# proximity questions read from the core: an image that is a sample point of
# B takes its mates from ProximalCore.mates, any other image scans A

SEG_A = exact_set([(0.0, t) for t in GRID], "A")
SEG_B = exact_set([(1.0, t) for t in GRID], "B")
L1 = GFunction("abs(x1-u1) + abs(x2-u2)", 2)
# a band of 1/32 holds one grid neighbour of each image t/2 + 1/64
WIDE = ToleranceSet(eps_prox=1 / 32, eps_zero=1e-9, eps_ineq=1e-9)
SEG_MAPS = {  # a map's coordinates, and how many of its 17 images lie in B
    "all-in-b": (["1", "1 - x2"], 17),
    "none-in-b": (["1", "x2/2 + 1/64"], 0),
    "mixed": (["1", "x2/2"], 9),
    "off-the-segment": (["2", "x2"], 0),
}
# A_SET + (1, 0) is B_SET without its last point; PART_B hits it twice
INTO_B = MapSpec(["x1 + 1", "x2"], A_SET, B_SET)
PART_B = MapSpec(["x1 + 1", "x1*x2"], A_SET, B_SET)


def ref_prepass(g, f, a, core, tol):
    """proximal_iterate's image test as a proximal_select per realising point."""
    for x in core.a_g.points:
        try:
            ref_select(g, a, f.apply(x), core.d_g, tol)
        except NoProximalMate:
            raise NoProximalMate(
                f"image of realising point {x} has no proximity mate; "
                f"the map does not send the realising set into its partner"
            ) from None


def _prepass(g, f, a, b, core, tol=TOL):
    """proximal_iterate's image pre-pass alone: a run of no steps."""
    proximal_iterate(g, f, a, b, core, core.a_g.points[0], tol, max_iter=0)


@pytest.mark.parametrize("tol", [TOL, WIDE], ids=["narrow", "wide"])
@pytest.mark.parametrize("case", sorted(SEG_MAPS))
def test_qualifying_pairs_with_images_in_and_off_b(case, tol):
    exprs, in_b = SEG_MAPS[case]
    f = MapSpec(exprs, SEG_A, SEG_B)
    assert sum(f.apply(x).coords in SEG_B.coords for x in SEG_A) == in_b
    core = proximal_core(L1, SEG_A, SEG_B, tol)
    got = assert_same(lambda: qualifying_pairs(L1, f, SEG_A, core, tol),
                      lambda: ref_pairs(L1, f, SEG_A, core.d_g, tol))
    assert got[1] or case == "off-the-segment" or (case, tol) == ("none-in-b", TOL)


@pytest.mark.parametrize("seed", range(30))
def test_random_gauges_qualifying_pairs_and_prepass_match_the_reference(seed):
    g, _ = _random_case(seed)
    try:
        core = proximal_core(g, A_SET, B_SET, TOL)
    except (EvalError, GSpaceError):
        return  # the core raises: compared in test_random_gauges_match_the_reference
    for f in (INTO_B, PART_B, MAP):
        assert_same(lambda: qualifying_pairs(g, f, A_SET, core, TOL),
                    lambda: ref_pairs(g, f, A_SET, core.d_g, TOL))
        assert_same(lambda: _prepass(g, f, A_SET, B_SET, core),
                    lambda: ref_prepass(g, f, A_SET, core, TOL))


def test_a_core_of_another_gauge_set_or_band_falls_back_to_the_scan():
    # LEVEL_CORE is abs(x1-u1) on LINE x LINE at eps 1e-9: read from it, every
    # image t/2 on the grid would have the one mate t/2
    metric = GFunction("abs(x1-u1)", 1)
    own = ref_pairs(metric, HALF, LINE, LEVEL_CORE.d_g, TOL)
    assert outcome(lambda: qualifying_pairs(metric, HALF, LINE, LEVEL_CORE, TOL)) == (
        "ok", exact(own))
    evens = exact_set(GRID[::2], "E")
    cases = [  # (g, f, a, tol, whether the answer differs from the core's)
        (GFunction("abs(2*x1 - u1)", 1), HALF, LINE, TOL, True),
        (metric, MapSpec(["x1/2"], evens, evens), evens, TOL, True),
        (metric, HALF, exact_set(GRID, "L"), TOL, False),  # a copy of LINE
        (metric, HALF, LINE, ToleranceSet(eps_prox=0.07), True),
    ]
    for g, f, a, tol, differs in cases:
        want = assert_same(lambda: qualifying_pairs(g, f, a, LEVEL_CORE, tol),
                           lambda: ref_pairs(g, f, a, LEVEL_CORE.d_g, tol))
        assert (want != ("ok", exact(own))) == differs


def test_images_in_b_read_no_kernel_row(monkeypatch):
    real, rows = properties_module._gauge_row, []

    def spy(g, xs, ys):
        rows.append(ys)
        return real(g, xs, ys)

    monkeypatch.setattr(properties_module, "_gauge_row", spy)
    monkeypatch.setattr(solvers_module, "_gauge_row", spy)
    f = MapSpec(SEG_MAPS["mixed"][0], SEG_A, SEG_B)
    core = proximal_core(L1, SEG_A, SEG_B, WIDE)
    qualifying_pairs(L1, f, SEG_A, core, WIDE)
    _prepass(L1, f, SEG_A, SEG_B, core, WIDE)
    images = [y for y in rows if isinstance(y, Point)]
    assert len(images) == 2 * 8  # the odd grid points' images, off B, twice
    assert not any(y.coords in SEG_B.coords for y in images)


def test_mates_answers_for_points_of_b_under_the_cores_own_terms():
    core = proximal_core(L1, SEG_A, SEG_B, TOL)
    y = SEG_B.points[3]
    assert core.mates(L1, SEG_A, y, TOL.eps_prox) == (SEG_A.points[3],)
    assert core.mates(L1, SEG_A, Point((1.0, 1 / 32)), TOL.eps_prox) is None
    assert core.mates(L1, SEG_A, Point((2.0, 0.0)), TOL.eps_prox) is None
    assert core.mates(GFunction(str(L1.expr), 2), SEG_A, y, TOL.eps_prox) is None
    assert core.mates(L1, exact_set(SEG_A.coords, "A"), y, TOL.eps_prox) is None
    assert core.mates(L1, SEG_A, y, WIDE.eps_prox) is None
    # the gauge and the samples stay out of equality and repr
    bare = ProximalCore(core.d_g, core.a_g, core.b_g, core.partners, core.eps)
    assert core == bare and repr(core) == repr(bare)
    assert bare.mates(L1, SEG_A, y, TOL.eps_prox) is None


def test_a_realising_image_in_b_outside_b_g_has_no_mate():
    # abs(x1-u1) on LINE x {1/2, 2}: the level 0 is realised at 1/2 alone,
    # and the image 2 of 1/2 is a point of B that no point of A realises
    g = GFunction("abs(x1-u1)", 1)
    b = exact_set([0.5, 2.0], "B")
    core = proximal_core(g, LINE, b, TOL)
    assert core.b_g.points == (Point((0.5,)),)
    for text, in_b in (("2", True), ("3", False), ("x1", True)):
        f = MapSpec([text], LINE, b)
        assert (f.apply(core.a_g.points[0]).coords in b.coords) == in_b
        got = assert_same(lambda: _prepass(g, f, LINE, b, core),
                          lambda: ref_prepass(g, f, LINE, core, TOL))
        if text == "x1":
            assert got == ("ok", None)
        else:
            assert got == ("error", "NoProximalMate",
                           "image of realising point (0.5) has no proximity mate; "
                           "the map does not send the realising set into its partner")


def test_an_image_off_b_whose_row_divides_by_zero_raises_the_scan_error():
    # the level 7/3 is realised at (1, 3) alone; the image 1/4 of 1 is off
    # B, and g(u, 1/4) divides u by zero at u = 3/4
    g = GFunction("abs(x1-u1) + x1/(x1 + u1 - 1)", 1)
    b = exact_set([3.0, 4.0], "B")
    core = proximal_core(g, LINE, b, TOL)
    assert core.a_g.points == (Point((1.0,)),)
    f = MapSpec(["0.25"], LINE, b)
    got = assert_same(lambda: _prepass(g, f, LINE, b, core),
                      lambda: ref_prepass(g, f, LINE, core, TOL))
    assert got[:3] == ("error", "EvalError", "division-by-zero")
    assert got[3] == "division-by-zero: 0.75 / 0"
