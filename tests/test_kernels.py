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
from itertools import count, cycle, repeat

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
    evaluate,
    parse,
)
from gproxim.fixtures import fixture_config_path
from gproxim.gspace import (
    ConvexStructure,
    GFunction,
    GSpaceError,
    NoProximalMate,
    Point,
    SampleSet,
    ToleranceSet,
    check_convex_structure,
    check_side_condition,
    check_starshaped,
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
import gproxim.expr as expr_module
import gproxim.gspace as gspace_module
import gproxim.properties as properties_module

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
    """d_g, a_g, b_g and partners from the full matrix of abs(g)."""
    values = [[abs(eval_g(g, x, y)) for y in b.points] for x in a.points]
    d_g = min(min(row) for row in values)
    a_pts, b_hit, partners = [], set(), []
    for x, row in zip(a.points, values):
        mates = [j for j, v in enumerate(row) if abs(v - d_g) <= tol.eps_prox]
        b_hit.update(mates)
        if mates:
            a_pts.append(x)
            partners.append(tuple(b.points[j] for j in mates))
    b_pts = [y for j, y in enumerate(b.points) if j in b_hit]
    return d_g, a_pts, b_pts, partners


def ref_pairs(g, f, a, level, tol):
    images = [(x, f.apply(x)) for x in a.points]
    return [
        (x, u)
        for x, fx in images
        for u in a.points
        if abs(abs(eval_g(g, u, fx)) - level) <= tol.eps_prox
    ]


def ref_convex(h, g, pts, lams, tol, lams_two=None, pts_two=None):
    """Both conditions over pts; condition two over lams_two and pts_two
    when given."""
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
    pts_two = pts if pts_two is None else pts_two
    for x in pts_two:
        for y in pts_two:
            for x0 in pts_two:
                gxx0 = abs(eval_g(g, x, x0))
                for y0 in pts_two:
                    gyy0 = abs(eval_g(g, y, y0))
                    for lam in lams if lams_two is None else lams_two:
                        lhs = abs(eval_g(g, h.apply(x, y, lam), h.apply(x0, y0, lam)))
                        rhs = lam * gxx0 + (1.0 - lam) * gyy0
                        if lhs > rhs + eps:
                            wit = {"x": x, "y": y, "x0": x0, "y0": y0, "lam": lam}
                            return FALSIFIED, wit, lhs, rhs
    return HOLDS, None, None, None


def ref_starshaped(h, a, r, lams, tol):
    band = max(1e-9, tol.eps_prox)
    if not a.contains(r, band):
        raise GSpaceError(f"centre {r} is not a member of {a.name or 'the set'}")
    for x in a.points:
        for lam in lams:
            image = h.apply(r, x, lam)
            if not a.contains(image, band):
                return FALSIFIED, {"x": x, "lam": lam, "image": image}, None, None
    return HOLDS, None, None, None


def ref_mates(g, a, y, d_g, tol):
    return [u for u in a.points if abs(abs(eval_g(g, u, y)) - d_g) <= tol.eps_prox]


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


# the bare error the fast text raises where the checked helper raises the kind
BARE_KINDS = {ValueError: "sqrt-of-negative", ZeroDivisionError: "division-by-zero",
              OverflowError: "non-finite"}


def bare_kind(exc):
    return exc.kind if isinstance(exc, EvalError) else BARE_KINDS[type(exc)]


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
        result = (result.d_g, result.a_g.points, result.b_g.points, result.partners)
    return "ok", exact(result)


def assert_same(kernel, reference):
    got, want = outcome(kernel), outcome(reference)
    assert got == want
    return want


def exact_set(coords, name):
    return SampleSet.from_points(coords, name=name)


# --------------------------------------------------------------------------
# the kernels themselves


def test_kernels_compile_lazily(monkeypatch):
    compiled, real = [], expr_module._compile
    monkeypatch.setattr(expr_module, "_compile",
                        lambda src: compiled.append(src.split("(")[0]) or real(src))
    g = GFunction("abs(x1-u1)", 1)
    assert "kernels" not in vars(g)
    inst = load_instance(fixture_config_path("halving-on-unit"))
    assert all("kernels" not in vars(gauge) for gauge in inst.gauges.values())
    s = exact_set([0.0, 1.0], "S")
    falsify_axiom("identity", g, s, TOL)
    assert "kernels" in vars(g)
    # a first scan compiles the values loop alone; a convex check adds its
    # two first-hit loops, and a second check compiles nothing more
    assert compiled == ["def values"]
    h = ConvexStructure(("l*x1 + (1-l)*u1",))
    for _ in range(2):
        assert check_convex_structure(h, g, s, LAMS, TOL).holds
    assert compiled == ["def values", "def rows", "def first_convex", "def first_convex_pairs"]


@pytest.mark.parametrize("seed", range(40))
def test_row_kernels_match_the_scalar_callable(seed):
    # both against the tree interpreter, which shares no code with _gen
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
            want = evaluate(e, dict(zip(names, p + q)))
        except EvalError as exc:
            # the scalar callable raises the typed error itself; values
            # raises the bare error of its kind, and marked marks the tuple
            with pytest.raises(EvalError) as scalar:
                fn(*p, *q)
            assert (scalar.value.kind, str(scalar.value)) == (exc.kind, str(exc))
            with pytest.raises((ArithmeticError, ValueError)) as info:
                kernels.values([p], [q])
            assert bare_kind(info.value) == exc.kind
            if isinstance(info.value, EvalError):
                assert str(info.value) == str(exc)
            assert math.isnan(kernels.marked([p], [q])[0])
            continue
        assert fn(*p, *q).hex() == want.hex()
        got = kernels.values([p], [q])[0]
        assert got.hex() == abs(want).hex()
        bound = 1.0
        hit = kernels.first_convex_pairs([p], [q], cycle([0.0]), [bound], 0.0)
        assert hit == (-1 if abs(want) <= bound else 0)


@pytest.mark.parametrize("seed", range(20))
def test_band_lists_the_marked_rows_hits_before_its_first_mark(seed):
    # against marked, which the scans that read whole rows go through: the
    # indices within eps of the level before the first mark, and its index
    rng = random.Random(seed)
    e = random_expr(rng, 4)
    kernels = compile_row_kernels(e, ("x1", "x2"), ("u1", "u2", "l"))
    grid = [-2.5, -1.0, 0.0, 0.5, 2.0]
    P = [(a, b) for a in grid for b in grid]
    Q = [(c, d, lam) for c in grid for d in grid[1:3] for lam in (0.0, 0.25, 1.0)][:len(P)]
    for rows in ((repeat(P[3]), Q), (P, repeat(Q[7]))):
        marked = kernels.marked(*rows)
        finite = sorted(v for v in marked if v == v)
        level = finite[len(finite) // 2] if finite else 0.0
        for eps in (0.0, 0.5):
            bad = next((k for k, v in enumerate(marked) if v != v), -1)
            hits = [k for k, v in enumerate(marked[:bad] if bad >= 0 else marked)
                    if abs(v - level) <= eps]
            again = [r if isinstance(r, list) else repeat(next(r)) for r in rows]
            assert kernels.band(*again, level, eps) == (hits, bad)


def test_first_violation_stops_at_nan_and_inf():
    kernels = compile_row_kernels(parse("x1*u1"), ("x1",), ("u1",))
    P, LA, R = [(1.0,)] * 3, [0.0], [1.0] * 3
    assert kernels.first_convex_pairs(P, [(0.5,), (math.nan,), (0.5,)], cycle(LA), R, 0.0) == 1
    assert kernels.first_convex_pairs(P, [(0.5,), (0.5,), (math.inf,)], cycle(LA), R, 0.0) == 2
    assert kernels.first_convex_pairs(P, [(0.5,)] * 3, cycle(LA), R, 0.0) == -1


# first_convex_pairs numbers only the failing tuple, from what is left of MB;
# an enumerated loop over the scalar values, a raising tuple marked, must
# find the same index.  The first gauge's kernel takes the outer abs, the
# second's leaves it out.  Each divides by zero where a second coordinate
# is 7, which the raise rows plant before or after the violation.
RAISE = " + 0/abs((x2 - 7)*(u2 - 7))"
INDEX_GAUGES = ["x1 - u1 + x2*u2" + RAISE, "abs(x1 - u1) + x2^2" + RAISE]


def _enumerated_first(values, LA, MB, eps):
    for k, (v, mb) in enumerate(zip(values, MB)):
        if not v <= LA[k % len(LA)] + mb + eps:
            return k
    return -1


@pytest.mark.parametrize("seq", [list, tuple])
@pytest.mark.parametrize("hit", ["first", "last", "nan", "none", "raise-before", "raise-after"])
@pytest.mark.parametrize("width", [1, 11])
@pytest.mark.parametrize("bound", ["P", "Q", None], ids=["P-bound", "Q-bound", "unpacked"])
@pytest.mark.parametrize("text", INDEX_GAUGES, ids=["outer-abs", "no-outer-abs"])
def test_first_violation_index_matches_an_enumerated_loop(text, bound, width, hit, seq):
    e = parse(text)
    kernels = compile_row_kernels(e, ("x1", "x2"), ("u1", "u2"))
    rng = random.Random(f"{text}{bound}{width}{hit}")
    n = 3 * width
    P = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
    Q = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
    if bound == "P":
        P = [P[0]] * n
    elif bound == "Q":
        Q = [Q[0]] * n
    at = {"first": 0, "last": n - 1, "nan": n // 2, "none": -1,
          "raise-before": n - 1, "raise-after": 1}[hit]
    side = P if bound == "Q" else Q  # the side that is unpacked per tuple
    if hit == "nan":
        side[at] = (math.nan, side[at][1])
    raise_at = {"raise-before": 1, "raise-after": n - 1}.get(hit)
    if raise_at is not None:
        side[raise_at] = (side[raise_at][0], 7.0)

    def value(p, q):
        try:
            return abs(evaluate(e, dict(zip(("x1", "x2", "u1", "u2"), p + q))))
        except EvalError:
            return math.nan

    values = [value(p, q) for p, q in zip(P, Q)]
    LA = [rng.uniform(0, 1) for _ in range(width)]
    # every tuple holds by 1, but the one a hit at a finite value plants
    MB = [v - LA[k % width] + (-1.0 if k == at else 1.0)
          for k, v in enumerate(values)]
    MB = [mb if math.isfinite(mb) else 0.0 for mb in MB]
    rows = [repeat(P[0]) if bound == "P" else P, repeat(Q[0]) if bound == "Q" else Q]
    got = kernels.first_convex_pairs(*rows, cycle(seq(LA)), seq(MB), 1e-9)
    assert got == _enumerated_first(values, LA, MB, 1e-9) == min(at, raise_at or at)


# The contraction loops run the text of every term in one function, so the
# temporaries of this gauge's min and max must take a fresh name in each.
# Each loop gives the index that its marked rows give: a NaN or infinite
# term fails a tuple, a sum of finite terms that overflows (N = 1e308) does
# not, and a loop raises only at that index, at a tuple where the gauge
# raises.  Rows of 2 and 3 hold with lhs equal to its term g(x, X[k]); a
# planted 0.5 raises, 1e200 is infinite, NaN is NaN, and 4 in the lhs row
# breaks it.
CONTRACTION_GAUGE = "max(x1, u1)*min(u1, 1e308)/(u1 - 0.5) + max(x1 - u1, min(x1, u1))"


@pytest.mark.parametrize("seed", range(24))
def test_contraction_loops_give_the_index_of_their_marked_rows(seed, monkeypatch):
    kernels = compile_row_kernels(parse(CONTRACTION_GAUGE), ("x1",), ("u1",))
    texts, real = [], expr_module._compile
    monkeypatch.setattr(expr_module, "_compile", lambda src: texts.append(src) or real(src))
    rng = random.Random(seed)
    p = x = (1.0,)
    Q = [(rng.choice((2.0, 3.0)),) for _ in range(12)]
    X = list(Q)
    for _ in range(rng.randint(0, 2)):
        rng.choice((Q, X))[rng.randrange(12)] = (rng.choice((0.5, 1e200, math.nan, 4.0)),)
    n, eps = rng.choice((0.0, 0.25, 1e308)), rng.choice((0.0, 1e-9))
    m = kernels.marked
    cases = [
        (kernels.first_banach, (p, Q, x, X, 1.0, eps),
         [(lhs, 1.0 * a + eps) for lhs, a in zip(m(repeat(p), Q), m(repeat(x), X))]),
        (kernels.first_proximal, (p, Q, x, X, 1.0, n, eps),
         [(lhs, 1.0 * a + n * b + eps)
          for lhs, a, b in zip(m(repeat(p), Q), m(repeat(x), X), m(X, repeat(p)))]),
    ]
    for loop, args, sides in cases:
        want = next((k for k, (lhs, rhs) in enumerate(sides) if not lhs <= rhs), -1)
        assert loop(*args) == want
    for text in texts:
        temps = re.findall(r"\((_t\d+) :=", text)
        assert temps and len(temps) == len(set(temps))
    assert [t.split("(")[0] for t in texts] == ["def first_banach", "def first_proximal"]


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
        assert_same(lambda: qualifying_pairs(MAP, level),
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
            lambda: qualifying_pairs(HALF, level),
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
        assert_same(lambda: proximal_select(core, target),
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
    assert_same(lambda: check_side_condition(core, r, s, TOL),
                lambda: ref_side_condition(g, core, r, s, TOL))


def test_select_breaks_exact_ties_by_coordinates():
    # 1 and -1 both realise the level 1 against 0; -1 comes second in A
    g = GFunction("abs(x1-u1)", 1)
    a, b = exact_set([1.0, -1.0, 5.0], "A"), exact_set([0.0, 6.0], "B")
    core = proximal_core(g, a, b, TOL)
    assert proximal_select(core, Point((0.0,))) == Point((-1.0,))
    _select_cases(g, a, b)


def test_select_with_an_empty_band_keeps_its_message():
    g = GFunction("abs(x1-u1)", 1)
    core = proximal_core(g, LINE, LINE, TOL)
    want = assert_same(lambda: proximal_select(core, Point((3.0,))),
                       lambda: ref_select(g, LINE, Point((3.0,)), core.d_g, TOL))
    assert want[:2] == ("error", "NoProximalMate")
    # a residual of exactly eps_prox is in the band
    wide = ToleranceSet(eps_prox=0.5)
    a = exact_set([0.0, 0.5], "A")
    core = proximal_core(g, a, exact_set([0.0], "B"), wide)
    assert proximal_select(core, Point((1.0,))) == Point((0.5,))


@pytest.mark.parametrize("text, kind", [
    # 0/(x1 - u1 - 1/2) divides by zero against 0 at the middle of A, after
    # the mate 0, and never against the point 1 of B
    ("abs(x1-u1) + 0/(x1 - u1 - 0.5)", "division-by-zero"),
    # non-finite against 0 from x1 = 3/4 on, and never against 1
    ("abs(x1-u1) + 1e308*max(x1 - u1 - 0.7, 0)*1e10", "non-finite"),
])
def test_select_raises_where_the_scalar_loop_does(text, kind):
    g = GFunction(text, 1)
    core = proximal_core(g, LINE, exact_set([1.0], "B"), TOL)
    want = assert_same(lambda: proximal_select(core, Point((0.0,))),
                       lambda: ref_select(g, LINE, Point((0.0,)), core.d_g, TOL))
    assert want[:3] == ("error", "EvalError", kind)
    wrong = Point((0.0, 0.0))
    want = assert_same(lambda: proximal_select(core, wrong),
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
    return assert_same(lambda: check_side_condition(core, r, s, TOL),
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
    got = assert_same(lambda: check_side_condition(core, r, s, tol),
                      lambda: ref_side_condition(g, core, r, s, tol))
    assert got[1][1]["x"] == exact(Point((1.0, 0.75)))


def test_a_row_wholly_in_band_shares_the_points_of_b():
    # g ignores its second point: only x = 1 realises the level, with all of B
    g = GFunction("abs(x1 - 2)", 1)
    b = exact_set([0.0, 1.0], "B")
    core = proximal_core(g, LINE, b, TOL)
    assert core.partners == (b.points,) and core.partners[0] is b.points


# --------------------------------------------------------------------------
# the fast text: bare operations, marked rows and the typed error of eval_g


@pytest.mark.parametrize("text, row, kind, bare", [
    ("sqrt(x1 - u1)", [1.0, 0.5, -0.5, 2.0], "sqrt-of-negative", ValueError),
    ("1/(x1 - u1)", [1.0, 0.5, 0.0, 2.0], "division-by-zero", ZeroDivisionError),
    ("x1^2 + u1", [1.0, 1e100, 1e200, 2.0], "non-finite", OverflowError),
])
def test_fast_text_raises_where_the_checked_text_does(text, row, kind, bare):
    # the checked reference is the tree interpreter
    e = parse(text)
    fn = compile_expr(e, ("x1", "u1"))
    kernels = compile_row_kernels(e, ("x1",), ("u1",))
    P, Q = [(v,) for v in row], [(0.0,)] * len(row)
    typed = []
    for p, q in zip(P, Q):
        try:
            want = evaluate(e, {"x1": p[0], "u1": q[0]})
        except EvalError as exc:
            typed.append((exc.kind, str(exc)))
            with pytest.raises(EvalError) as scalar:
                fn(*p, *q)
            assert (scalar.value.kind, str(scalar.value)) == typed[-1]
        else:
            assert fn(*p, *q).hex() == want.hex()
    assert [k for k, _ in typed] == [kind]
    # values raises the bare error; marked marks the raising tuple alone
    with pytest.raises(bare):
        kernels.values(P, Q)
    assert [math.isnan(v) for v in kernels.marked(P, Q)] == [False, False, True, False]
    # a scan's row raises evaluate's typed error through eval_g
    g = GFunction(text, 1)
    with pytest.raises(EvalError) as info:
        gspace_module._gauge_row(g, [Point(p) for p in P], Point((0.0,)))
    assert (info.value.kind, str(info.value)) == typed[0]
    # a first-hit loop runs the text alone and stops at the tuple it raises at
    assert kernels.first_convex_pairs(P[:2], Q[:2], cycle([0.0]), [1e300] * 2, 0.0) == -1
    assert kernels.first_convex_pairs(P, Q, cycle([0.0]), [1e300] * len(P), 0.0) == 2
    assert math.isnan(kernels.marked(P, Q)[2])


def test_a_non_integral_literal_exponent_keeps_the_checked_power():
    # (-1) ** 0.5 is a complex number in Python, whose abs is 1.0
    kernels = compile_row_kernels(parse("x1^0.5"), ("x1",), ("u1",))
    P = [(4.0,), (-1.0,)]
    with pytest.raises(EvalError) as info:
        kernels.values(P, [(0.0,)] * 2)
    assert info.value.kind == "fractional-power-of-negative"
    assert kernels.first_convex_pairs(P, [(0.0,)] * 2, cycle([0.0]), [10.0] * 2, 0.0) == 1
    assert kernels.values(P[:1], [(0.0,)]) == [2.0]


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


def _fused(g, lams=LAMS, h=AVERAGE_H, s=FUSED_SET, tol=TOL):
    return assert_same(
        lambda: check_convex_structure(h, g, s, lams, tol, NO_SUBSAMPLING),
        lambda: ref_convex(h, g, list(s.points), lams, tol),
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


def _loop_columns(g, monkeypatch, outer):
    """Spies on g's convex first-hit loops: one (condition, lambda columns
    read) per call, each call's row of terms holding outer values of b."""
    calls = []
    # RowKernels is frozen: the cached loops sit in the instance's dict
    for name in ("first_convex", "first_convex_pairs", "lean_convex", "lean_convex_pairs"):
        def spy(*args, name=name, real=getattr(g.kernels, name)):
            calls.append((2 if name.endswith("pairs") else 1, len(args[-2]) // outer))
            return real(*args)

        monkeypatch.setitem(vars(g.kernels), name, spy)
    return calls


@pytest.mark.parametrize("gauge, lams, verdict", [
    ("0*(x1-u1)", LAMS, HOLDS),
    ("abs(x1-u1)", LAMS, FALSIFIED),
    ("abs(x1-u1)", [0.0, 1.0], FALSIFIED),
], ids=["holds", "violated-inside", "violated-at-an-end"])
def test_ends_that_fail_for_some_pairs_send_every_column_to_the_loops(
    gauge, lams, verdict, monkeypatch
):
    # H(x, y, 1) = 2x - 1/2 is not x where x > 1/2, so neither condition's
    # ends hold and every row of both reads the whole lambda axis, the rows
    # of x <= 1/2 too.  Under abs(x1-u1) condition one breaks at x = 5/8:
    # first at lambda 1/2, or, where the axis is the ends alone, at 1.
    h = ConvexStructure(("l*x1 + (1-l)*u1 + l*max(x1 - 0.5, 0)",))
    g = GFunction(gauge, 1)
    calls = _loop_columns(g, monkeypatch, len(FUSED_SET))
    got = _fused(g, lams=lams, h=h)
    assert got[1][0] == verdict
    assert {condition for condition, _ in calls} == ({1, 2} if verdict == HOLDS else {1})
    assert all(columns == len(lams) for _, columns in calls)
    if verdict == FALSIFIED:
        assert got[1][1]["x"] == exact(Point((0.625,)))
        assert got[1][1]["lam"] == exact(lams[1])


def test_a_mark_only_condition_two_reads_sends_it_every_column(monkeypatch):
    # Under 256 tuples condition one reads the points 0, 1, 3 and 4 and the
    # lambdas 0, 1/4, 3/4 and 1, condition two the points 0, 2.7 and 4 and
    # the lambdas 0, 1/2 and 1.  g divides by zero at g(2.7, 2.7), which
    # only condition two reads, in its endpoint gauge g(y, y0): condition
    # one's ends hold and it reads its inner lambdas, condition two's do
    # not and it reads all three, up to the marked tuple.
    s = exact_set([0.0, 1.0, 2.7, 3.0, 4.0], "S")
    g = GFunction("abs(x1-u1) + 0/(abs(x1 - 2.7) + abs(u1 - 2.7))", 1)
    lams = [0.0, 0.25, 0.5, 0.75, 1.0]
    pts = list(s.points)
    monkeypatch.setattr(gspace_module, "MAX_TUPLES", 256)
    calls = _loop_columns(g, monkeypatch, 1)
    got = assert_same(
        lambda: check_convex_structure(AVERAGE_H, g, s, lams, TOL),
        lambda: ref_convex(AVERAGE_H, g, [pts[i] for i in (0, 1, 3, 4)], [0.0, 0.25, 0.75, 1.0],
                           TOL, [0.0, 0.5, 1.0], [pts[i] for i in (0, 2, 4)]),
    )
    assert got[:3] == ("error", "EvalError", "division-by-zero")
    assert {columns for condition, columns in calls if condition == 1} == {4 * 2}
    assert {columns for condition, columns in calls if condition == 2} == {3 * 3}


@pytest.mark.parametrize("at, condition", [
    ("abs(x1 - 0.125) + abs(u1) + abs(l - 0.2)", "one"),
    ("abs(x1) + abs(u1) + abs(l - 0.5)", "two"),
], ids=["condition-one", "condition-two-p-row"])
def test_fused_convex_h_raising_at_an_inner_lambda_of_proven_ends(at, condition, monkeypatch):
    # Under 48 tuples condition one reads the lambdas 0, .2, .4, .6, .8, 1
    # and condition two 0, .5, 1, over both points of S.  H gives its ends
    # everywhere, so both conditions read their inner lambdas alone, and it
    # divides by zero at one inner lambda: in condition one's row for x =
    # 1/8 at (y, l) = (0, .2), or in condition two's p row for x = y = 0 at
    # l = .5, which condition one never reads.  The row is cut where the
    # whole row would be, and the check raises at the same tuple.
    s = exact_set([0.0, 0.125], "S")
    h = ConvexStructure((f"l*x1 + (1-l)*u1 + 0/({at})",))
    g = GFunction("0*(x1-u1)", 1)  # every comparison holds, unless marked
    lams = [i / 10 for i in range(11)]
    pts = list(s.points)
    monkeypatch.setattr(gspace_module, "MAX_TUPLES", 48)
    calls = _loop_columns(g, monkeypatch, len(s))
    got = assert_same(
        lambda: check_convex_structure(h, g, s, lams, TOL),
        lambda: ref_convex(h, g, pts, lams[::2], TOL, [0.0, 0.5, 1.0]),
    )
    assert got[:3] == ("error", "EvalError", "division-by-zero")
    assert {c for c, _ in calls} == ({1} if condition == "one" else {1, 2})
    assert all(columns == (4 if c == 1 else 1) for c, columns in calls)


# In the last row eps_ineq = 1.795e308, and H(0, 1, 1/2) = 25.5 makes the
# left side g(0, 25.5) infinite where its right side plus eps_ineq
# overflows too: the tuple fails, as a marked row fails it, where a loop
# that passed inf <= inf would read on and raise at g(1, 26).
OVERFLOWING = dict(
    h=ConvexStructure(("l*x1 + (1-l)*u1 + 100*l*(1-l)*u1",)),
    s=exact_set([0.0, 0.5, 1.0], "A"),
    tol=ToleranceSet(eps_prox=1e-9, eps_zero=1e-9, eps_ineq=1.795e308),
)


@pytest.mark.parametrize("g, planted, verdict", [
    ("9e307 + 0*x1", {}, HOLDS),
    (f"9e307 + 0*x1 + 5e306*{_hat('u1', 1 / 16)}", {}, FALSIFIED),
    (f"9e307 + 0*x1 + 1e308*{_hat('u1', 1 / 16)}", {}, "non-finite"),
    ("abs(x1-u1)*1e307", OVERFLOWING, "non-finite: g((0.0), (25.5)) = inf"),
], ids=["holds", "violated", "left-side-infinite", "left-side-infinite-eps-overflowing"])
def test_fused_convex_right_sides_overflowing(g, planted, verdict):
    # Under a lambda in [0, 1] no right side lam*|g| + (1-lam)*|g| of a
    # finite |g| = 9e307 overflows, but their magnitudes sum past the largest
    # double.  Every left side stays at most 9.5e307, except where the third
    # plant puts an infinite one: at H(0, 1/8, 1/2) = 1/16.
    got = _fused(GFunction(g, 1), **planted)
    assert verdict in ((got[1][0],) if got[0] == "ok" else got[2:])


@pytest.mark.parametrize("plant, verdict", [
    ("", HOLDS),
    (f" + 5e306*{_hat('u1', 1 / 16)}", FALSIFIED),
], ids=["holds", "violated"])
def test_right_sides_near_the_largest_double_take_the_fused_loop(
    plant, verdict, monkeypatch
):
    # the endpoint gauges a and b, 9e307 each, sum past the largest double,
    # but no one right side lam * a + (1 - lam) * b does, so no row is
    # proven finite and every row of both conditions runs through the
    # guarded first-hit loop, never the lean one.  H gives the endpoints at
    # lambda 0 and 1, so the loops read the inner lambda 1/2 alone, where
    # each term is 4.5e307.
    g = GFunction("9e307 + 0*x1" + plant, 1)
    calls = []
    # RowKernels is frozen: the cached loops sit in the instance's dict
    for name in ("first_convex", "first_convex_pairs", "lean_convex", "lean_convex_pairs"):
        def spy(*args, name=name, real=getattr(g.kernels, name)):
            calls.append((name, args[-2]))
            return real(*args)

        monkeypatch.setitem(vars(g.kernels), name, spy)
    got = _fused(g, lams=[0.0, 0.5, 1.0])
    assert got[1][0] == verdict
    assert calls and all(max(mb) == 9e307 / 2 for _, mb in calls)
    assert {name for name, _ in calls} == (
        {"first_convex", "first_convex_pairs"} if verdict == HOLDS else {"first_convex"})


def test_proven_rows_send_only_their_inner_columns_to_the_loops(monkeypatch):
    # berinde-reflection's H gives y at lambda 0 and x at lambda 1, so every
    # row of both conditions is proven at its ends, and the first-hit loops
    # read 9 of its 11 lambda columns: 1,523,988 tuples, where reading
    # every column took 1,862,652
    received, real = [], expr_module._compile_contraction

    def counting(name, *args):
        loop = real(name, *args)

        def spy(*rows):
            received.append(len(rows[3]))  # M: the tuples of a row that holds
            return loop(*rows)

        return spy if name.startswith("first_convex") else loop

    monkeypatch.setattr(expr_module, "_compile_contraction", counting)
    inst = load_instance(fixture_config_path("berinde-reflection"))
    g, h = inst.gauges["g"], inst.convex.h
    s = inst.set_("A").union(inst.set_("B"))
    assert check_convex_structure(h, g, s, inst.convex.lambda_grid, inst.tol).holds
    assert sum(received) == 1_523_988


# --------------------------------------------------------------------------
# the starshaped check on the interpolant rows, against the reference

# H(0, x, l) = (1 - l)(1 - 2l) x stays on the grid; each plant acts at one
# grid point x: the image leaves [0, 1], H divides by zero, or H is infinite
def _escape(at):
    return f"2*{_hat('u1', at)}"


def _raise(at):
    return f"0/(u1 - {at!r})"


def _infinite(at):
    return f"1e308*(4*{_hat('u1', at)})"


STAR_CASES = {  # plants, the outcome on both sets, and the x it stops at
    "escape": ([_escape(3 / 4)], FALSIFIED, 3 / 4),
    "escape-then-raise": ([_escape(1 / 16), _raise(3 / 4)], FALSIFIED, 1 / 16),
    "raise-then-escape": ([_escape(3 / 4), _raise(1 / 16)], "division-by-zero", 1 / 16),
    "non-finite": ([_infinite(1 / 2), _escape(3 / 4)], "non-finite", 1 / 2),
    "holds": ([], HOLDS, None),
}


@pytest.mark.parametrize("box", [True, False], ids=["box", "exact"])
@pytest.mark.parametrize("case", sorted(STAR_CASES))
def test_starshaped_matches_the_reference(case, box):
    plants, want, at = STAR_CASES[case]
    h = ConvexStructure((" + ".join(["l*x1 + (1-l)*u1*(1 - 2*l)"] + plants),))
    a = SampleSet.grid([(0.0, 1.0)], 17, name="L") if box else LINE
    assert [p.coords for p in a.points] == [p.coords for p in LINE.points]
    r = Point((0.0,))
    got = assert_same(lambda: check_starshaped(h, a, r, LAMS, TOL),
                      lambda: ref_starshaped(h, a, r, LAMS, TOL))
    assert (got[1][0] if got[0] == "ok" else got[2]) == want
    if want == FALSIFIED:
        assert got[1][1]["x"] == exact(Point((at,)))
    if want == "non-finite":
        assert got[3] == f"non-finite: H((0.0), ({at!r}), 0.0)"


# the starshaped plants, and one that raises where _infinite(1/2) is infinite
APPLY_PLANTS = {**{case: plants for case, (plants, _, _) in STAR_CASES.items()},
                "raise-at-the-infinity": [_raise(1 / 2)]}


@pytest.mark.parametrize("second", sorted(APPLY_PLANTS))
@pytest.mark.parametrize("first", sorted(APPLY_PLANTS))
def test_apply_raises_the_error_of_the_first_coordinate_that_fails(first, second):
    # the rule apply keeps: each coordinate through its scalar callable, in
    # order, the first error raised as it is; then a non-finite coordinate
    # is EvalError("non-finite") over the whole tuple
    h = ConvexStructure(tuple(" + ".join(["l*x1 + (1-l)*u1*(1 - 2*l)"] + APPLY_PLANTS[c])
                              for c in (first, second)))
    fns = [compile_expr(e, ("x1", "x2", "u1", "u2", "l")) for e in h.exprs]

    def per_coordinate(x, y, lam):
        coords = tuple([fn(*x.coords, *y.coords, lam) + 0.0 for fn in fns])
        if not all(map(math.isfinite, coords)):
            raise EvalError("non-finite", f"H({x}, {y}, {lam!r})")
        return Point(coords)

    r = Point((0.0, 0.0))
    got = {(at, lam): assert_same(lambda: h.apply(r, Point((at, 0.0)), lam),
                           lambda: per_coordinate(r, Point((at, 0.0)), lam))[:3]
           for at in GRID for lam in LAMS}
    # at x = 1/2 the division by zero wins, in either coordinate
    cases = {first, second}
    if "raise-at-the-infinity" in cases:
        assert got[0.5, 0.0] == ("error", "EvalError", "division-by-zero")
    elif "non-finite" in cases:
        assert got[0.5, 0.0] == ("error", "EvalError", "non-finite")


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


def _proximal_scans(f, core, n_cap, tol=TOL, betas=BETAS):
    """The proximal check at each beta, the estimate and the sweep, each
    against the reference; returns the outcomes by scan."""
    g = core.g
    pairs = lambda: ref_pairs(g, f, core.a, core.d_g, tol)
    out = {}
    for beta in betas:
        out[beta] = assert_same(
            lambda: check_proximal_inequality(f, beta, n_cap, core, tol),
            lambda: ref_proximal(g, pairs(), beta, n_cap, tol),
        )
    out["estimate"] = assert_same(
        lambda: estimate_proximal_coefficient(f, n_cap, core, tol),
        lambda: ref_proximal_estimate(g, pairs(), n_cap, tol),
    )
    out["search"] = assert_same(
        lambda: _searched(
            lambda vs: estimate_proximal_coefficient(f, n_cap, core, tol, sweep=vs),
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
        _proximal_scans(MAP, core, n_cap)
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
# The images lie in [0, 1/2]: a planted gauge's core over LINE and the grid
# points of [0, 1/2] has the level 0 and never meets a second point above
# 1/2, where the gauges below raise.
HALF_B = exact_set(GRID[:9], "H")


def _planted_core(text):
    return proximal_core(GFunction(text, 1), LINE, HALF_B, TOL)


def _quad(j1, j2):
    return {"x1": exact(GRID_POINTS[2 * j1]), "x2": exact(GRID_POINTS[2 * j2]),
            "u1": exact(GRID_POINTS[j1]), "u2": exact(GRID_POINTS[j2])}


def _proximal_planted(text):
    return _proximal_scans(HALF, _planted_core(text), 0.0)


def test_proximal_scans_hold_on_the_halving_instance():
    out = _proximal_planted("abs(x1-u1)")
    assert out["estimate"] == ("ok", exact(0.5))
    assert [out[b][1][0] for b in BETAS] == [FALSIFIED, HOLDS, HOLDS, HOLDS]
    rep = check_proximal_inequality(HALF, 0.5, 0.0, LEVEL_CORE, TOL)
    assert rep.holds and not rep.vacuous
    # rows that all come from the kernels answer the sweep in one pass
    _, reports = estimate_proximal_coefficient(HALF, 0.0, LEVEL_CORE, TOL, sweep=BETAS)
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
    _, reports = estimate_proximal_coefficient(
        HALF, 0.0, _planted_core(text), TOL, sweep=BETAS
    )
    assert not any(rep.holds for rep in reports)


def test_sweep_runs_rows_whose_sum_overflows_through_the_scalar_loop():
    # every value is finite, but each row's sum is not: the kernels give
    # every row up, and the same pass evaluates them tuple by tuple
    g = GFunction("abs(x1-u1)*1e308", 1)
    out = _proximal_scans(HALF, proximal_core(g, LINE, LINE, TOL), 0.0)
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
    out = _proximal_scans(HALF, far, 1.0)
    assert out["estimate"] == ("ok", exact(0.0))
    rep = check_proximal_inequality(HALF, 0.5, 1.0, far, TOL)
    assert rep.holds and rep.vacuous
    _, reports = estimate_proximal_coefficient(HALF, 1.0, far, TOL, sweep=BETAS)
    assert all(rep.holds and rep.vacuous for rep in reports)


def test_sweep_checks_each_value_where_the_check_does():
    # the sweep keeps the check's value rules and their order
    g = LEVEL_CORE.g
    with pytest.raises(GSpaceError, match=r"beta must lie in \(0, 1\], got 1.5"):
        estimate_proximal_coefficient(HALF, 0.0, LEVEL_CORE, TOL, sweep=[0.5, 1.5, -1.0])
    with pytest.raises(GSpaceError, match="N must be non-negative"):
        estimate_proximal_coefficient(HALF, -1.0, LEVEL_CORE, TOL, sweep=[0.5])
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
        out = _proximal_scans(HALF, proximal_core(g, LINE, HALF_B, tol), 0.0, tol,
                              betas=[0.5])
        assert out[0.5][1][0] == verdict == out["search"][1][1][0][0]


def test_holding_proximal_scans_do_not_go_through_eval_g(monkeypatch):
    # abs(g(u1, u2)) is 1/32 higher at (t_1, t_0), above beta * abs(g(x1,
    # x2)) = 1/16 but not above the right side with N * abs(g(x2, u1)) = 1/16
    calls = []

    def counting(g, x, y):
        calls.append(1)
        return eval_g(g, x, y)

    core = _planted_core(f"abs(x1-u1) + (1/32)*{_hat('x1', GRID[1])}*{_hat('u1', GRID[0])}")
    monkeypatch.setattr(gspace_module, "eval_g", counting)
    monkeypatch.setattr(properties_module, "eval_g", counting)
    assert check_proximal_inequality(HALF, 0.5, 1.0, core, TOL).holds
    estimate, reports = estimate_proximal_coefficient(HALF, 1.0, core, TOL, sweep=[0.5, 0.75])
    assert all(rep.holds for rep in reports)
    assert calls == []


# --------------------------------------------------------------------------
# proximity questions answered by ProximalCore.mates: an image that is a
# sample point of B reads its mates from the core, any other image a row of A

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


def _prepass(f, core, tol=TOL):
    """proximal_iterate's image pre-pass alone: a run of no steps."""
    proximal_iterate(f, core, core.a_g.points[0], tol, max_iter=0)


@pytest.mark.parametrize("tol", [TOL, WIDE], ids=["narrow", "wide"])
@pytest.mark.parametrize("case", sorted(SEG_MAPS))
def test_qualifying_pairs_with_images_in_and_off_b(case, tol):
    exprs, in_b = SEG_MAPS[case]
    f = MapSpec(exprs, SEG_A, SEG_B)
    assert sum(f.apply(x).coords in SEG_B.coords for x in SEG_A) == in_b
    core = proximal_core(L1, SEG_A, SEG_B, tol)
    got = assert_same(lambda: qualifying_pairs(f, core),
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
        assert_same(lambda: qualifying_pairs(f, core),
                    lambda: ref_pairs(g, f, A_SET, core.d_g, TOL))
        assert_same(lambda: _prepass(f, core),
                    lambda: ref_prepass(g, f, A_SET, core, TOL))


def _rows_over(monkeypatch, a):
    """The boxes (lo, hi) of the points y whose kernel rows of abs(g) over a
    against y share a plan, one box per plan, as they are planned;
    gspace._runs is the one planner of such rows, and a point y is the box
    (y, y)."""
    real, rows = gspace_module._runs, []

    def spy(g, xs, ys, *args, **kwargs):
        if xs is a:
            rows.append(ys)
        return real(g, xs, ys, *args, **kwargs)

    monkeypatch.setattr(gspace_module, "_runs", spy)
    return rows


def test_images_in_b_read_no_kernel_row(monkeypatch):
    f = MapSpec(SEG_MAPS["mixed"][0], SEG_A, SEG_B)
    core = proximal_core(L1, SEG_A, SEG_B, WIDE)
    rows = _rows_over(monkeypatch, SEG_A)
    qualifying_pairs(f, core)
    _prepass(f, core, WIDE)
    # the 17 images are one run of asked points, and the odd grid points'
    # images (1, t/2), the 8 off B, share one plan, once in each pass
    off_b = [y for x in SEG_A.points if (y := f.apply(x).coords) not in SEG_B.coords]
    assert len(off_b) == 8 and len(core.a_g) == 17
    assert rows == [((1.0, 1 / 32), (1.0, 15 / 32))] * 2
    assert rows[0] == (tuple(map(min, *off_b)), tuple(map(max, *off_b)))
    # the steps from (0, 1) select against the images (1, t/2) for t = 1,
    # 1/2, 1/4, 1/8, then (1, 1/32), off B, then (1, 0)
    rows.clear()
    trace = proximal_iterate(f, core, SEG_A.points[-1], WIDE, check_image=False)
    images = [f.apply(p).coords for p in trace.points[:-1]]
    assert trace.verdict == "converged" and len(images) == 6
    assert rows == [((1.0, 1 / 32), (1.0, 1 / 32))]
    assert [y for y in images if y not in SEG_B.coords] == [(1.0, 1 / 32)]


def test_mates_answers_for_points_of_b_under_the_cores_own_terms(monkeypatch):
    core = proximal_core(L1, SEG_A, SEG_B, TOL)
    y = SEG_B.points[3]
    rows = _rows_over(monkeypatch, SEG_A)
    assert core.mates(y) == (SEG_A.points[3],)
    assert rows == []  # read from the core
    questions = [  # an image off B, or a subsample of A, reads the row against y
        (Point((1.0, 1 / 32)), None),
        (Point((2.0, 0.0)), None),
        (y, exact_set(SEG_A.coords, "A")),
        (y, exact_set(SEG_A.coords[::2], "A")),
    ]
    answers = []
    for target, a in questions:
        want = assert_same(lambda: list(core.mates(target, a)),
                           lambda: ref_mates(L1, a or SEG_A, target, core.d_g, TOL))
        answers.append(len(want[1]))
    assert answers == [0, 0, 1, 0]
    assert len(rows) == 2  # the subsamples are other sets


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
        got = assert_same(lambda: _prepass(f, core),
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
    got = assert_same(lambda: _prepass(f, core),
                      lambda: ref_prepass(g, f, LINE, core, TOL))
    assert got[:3] == ("error", "EvalError", "division-by-zero")
    assert got[3] == "division-by-zero: 0.75 / 0"


# --------------------------------------------------------------------------
# the proximity core against the full matrix: a first pass finds the level
# and a second reads each row's band at it; a row the first pass reads whole
# keeps its values near the level in arrays instead

CORE_GAUGES = {
    "ascending": "abs(x1-u1) + x1",  # the first row holds the level
    "descending": "abs(x1-u1) + 1 - x1",  # every row lowers it
    "late": "abs(x1-u1) + 1 - max(0, 16*x1 - 15)",  # only the last row does
    "ties": "abs(abs(x1-u1) - 0.25)",  # two minima a row, level 0 in most rows
    "near-min": "abs(x1-u1)/8 + x1/64",  # many entries near each row minimum
    "whole-row": "1 + 0*u1 + 0*x1",  # every row entirely in band
}
CORE_TOLS = [TOL, WIDE, ToleranceSet(eps_prox=1 / 16)]


def _core_cases():
    for name, text in CORE_GAUGES.items():
        yield name, GFunction(text, 1), LINE, exact_set(GRID[::2], "B")
    for seed in range(10):
        yield f"random-{seed}", _random_case(seed)[0], A_SET, B_SET


def _band_reads(monkeypatch, read):
    """Call read with the (start, stop) of each range of a band plan that
    gspace._band reads through RowKernels.band, as it reads it."""
    real_band, real_loop, ranges = gspace_module._band, expr_module.RowKernels.band, []

    def band(g, xs, ys, plan, *args):
        ranges[:] = [(start, stop) for start, stop, proven in plan if not proven]
        return real_band(g, xs, ys, plan, *args)

    def loop(kernels):
        real = real_loop.__get__(kernels, type(kernels))

        def spy(*args):
            read(ranges.pop(0))
            return real(*args)

        return spy

    monkeypatch.setattr(gspace_module, "_band", band)
    monkeypatch.setattr(expr_module.RowKernels, "band", property(loop))


def _kept_rows(monkeypatch):
    """Per row of A that proximal_core reads, in the order it keeps them,
    (the row's coordinates, what it keeps).  A row the first pass reads
    whole keeps arrays, by type code: "l" the indices into B and "d" the
    values.  A row the second pass reads through the band plan of its leaf
    of A (gspace._band, the one reader of such rows) keeps "hits", the
    indices into B it gives, with "proven", those of the blocks the plan
    proves in band, and "read", those of the ranges RowKernels.band reads
    for the row."""
    kept, spans, row = [], [], [None]
    real_band, real_row, real_array = (
        gspace_module._band, gspace_module._gauge_row, gspace_module.array)

    def band(g, xs, ys, plan, *args):
        if not isinstance(xs, Point):  # the mates of a point, not a row of the core
            return real_band(g, xs, ys, plan, *args)
        spans.clear()
        hits = real_band(g, xs, ys, plan, *args)
        proven = {j for start, stop, p in plan if p for j in range(start, stop)}
        read = {j for start, stop in spans for j in range(len(ys))[start:stop]}
        kept.append((xs.coords, {"hits": hits, "proven": proven, "read": read}))
        return hits

    def gauge_row(g, xs, ys, span=None):
        if isinstance(xs, Point):
            row[0] = xs.coords
        return real_row(g, xs, ys, span)

    def array(code, items):
        made = real_array(code, items)
        if code == "l":
            kept.append((row[0], {"l": made}))
        else:
            kept[-1][1]["d"] = made
        return made

    monkeypatch.setattr(gspace_module, "_band", band)
    monkeypatch.setattr(gspace_module, "_gauge_row", gauge_row)
    monkeypatch.setattr(gspace_module, "array", array)
    _band_reads(monkeypatch, spans.append)
    return kept


def _assert_kept(g, a, b, tol, d_g, kept):
    """Each row of A is kept once.  The rows read whole, the first and
    every row of a gauge without a bound, keep a superset of their band
    within their own: entries in order and equal by hex.  Every other row
    gives exactly its band, in order, and reads none of the blocks proven
    in it."""
    assert sorted(x for x, _ in kept) == sorted(a.coords)
    whole = [x for x, arrays in kept if "l" in arrays]
    assert whole == (a.coords[:1] if g.kernels.bound is not None else a.coords)
    for x, arrays in kept:
        row = [abs(eval_g(g, Point(x), y)) for y in b.points]
        band = [j for j, v in enumerate(row) if abs(v - d_g) <= tol.eps_prox]
        if "l" in arrays:
            keep, values = arrays["l"], arrays["d"]
            own = [j for j, v in enumerate(row) if v - min(row) <= tol.eps_prox]
            assert set(band) <= set(keep) <= set(own), x
            assert list(keep) == sorted(keep)
            assert [v.hex() for v in values] == [row[j].hex() for j in keep]
        else:
            assert arrays["hits"] == band, x
            assert arrays["proven"] <= set(band), x
            assert not arrays["proven"] & arrays["read"], x


@pytest.mark.parametrize("tol", CORE_TOLS, ids=["narrow", "wide", "wider"])
def test_the_core_matches_the_full_matrix_and_keeps_no_more_than_its_rows(
    tol, monkeypatch
):
    kept = _kept_rows(monkeypatch)
    for name, g, a, b in _core_cases():
        kept.clear()
        want = assert_same(lambda: proximal_core(g, a, b, tol),
                           lambda: ref_core(g, a, b, tol))
        if want[0] == "error":
            continue
        _assert_kept(g, a, b, tol, float.fromhex(want[1][0]), kept)


@pytest.mark.parametrize("mate", ["early", "none"])
def test_an_image_off_b_is_read_whole_before_its_first_mate(mate):
    # the level 2 is realised at (1, 3) alone; the image -2 or -3 of 1 is off
    # B.  Against -2 the first point 0 of A is a mate, and g(u, -2) divides by
    # zero at u = 3/4; against -3 no point of A is a mate
    g = GFunction("abs(x1-u1) + 0/(abs(x1 - 0.75) + abs(u1 + 2))", 1)
    b = exact_set([3.0, 4.0], "B")
    core = proximal_core(g, LINE, b, TOL)
    assert core.a_g.points == (Point((1.0,)),) and core.d_g == 2.0
    f = MapSpec(["-2" if mate == "early" else "-3"], LINE, b)
    got = assert_same(lambda: _prepass(f, core),
                      lambda: ref_prepass(g, f, LINE, core, TOL))
    if mate == "early":
        assert abs(eval_g(g, LINE.points[0], f.apply(core.a_g.points[0]))) == 2.0
        assert got == ("error", "EvalError", "division-by-zero",
                       "division-by-zero: 0.0 / 0")
    else:
        assert got == ("error", "NoProximalMate",
                       "image of realising point (1.0) has no proximity mate; "
                       "the map does not send the realising set into its partner")


# --------------------------------------------------------------------------
# blocks left out by the interval bound: sets of more than one leaf block of
# gspace._LEAF points, where the core and the mates of images off B read
# only the blocks of a row that can reach the level

FINE_A = SampleSet.grid([(0.0, 1.0)], 65, name="A")  # t/64: three blocks
FINE_B = SampleSet.grid([(0.0, 1.0)], 129, name="B")  # t/128: five blocks
PLANE_A = SampleSet.grid([(-1.0, 1.0), (-1.0, 1.0)], 9, name="A")
PLANE_B = SampleSet.grid([(0.0, 2.0), (-1.0, 1.0)], 9, name="B")


def _reads(monkeypatch):
    """The spans of the sample-set rows that gspace._gauge_row reads, and of
    the ranges of band plans that gspace._band reads through
    RowKernels.band, in the order they are read, as (start, stop) pairs over
    the set, (0, None) for a row read whole."""
    real, spans = gspace_module._gauge_row, []

    def spy(g, xs, ys, span=None):
        spans.append((0, None) if span is None else (span.start, span.stop))
        return real(g, xs, ys, span)

    monkeypatch.setattr(gspace_module, "_gauge_row", spy)
    _band_reads(monkeypatch, spans.append)
    return spans


def _read(spans, n):
    return sum(n if stop is None else stop - start for start, stop in spans)


def _leaves(s, node):
    """The (start, stop) of the leaves under a node of s.blocks, in order,
    checking each node's box against its points."""
    lo, hi, start, stop, halves = node
    axes = list(zip(*s.coords[start:stop]))
    assert lo == tuple(map(min, axes)) and hi == tuple(map(max, axes))
    if not halves:
        assert 0 < stop - start <= gspace_module._LEAF
        return [(start, stop)]
    return _leaves(s, halves[0]) + _leaves(s, halves[1])


def test_the_blocks_of_a_set_cover_it_in_scan_order():
    for s in (FINE_A, FINE_B, PLANE_A, LINE):
        spans = _leaves(s, s.blocks)
        assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
        assert spans[-1][1] == len(s)
    assert _leaves(FINE_B, FINE_B.blocks) == [
        (0, 32), (32, 64), (64, 96), (96, 112), (112, 129)]
    assert _leaves(LINE, LINE.blocks) == [(0, 17)]


@pytest.mark.parametrize("tol", CORE_TOLS, ids=["narrow", "wide", "wider"])
def test_a_core_over_blocks_matches_the_full_matrix(tol, monkeypatch):
    spans = _reads(monkeypatch)
    cases = [(name, GFunction(text, 1), FINE_A, FINE_B)
             for name, text in CORE_GAUGES.items()]
    cases += [(f"random-{seed}", _random_case(seed)[0], PLANE_A, PLANE_B)
              for seed in range(12)]
    pruned = 0
    for name, g, a, b in cases:
        spans.clear()
        assert_same(lambda: proximal_core(g, a, b, tol),
                    lambda: ref_core(g, a, b, tol))
        pruned += _read(spans, len(b)) < len(a) * len(b)
    assert pruned >= 8  # most cases leave blocks out


def test_a_mark_next_to_a_prunable_block_raises_where_the_matrix_does(monkeypatch):
    # the level is 0, on the diagonal; g divides by zero at (1/2, u) alone.
    # At u = 1/4, the first point of B's second block, the first block is
    # out of band; at u = 15/16 the tuple lies far above the level, in a
    # block the bound would leave out but for the mark
    spans = _reads(monkeypatch)
    for u in (0.25, 0.9375):
        g = GFunction(f"abs(x1-u1) + 0/(abs(x1 - 0.5) + abs(u1 - {u!r}))", 1)
        spans.clear()
        got = assert_same(lambda: proximal_core(g, FINE_A, FINE_B, TOL),
                          lambda: ref_core(g, FINE_A, FINE_B, TOL))
        assert got == ("error", "EvalError", "division-by-zero",
                       "division-by-zero: 0.0 / 0")
        assert _read(spans, len(FINE_B)) < 33 * len(FINE_B)  # rows 0..32 read, pruned


def test_the_level_dropping_in_the_last_row_keeps_its_band(monkeypatch):
    # every row before the last has its minimum 1 at the level of the rows
    # before it; the last row's own minimum 0 lowers the level
    kept, spans = _kept_rows(monkeypatch), _reads(monkeypatch)
    g = GFunction("abs(x1-u1) + 1 - max(0, 64*x1 - 63)", 1)
    want = assert_same(lambda: proximal_core(g, FINE_A, FINE_B, WIDE),
                       lambda: ref_core(g, FINE_A, FINE_B, WIDE))
    assert float.fromhex(want[1][0]) == 0.0 and want[1][1] == (exact(Point((1.0,))),)
    _assert_kept(g, FINE_A, FINE_B, WIDE, 0.0, kept)
    # the first row keeps its own band, at its own minimum 1; of the rows
    # the second pass reads, the last alone reaches the level 0, at u from
    # 1 - 1/32 to 1
    (x, arrays), *rest = kept
    row = [abs(eval_g(g, Point(x), y)) for y in FINE_B.points]
    assert list(arrays["l"]) == [j for j, v in enumerate(row) if v - 1.0 <= WIDE.eps_prox]
    assert [(x, arrays["hits"]) for x, arrays in rest if arrays["hits"]] == [
        ((1.0,), list(range(124, 129)))]
    assert _read(spans, len(FINE_B)) < len(FINE_A) * len(FINE_B) / 2
    # at the level 1, the level plans of the leaves (0, 32) and (32, 48) of
    # FINE_A leave out all of B, proven at or above it.  The last leaf's box
    # holds the dipping row, so its plan reads B whole; at the level 0 the
    # band plan of that leaf reads (64, 129), and those of the others nothing
    assert spans == [(0, None)] + [(0, 129)] * 17 + [(64, 129)] * 17


# Below u = 3/4 every row of FINE_A but the last lies in [1, 1 + 1/128], and
# above it rises steeply: the blocks (0, 64) and (64, 96) of FINE_B are proven
# at the level 1.  The last row dips by the given term, lowering the level
DROP = "1 + max(0, u1 - 0.5)/64 + 4*max(0, u1 - 0.75) - max(0, 64*x1 - 63)*{}"


@pytest.mark.parametrize("dip, level, proven, reads", [
    # past the band: the second pass reads the dip's block in the last leaf
    ("max(0, 0.5 - u1)/2", 0.75, set(),
     [(0, None)] + [(0, 64)] * 17 + [(0, 32)] * 17),
    # inside it: (0, 64) and (64, 96) are proven in band at the new level
    ("1/64", 63 / 64, set(range(96)),
     [(0, None)] + [(0, 112)] * 17 + [(96, 112)] * 64),
], ids=["deep", "shallow"])
def test_blocks_are_proven_in_band_only_at_the_final_level(
    dip, level, proven, reads, monkeypatch
):
    kept, spans = _kept_rows(monkeypatch), _reads(monkeypatch)
    g = GFunction(DROP.format(dip), 1)
    want = assert_same(lambda: proximal_core(g, FINE_A, FINE_B, WIDE),
                       lambda: ref_core(g, FINE_A, FINE_B, WIDE))
    assert float.fromhex(want[1][0]) == level
    _assert_kept(g, FINE_A, FINE_B, WIDE, level, kept)
    (x, arrays), *rest = kept  # the first row keeps its own band
    row = [abs(eval_g(g, Point(x), y)) for y in FINE_B.points]
    assert list(arrays["l"]) == [
        j for j, v in enumerate(row) if v - min(row) <= WIDE.eps_prox]
    assert all(arrays["proven"] == proven for _, arrays in rest)
    # the level plans at the level 1 leave out all of B for the leaves
    # (0, 32) and (32, 48) of FINE_A, and read the blocks the dipping row
    # can take below 1 for the last leaf (48, 65)
    assert spans == reads


@pytest.mark.parametrize("tol", CORE_TOLS, ids=["narrow", "wide", "wider"])
@pytest.mark.parametrize("text", [
    "abs(x1-u1)^0.5 + x1",  # the first row holds the level
    "abs(x1-u1)^0.5 + 1 - max(0, 64*x1 - 63)",  # the last row lowers it
], ids=["first", "last"])
def test_a_gauge_without_a_bound_reads_every_row_whole(text, tol, monkeypatch):
    kept, spans = _kept_rows(monkeypatch), _reads(monkeypatch)
    g = GFunction(text, 1)
    assert g.kernels.bound is None
    want = assert_same(lambda: proximal_core(g, FINE_A, FINE_B, tol),
                       lambda: ref_core(g, FINE_A, FINE_B, tol))
    _assert_kept(g, FINE_A, FINE_B, tol, float.fromhex(want[1][0]), kept)
    assert spans == [(0, None)] * len(FINE_A)


# --------------------------------------------------------------------------
# one plan per leaf of A and pass: proximal_core walks B's block tree once
# for each leaf of A.blocks in each pass, bounding the leaf's box against
# B's blocks, and each row of the leaf reads that plan's ranges


def _bound_calls(g, monkeypatch):
    """The argument tuples of the calls of g.kernels.bound, as they come."""
    calls, real = [], g.kernels.bound

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setitem(vars(g.kernels), "bound", spy)
    return calls


def test_a_parallel_segment_core_plans_once_per_leaf_of_a(monkeypatch):
    # the shape of the proximal-weak jobs: A = {0} x grid and B = {1} x grid,
    # 193 points a step of 2^-8 apart, the level 1 at the pairs (t, t)
    # alone.  A walk of B's tree for each row of A would make 1,344 bound
    # calls against 193 leaf reads.  Every value is at least 1, the first
    # row's minimum, so each level plan leaves out B at its root, one call;
    # each band plan makes 7 calls for each of the 8 leaves and reads the
    # leaves of B next to the leaf's band alone
    column = (0.0, 192 * 2.0 ** -8)
    a = SampleSet.grid([(0.0, 0.0), column], [1, 193], name="A")
    b = SampleSet.grid([(1.0, 1.0), column], [1, 193], name="B")
    g = GFunction("abs(x1-u1) + abs(x2-u2)", 2)
    calls, spans = _bound_calls(g, monkeypatch), _reads(monkeypatch)
    want = assert_same(lambda: proximal_core(g, a, b, TOL),
                       lambda: ref_core(g, a, b, TOL))
    assert float.fromhex(want[1][0]) == 1.0 and len(want[1][1]) == 193
    assert len(_leaves(a, a.blocks)) == 8
    assert len(calls) <= 64
    assert _read(spans, len(b)) <= 4826


# The level 1 holds for every row of FINE_A but 5/8, row 40, in the leaf
# (32, 48), whose values fall to 3/4 at u = 0.  At the level 1 the level
# plan of that leaf reads the block (0, 32) of FINE_B, which the row 5/8 in
# its box takes below it, and leaves out the rest; the plan of the next
# leaf, (48, 65), is made at 3/4 and leaves out all of B.  At 3/4 the band
# plan of the leaf (32, 48) reads (0, 32) again, and those of the others
# read nothing
LEAF_DROP = ("1 + max(0, u1 - 0.5)/64 + 4*max(0, u1 - 0.75)"
             " - max(0, 1 - 64*abs(x1 - 0.625))*max(0, 0.25 - u1)")


def test_the_level_falling_inside_a_leaf_plans_the_next_leaf_at_the_new_level(
    monkeypatch
):
    kept, spans = _kept_rows(monkeypatch), _reads(monkeypatch)
    g = GFunction(LEAF_DROP, 1)
    want = assert_same(lambda: proximal_core(g, FINE_A, FINE_B, WIDE),
                       lambda: ref_core(g, FINE_A, FINE_B, WIDE))
    assert float.fromhex(want[1][0]) == 0.75
    _assert_kept(g, FINE_A, FINE_B, WIDE, 0.75, kept)
    assert [arrays.get("proven") for _, arrays in kept] == [None] + [set()] * 64
    assert [x for x, arrays in kept[1:] if arrays["hits"]] == [(0.625,)]
    assert spans == [(0, None)] + [(0, 32)] * 16 + [(0, 32)] * 16  # pass one, pass two


def test_a_mark_a_leaf_plan_reads_for_a_later_row_comes_after_the_row_major_first(
    monkeypatch
):
    # the level 0 lies on the diagonal.  g divides 0 by zero at (1/64,
    # 15/16), in B's leaf (112, 129), and 1 by zero at (31/64, 13/16), in
    # (96, 112): both in the first leaf of FINE_A, whose level plan cannot
    # prove either block clean, and leaves out the rest, proven at or above
    # the level 0 of the first row.  The row 1/64 reads both, passes the
    # mark of a later row in (96, 112), and raises in (112, 129) at its own
    g = GFunction("abs(x1-u1) + 0/(abs(x1 - 0.015625) + abs(u1 - 0.9375))"
                  " + 0*(1/(abs(x1 - 0.484375) + abs(u1 - 0.8125)))", 1)
    spans = _reads(monkeypatch)
    got = assert_same(lambda: proximal_core(g, FINE_A, FINE_B, TOL),
                      lambda: ref_core(g, FINE_A, FINE_B, TOL))
    assert got == ("error", "EvalError", "division-by-zero",
                   "division-by-zero: 0.0 / 0")
    assert spans == [(0, None), (96, 129)]


def _plane_gauges(seed):
    """Gauges drawn over the plane: each drawn alone and added to the L1
    distance, which gives its rows a level to reach."""
    rng = random.Random(seed)
    for _ in range(6):
        e = _without_l(random_expr(rng, 4))
        yield GFunction(e, 2)
        yield GFunction(f"abs(x1-u1) + abs(x2-u2) + ({e})/4", 2)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("tol", CORE_TOLS, ids=["narrow", "wide", "wider"])
def test_leaf_plans_of_random_gauges_match_the_full_matrix(seed, tol, monkeypatch):
    # PLANE_A and PLANE_B have four leaves each
    kept = _kept_rows(monkeypatch)
    for g in _plane_gauges(seed):
        kept.clear()
        want = assert_same(lambda: proximal_core(g, PLANE_A, PLANE_B, tol),
                           lambda: ref_core(g, PLANE_A, PLANE_B, tol))
        if want[0] == "ok":
            _assert_kept(g, PLANE_A, PLANE_B, tol, float.fromhex(want[1][0]), kept)


def _plans(monkeypatch):
    """The plans gspace._runs makes, as (box, level, eps, plan), in order."""
    real, plans = gspace_module._runs, []

    def spy(g, xs, ys, level, eps=None):
        plan = real(g, xs, ys, level, eps)
        plans.append((tuple(xs), level, eps, plan))
        return plan

    monkeypatch.setattr(gspace_module, "_runs", spy)
    return plans


def _proven_out(node, covered, proves):
    """Whether each index under a node of a set's blocks that covered does
    not hold lies in a node under it, outside covered, that proves."""
    lo, hi, start, stop, halves = node
    if covered.isdisjoint(range(start, stop)) and proves(lo, hi):
        return True
    if not halves:
        return covered.issuperset(range(start, stop))
    return all(_proven_out(half, covered, proves) for half in halves)


def _nodes(node):
    """The nodes of a set's blocks, (lo, hi) by (start, stop)."""
    lo, hi, start, stop, halves = node
    found = {(start, stop): (lo, hi)}
    for half in halves:
        found.update(_nodes(half))
    return found


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("tol", CORE_TOLS, ids=["narrow", "wide", "wider"])
def test_the_plans_of_the_core_leave_unread_only_blocks_the_bound_proves(
    seed, tol, monkeypatch
):
    # the first pass plans each leaf of A at the level it starts from, and
    # the first leaf again after its first row, at that row's minimum: it
    # leaves out only blocks of B that g.kernels.bound proves at or above
    # that level.  The second plans each leaf at d_g: it leaves out only
    # blocks proven more than eps_prox away from d_g, and takes unread only
    # blocks proven within eps_prox of it at both ends
    plans, eps = _plans(monkeypatch), tol.eps_prox
    leaves = gspace_module._leaves(PLANE_A.blocks)
    nodes, unread = _nodes(PLANE_B.blocks), {"level": 0, "band": 0}
    gauges = list(_plane_gauges(seed)) + [
        _random_case(k)[0] for k in range(seed, seed + 6)]
    for g in gauges:
        # test_leaf_plans_of_random_gauges_match_the_full_matrix and
        # test_a_core_over_blocks_matches_the_full_matrix check the core
        # against this matrix
        try:
            rows = [[abs(eval_g(g, x, y)) for y in PLANE_B.points] for x in PLANE_A.points]
        except EvalError:
            continue
        plans.clear()
        d_g, bound = proximal_core(g, PLANE_A, PLANE_B, tol).d_g, g.kernels.bound
        assert d_g == min(map(min, rows))
        if bound is None:
            assert [p for *_, p in plans] == [[(0, None, False)]] * (2 * len(leaves))
            continue
        firsts = [0, 1] + [first for *_, first, _, _ in leaves[1:]]
        boxes = [leaves[0][:2]] + [leaf[:2] for leaf in leaves]
        levels = [min((min(row) for row in rows[:k]), default=math.inf) for k in firsts]
        level_plans = [(box, level) for box, level, e, _ in plans if e is None]
        assert level_plans == list(zip(boxes, levels))
        assert [(box, level, e) for box, level, e, _ in plans[len(firsts):]] == [
            (leaf[:2], d_g, eps) for leaf in leaves]
        for box, level, e, plan in plans:
            covered = {j for start, stop, _ in plan
                       for j in range(len(PLANE_B))[start:stop]}
            if e is None:
                assert plan != [(0, None, False)] or level == math.inf

                def proves(lo, hi):
                    ends = bound(*box, lo, hi)
                    return ends is not None and ends[0] >= level
            else:
                def proves(lo, hi):
                    ends = bound(*box, lo, hi)
                    return ends is not None and (
                        ends[0] - d_g > eps or d_g - ends[1] > eps)

                for start, stop, proven in plan:
                    if proven:
                        ends = bound(*box, *nodes[start, stop])
                        assert ends[1] - d_g <= eps and d_g - ends[0] <= eps
                        unread["band"] += 1
            assert _proven_out(PLANE_B.blocks, covered, proves)
            unread["level" if e is None else "band"] += len(covered) < len(PLANE_B)
    assert unread["level"] and unread["band"]  # the spies see blocks left unread


def test_a_euclidean_core_leaves_out_the_blocks_at_its_level(monkeypatch):
    # the shape of solve's proximal/513 job: A = {0} x grid and B = {1} x
    # grid, 513 points 2^-9 apart, the level 1 at the pairs (t, t).  A
    # square is the correctly rounded product, so the bound of a block on
    # that diagonal has the lower end 1 exactly, and a level plan at 1 leaves
    # it out; with the ends of ^2 widened as pow's are, it read 63,010 values
    column = (0.0, 512 * 2.0 ** -9)
    a = SampleSet.grid([(0.0, 0.0), column], [1, 513], name="A")
    b = SampleSet.grid([(1.0, 1.0), column], [1, 513], name="B")
    g = GFunction("sqrt((x1-u1)^2 + (x2-u2)^2)", 2)
    tol = ToleranceSet(eps_prox=2.0 ** -10)  # half a step, as a config's default
    plans, spans = _plans(monkeypatch), _reads(monkeypatch)
    want = assert_same(lambda: proximal_core(g, a, b, tol),
                       lambda: ref_core(g, a, b, tol))
    assert float.fromhex(want[1][0]) == 1.0 and len(want[1][1]) == 513
    assert _read(spans, len(b)) <= 47137
    at_level = 0
    for box, level, eps, plan in plans:
        covered = {j for start, stop, _ in plan for j in range(len(b))[start:stop]}
        for (start, stop), (lo, hi) in _nodes(b.blocks).items():
            ends = g.kernels.bound(*box, lo, hi)
            at_level += (eps is None and ends is not None and ends[0] == level
                         and covered.isdisjoint(range(start, stop)))
    assert at_level


METRIC_TO_B = {  # level 1, at (1, 2), by band
    tol.eps_prox: proximal_core(GFunction("abs(x1-u1)", 1), FINE_B,
                                exact_set([2.0, 3.0], "B"), tol)
    for tol in (TOL, WIDE)
}


@pytest.mark.parametrize("tol", [TOL, WIDE], ids=["narrow", "wide"])
@pytest.mark.parametrize("y", [1.5, -0.5, 1.75, 2.5, 0.5])
def test_the_mates_of_an_image_off_b_read_the_blocks_near_the_level(y, tol, monkeypatch):
    # against y the band is |u - y| = 1; blocks whose values all lie more
    # than eps above or below 1 are left out, and against 2.5 and 0.5 all
    spans = _reads(monkeypatch)
    core, target = METRIC_TO_B[tol.eps_prox], Point((y,))
    mates = assert_same(lambda: list(core.mates(target)),
                        lambda: ref_mates(core.g, FINE_B, target, core.d_g, tol))
    read = _read(spans, len(FINE_B))
    if y in (2.5, 0.5):
        assert mates == ("ok", ()) and read == 0
    else:
        assert len(mates[1]) == (1 if tol is TOL else 9) and 0 < read <= 64


def test_the_mates_of_an_image_off_b_skip_the_blocks_below_the_band(monkeypatch):
    # at level 3/8 the mates of 1/2 are 1/8, in the first block, and 7/8,
    # in the last; the three blocks between lie below the band
    g = GFunction("abs(x1-u1)", 1)
    core = proximal_core(g, FINE_B, exact_set([1.375, 3.0], "B"), TOL)
    spans = _reads(monkeypatch)
    mates = assert_same(lambda: core.mates(Point((0.5,))),
                        lambda: ref_mates(g, FINE_B, Point((0.5,)), core.d_g, TOL))
    assert mates == ("ok", (exact(Point((0.125,))), exact(Point((0.875,)))))
    assert spans == [(0, 32), (112, 129)]


def test_a_mark_in_the_row_of_an_image_off_b_raises_where_the_row_does(monkeypatch):
    # g divides by zero at (15/16, 3/2) alone, far from the band of 3/2: the
    # blocks before its leaf are clean, whether read or left out
    spans = _reads(monkeypatch)
    g = GFunction("abs(x1-u1) + 0/(abs(x1 - 0.9375) + abs(u1 - 1.5))", 1)
    core = proximal_core(g, FINE_B, exact_set([2.0, 3.0], "B"), TOL)
    spans.clear()
    got = assert_same(lambda: core.mates(Point((1.5,))),
                      lambda: ref_mates(g, FINE_B, Point((1.5,)), core.d_g, TOL))
    assert got[:3] == ("error", "EvalError", "division-by-zero")
    assert spans == [(64, 96), (112, 129)]


# --------------------------------------------------------------------------
# blocks the bound proves in band, which the core keeps and mates yields
# without reading a value of them

# Level 1, at (u, 1/2) for every u of FINE_B.  Against the image 1/4, off
# B, the values dip below 1 for u < 1/4 (by up to 1/16), are 1 from 1/4 to
# 3/4, the blocks (32, 64) and (64, 96), and rise by 1/128 a step above 3/4
PLATEAU = "1 + max(0, abs(x1-u1) - 0.5) - max(0, 0.5 - u1)*max(0, 0.25 - x1)"
PLATEAU_B = exact_set([0.5, 3.0], "B")


@pytest.mark.parametrize("tol, first, reads", [
    (TOL, 32, [(96, 112)]),  # the dip lies wholly below the band: left out
    (WIDE, 16, [(0, 32), (96, 112)]),  # its upper part is in band
], ids=["narrow", "wide"])
def test_the_mates_of_a_block_proven_in_band_are_yielded_unread(
    tol, first, reads, monkeypatch
):
    g = GFunction(PLATEAU, 1)
    core = proximal_core(g, FINE_B, PLATEAU_B, tol)
    assert core.d_g == 1.0 and len(core.a_g) == len(FINE_B)
    target = Point((0.25,))
    assert target.coords not in PLATEAU_B.coords
    spans = _reads(monkeypatch)
    got = list(core.mates(target))
    assert got == ref_mates(g, FINE_B, target, core.d_g, tol)
    assert got[0] == FINE_B.points[first] and FINE_B.points[95] in got
    assert spans == reads  # no value of the proven blocks (32, 96) is read


def test_a_mark_next_to_a_block_proven_in_band_raises_where_the_matrix_does(
    monkeypatch
):
    # mates: g divides by zero at (3/4, 1/4) alone, the first point of the
    # leaf after the proven block (64, 96), which raises as the first leaf
    # the bound cannot prove clean
    spans = _reads(monkeypatch)
    g = GFunction(PLATEAU + " + 0/(abs(x1 - 0.75) + abs(u1 - 0.25))", 1)
    core = proximal_core(g, FINE_B, PLATEAU_B, TOL)
    spans.clear()
    got = assert_same(lambda: core.mates(Point((0.25,))),
                      lambda: ref_mates(g, FINE_B, Point((0.25,)), core.d_g, TOL))
    assert got[:3] == ("error", "EvalError", "division-by-zero")
    assert spans == [(96, 112)]
    # the core: every value is 1, but g divides by zero at (1/2, u), u the
    # first point of B's second leaf or the last of its first; the level
    # plan leaves out every other leaf, proven at the first row's level 1,
    # and the row of 1/2 reads the marked one
    for u, read in ((0.25, (32, 64)), (0.2421875, (0, 32))):
        g = GFunction(f"1 + 0*u1 + 0/(abs(x1 - 0.5) + abs(u1 - {u!r}))", 1)
        spans.clear()
        got = assert_same(lambda: proximal_core(g, FINE_A, FINE_B, TOL),
                          lambda: ref_core(g, FINE_A, FINE_B, TOL))
        assert got == ("error", "EvalError", "division-by-zero",
                       "division-by-zero: 0.0 / 0")
        assert spans == [(0, None), read]  # the first row whole, then the mark's leaf


# --------------------------------------------------------------------------
# batched proximity questions: ProximalCore.mates_of draws the points it is
# asked in runs of gspace._LEAF, and the points of a run off B share a plan


def _asked(seed):
    """80 points, runs of 32, 32 and 16: 40 points of PLANE_B and 40 off it,
    around it, shuffled together."""
    rng = random.Random(seed)
    off = set()
    while len(off) < 40:
        y = (rng.randint(-16, 80) / 32, rng.randint(-48, 48) / 32)
        if y not in PLANE_B.coords:
            off.add(y)
    ys = [Point(y) for y in rng.sample(PLANE_B.coords, 40) + sorted(off)]
    rng.shuffle(ys)
    return ys


@pytest.mark.parametrize("seed", range(8))
def test_random_gauges_mates_of_matches_mates_and_the_reference(seed):
    ys, capped = _asked(seed), exact_set(PLANE_A.coords[::3], "A")
    gauges = [_random_case(seed)[0], *list(_plane_gauges(seed))[1:4:2]]
    answered = 0
    for g in gauges:
        try:
            core = proximal_core(g, PLANE_A, PLANE_B, TOL)
        except EvalError:
            continue  # compared in test_a_core_over_blocks_matches_the_full_matrix
        for a in (None, capped):
            want = assert_same(lambda: list(core.mates_of(ys, a)),
                               lambda: [core.mates(y, a) for y in ys])
            assert_same(lambda: list(core.mates_of(ys, a)),
                        lambda: [tuple(ref_mates(g, a or PLANE_A, y, core.d_g, TOL))
                                 for y in ys])
            answered += want[0] == "ok" and any(want[1])
    assert answered >= 2


def test_mates_of_draws_the_points_it_asks_one_run_ahead():
    core, drawn = METRIC_TO_B[TOL.eps_prox], []

    def ys():
        for k in range(100):
            drawn.append(k)
            yield Point((k / 64,))

    answers = core.mates_of(ys())
    next(answers)
    assert drawn == list(range(gspace_module._LEAF))
    assert len(list(answers)) == 99 and drawn == list(range(100))


# A = LINE and B = {0, 1}: the level 0 at (0, 0) and (1, 1), so a_g = {0, 1}.
# g divides 0 by zero at (1/4, 1/2) alone, in the row of the image 1/2
MARKED = GFunction("abs(x1-u1) + 0/(abs(x1 - 0.25) + abs(u1 - 0.5))", 1)
NO_MATE = ("error", "NoProximalMate",
           "image of realising point (0.0) has no proximity mate; "
           "the map does not send the realising set into its partner")


@pytest.mark.parametrize("text, want", [
    # the image 5 of 0 has no mate; the image 1/2 of 1 would raise
    ("5 - 4.5*x1", NO_MATE),
    # the other way round, the row of 1/2 raises first
    ("0.5 + 4.5*x1", ("error", "EvalError", "division-by-zero",
                      "division-by-zero: 0.0 / 0")),
    # the image of 1 overflows, and it is drawn in the run of the image 5
    ("5 - 4.5*x1 + x1*1e308*100", NO_MATE),
])
def test_an_image_without_a_mate_raises_before_the_later_images_of_its_run(text, want):
    b = exact_set([0.0, 1.0], "B")
    core = proximal_core(MARKED, LINE, b, TOL)
    assert core.a_g.points == (Point((0.0,)), Point((1.0,)))
    f = MapSpec([text], LINE, b)
    assert assert_same(lambda: _prepass(f, core),
                       lambda: ref_prepass(MARKED, f, LINE, core, TOL)) == want


def test_qualifying_pairs_raise_a_map_error_before_any_mates_error():
    # the image 1/2 of 0 reads the marked row; every later image overflows
    b = exact_set([0.0, 1.0], "B")
    core = proximal_core(MARKED, LINE, b, TOL)
    f = MapSpec(["0.5 + x1*1e308*100"], LINE, b)
    got = assert_same(lambda: qualifying_pairs(f, core),
                      lambda: ref_pairs(MARKED, f, LINE, core.d_g, TOL))
    assert got[:2] == ("error", "GSpaceError") and "non-finite image at (0.0625)" in got[2]
