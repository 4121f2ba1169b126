"""The one offending-tuple rule of the kernel scans.

Every scan reads kernel rows in which RowKernels.marked puts a NaN at each
tuple where the gauge raises or is not finite.  A scan stops at the first
tuple whose comparison fails or that is marked, and evaluates only that
tuple through eval_g, which raises the scalar loop's error or gives the
witness.  Rows read whole raise through eval_g at their first marked tuple.

The marks themselves are checked against expr.evaluate, the tree
interpreter, which shares no code with the generated kernels.
"""

from __future__ import annotations

import math
import random
import re
from itertools import count, product, repeat

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_expr
from gproxim.expr import (
    Binary, EvalError, Num, Unary, Var, _gen, _nonneg, compile_row_kernels, evaluate,
    parse,
)
from gproxim.gspace import (
    ConvexStructure,
    GFunction,
    GSpaceError,
    Point,
    SampleSet,
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
from test_kernels import (
    FALSIFIED,
    GRID,
    GRID_POINTS,
    HALF,
    HALF_B,
    LAMS,
    LINE,
    NO_SUBSAMPLING,
    TOL,
    _hat,
    assert_same,
    exact,
    exact_set,
    outcome,
    ref_axiom,
    ref_banach,
    ref_convex,
    ref_core,
    ref_estimate,
    ref_pairs,
    ref_proximal,
    ref_proximal_estimate,
    ref_select,
    ref_side_condition,
)
import gproxim.expr as expr_module
import gproxim.gspace as gspace_module
import gproxim.properties as properties_module
import gproxim.solvers as solvers_module

SMALL = exact_set(GRID[::2], "S")
AVERAGE = ConvexStructure(("l*x1 + (1-l)*u1",))


def _raising(a, b, base="abs(x1-u1)"):
    """base, dividing by zero where x1 = a and u1 = b and nowhere else."""
    return GFunction(f"{base} + 0/(abs(x1 - {a!r}) + abs(u1 - {b!r}))", 1)


def _side_condition():
    # the side condition holds everywhere (every sum is 2), and g(y, s)
    # divides by zero at the last point y = (0, 1) of a_g
    g = GFunction("abs(x1-u1) + 0/(abs(x1) + abs(x2 - 1) + abs(u1) + abs(u2))", 2)
    a = SampleSet.grid([(0.0, 0.0), (0.0, 1.0)], [1, 9], name="A")
    b = SampleSet.grid([(1.0, 1.0), (0.0, 1.0)], [1, 9], name="B")
    core = proximal_core(g, a, b, TOL)
    r, s = Point((-1.0, 0.0)), Point((0.0, 0.0))
    return (lambda: check_side_condition(core, r, s, TOL),
            lambda: ref_side_condition(g, core, r, s, TOL))


def _axiom(kind):
    g = _raising(0.0, 1.0)
    return (lambda: falsify_axiom(kind, g, LINE, TOL),
            lambda: ref_axiom(kind, g, GRID_POINTS, TOL))


def _convex_two():
    # g is 0 except at (2, 3), where it divides by zero, so condition one
    # holds; H(x, y, l) = 2 + x + l*y first reaches (2, 3) at the last tuple
    # (y0, l) = (1, 1) of condition two's first row x = y = x0 = 0
    g = GFunction("0/(abs(x1 - 2) + abs(u1 - 3))", 1)
    h = ConvexStructure(("2 + x1 + l*u1",))
    return (lambda: check_convex_structure(h, g, SMALL, LAMS, TOL, NO_SUBSAMPLING),
            lambda: ref_convex(h, g, list(SMALL.points), LAMS, TOL))


def _pairs(core):
    return ref_pairs(core.g, HALF, LINE, core.d_g, TOL)


def _own_core(g, b):
    """g's own proximity core over LINE and b, at level 0; g raises at no
    tuple of LINE x b."""
    return proximal_core(g, LINE, b, TOL)


def _proximal(check):
    # the images of HALF, and the points of HALF_B, lie in [0, 1/2]
    core = _own_core(_raising(0.0, 1.0), HALF_B)
    if check:
        return (lambda: check_proximal_inequality(HALF, 0.5, 0.0, core, TOL),
                lambda: ref_proximal(core.g, _pairs(core), 0.5, 0.0, TOL))
    return (lambda: estimate_proximal_coefficient(HALF, 0.0, core, TOL),
            lambda: ref_proximal_estimate(core.g, _pairs(core), 0.0, TOL))


def _mates(select):
    # g raises at (1, 0); the image 0 of 0 is off B, so its row of mates
    # over LINE is read, and 1 is its last tuple
    core = _own_core(_raising(1.0, 0.0), exact_set([0.5], "B"))
    if select:
        return (lambda: proximal_select(core, Point((0.0,))),
                lambda: ref_select(core.g, LINE, Point((0.0,)), core.d_g, TOL))
    return lambda: qualifying_pairs(HALF, core), lambda: _pairs(core)


def _start_point():
    # g raises at (1/32, 1), off LINE x LINE: the start point 1/32 is read
    # against B = LINE, whose last point is 1
    core = _own_core(_raising(0.03125, 1.0), LINE)
    p0 = Point((0.03125,))
    return (lambda: proximal_iterate(HALF, core, p0, TOL),
            lambda: [abs(eval_g(core.g, p0, y)) for y in LINE])


# Each scan as (scan, reference), with a gauge that divides by zero only at
# the last tuple of the first row the scan reads.  On LINE under T(x) = x/2
# at level 0 the first quadruple row is (x1, u1) = (0, 0), and its last
# tuple (x2, u2) = (1, 1/2) has g(x1, x2) = g(0, 1).
SCANS = {
    "identity": lambda: _axiom("identity"),
    "symmetry": lambda: _axiom("symmetry"),
    "triangle": lambda: _axiom("triangle"),
    "banach": lambda: (
        lambda: check_banach_contraction(_raising(0.0, 1.0), HALF, 0.5, TOL),
        lambda: ref_banach(_raising(0.0, 1.0), HALF, 0.5, TOL),
    ),
    "banach-estimate": lambda: (
        lambda: estimate_coefficient(_raising(0.0, 1.0), HALF, TOL),
        lambda: ref_estimate(_raising(0.0, 1.0), HALF, TOL),
    ),
    "proximal": lambda: _proximal(check=True),
    "proximal-estimate": lambda: _proximal(check=False),
    # condition one reads abs(g(x0, x)) over x whole first: x0 = 0, x = 1
    "convex-one": lambda: (
        lambda: check_convex_structure(
            AVERAGE, _raising(0.0, 1.0), SMALL, LAMS, TOL, NO_SUBSAMPLING
        ),
        lambda: ref_convex(AVERAGE, _raising(0.0, 1.0), list(SMALL.points), LAMS, TOL),
    ),
    "convex-two": _convex_two,
    "side-condition": _side_condition,
    "core": lambda: (
        lambda: proximal_core(_raising(0.0, 1.0), LINE, SMALL, TOL),
        lambda: ref_core(_raising(0.0, 1.0), LINE, SMALL, TOL),
    ),
    "select": lambda: _mates(select=True),
    "pairs": lambda: _mates(select=False),
    "start-point": _start_point,
}


SIDES = {
    gspace_module: ("axiom_sides", "convex_condition_sides", "side_condition_sides"),
    properties_module: ("banach_sides", "proximal_sides"),
}


@pytest.mark.parametrize("name", SCANS)
def test_a_raising_tuple_is_evaluated_alone(name, monkeypatch):
    scan, reference = SCANS[name]()
    calls, sides = [], []

    def counting(g, x, y):
        calls.append((x, y))
        return eval_g(g, x, y)

    def spy(real):
        def counted(*args, **kwargs):
            sides.append(real.__name__)
            return real(*args, **kwargs)
        return counted

    for module in (gspace_module, properties_module, solvers_module):
        monkeypatch.setattr(module, "eval_g", counting)
    for module, names in SIDES.items():
        for side in names:
            monkeypatch.setattr(module, side, spy(getattr(module, side)))
    got = outcome(scan)
    monkeypatch.undo()
    assert got == outcome(reference)
    assert got[:3] == ("error", "EvalError", "division-by-zero")
    # at most one sides function call, which evaluates at most three gauge
    # values; a row read whole makes one eval_g call and no sides call
    assert len(sides) <= 1 and len(calls) <= 3, (sides, calls)


@pytest.mark.parametrize("q, first", [(1 / 16, "violation"), (7 / 16, "error")],
                         ids=["violation-before-error", "violation-after-error"])
def test_an_interpolant_raising_mid_row(q, first):
    # condition one's first row is x0 = x = 0 over (y, l), index 3j + l for
    # y = j/8: H(0, y, l) = (1 - l)*y, which is q at l = 1/2 and y = 2q, where
    # g(0, q) is 4 higher; H divides by zero at y = 1/2, l = 1/2 (index 13)
    g = GFunction(f"abs(x1-u1) + 4*{_hat('x1', 0.0)}*{_hat('u1', q)}", 1)
    h = ConvexStructure(("l*x1 + (1-l)*u1 + 0/(abs(x1) + abs(u1 - 0.5) + abs(l - 0.5))",))
    got = assert_same(
        lambda: check_convex_structure(h, g, SMALL, LAMS, TOL, NO_SUBSAMPLING),
        lambda: ref_convex(h, g, list(SMALL.points), LAMS, TOL),
    )
    if first == "violation":
        assert got[1][:2] == (FALSIFIED, {
            "x0": exact(Point((0.0,))), "x": exact(Point((0.0,))),
            "y": exact(Point((2 * q,))), "lam": exact(0.5),
        })
    else:
        assert got[:3] == ("error", "EvalError", "division-by-zero")


COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -2.5, 1e200, -1e200, 3e199, -7e199]),
    st.floats(-4.0, 4.0),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
NAMES = ("x1", "x2", "u1", "u2", "l")


def _min_max_expr(rng, depth):
    """A tree whose inner nodes are mostly min and max, over variables and
    signed literals, so that signed zeros, overflows and NaNs reach them."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.7:
            return Var(rng.choice(NAMES))
        return Num(rng.choice([0.0, -0.0, 1.0, 1e200, math.inf]))
    op = rng.choice(("min", "max", "min", "max", "add", "sub", "mul"))
    return Binary(op, _min_max_expr(rng, depth - 1), _min_max_expr(rng, depth - 1))


SIGNED = [-2.0, -1.5, -0.0, 0.5, 3.0]


def _pow_expr(rng, depth):
    """A tree whose inner nodes are mostly ^ by a literal, integral or not,
    with a base that is a signed literal, a negation or any tree, so that
    the sign of a literal and a negation reach ^; min and max meet signed
    zeros."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return Var(rng.choice(NAMES))
        return Num(rng.choice(SIGNED))
    op = rng.choice(("pow", "pow", "pow", "min", "max", "add", "mul"))
    if op != "pow":
        return Binary(op, _pow_expr(rng, depth - 1), _pow_expr(rng, depth - 1))
    base = rng.randrange(3)
    if base == 0:
        base = Num(rng.choice(SIGNED))
    elif base == 1:
        base = Unary("neg", _pow_expr(rng, depth - 1))
    else:
        base = _pow_expr(rng, depth - 1)
    return Binary("pow", base, Num(rng.choice([0.0, 2.0, 2.0, 3.0, 0.5])))


def _assert_marks(kernels, e, P, Q, bound=None):
    """marked(P, Q) against the tree interpreter, tuple by tuple; with bound
    "P" or "Q", that side is itertools.repeat of its first tuple."""
    if bound == "P":
        P = [P[0]] * len(Q)
    elif bound == "Q":
        Q = [Q[0]] * len(P)
    got_row = kernels.marked(repeat(P[0]) if bound == "P" else P,
                             repeat(Q[0]) if bound == "Q" else Q)
    assert len(got_row) == len(P)
    for p, q, got in zip(P, Q, got_row):
        try:
            want = abs(evaluate(e, dict(zip(NAMES, p + q))))
        except (ArithmeticError, ValueError):  # EvalError, or a bare error of _pow
            want = math.nan
        if math.isfinite(want):
            assert got.hex() == want.hex()
        else:
            assert math.isnan(got)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    rows=st.lists(st.tuples(COORDS, COORDS, COORDS, COORDS, COORDS), min_size=1,
                  max_size=6),
)
def test_marks_are_where_the_tree_interpreter_fails(seed, rows):
    # each gauge runs with both sides read tuple by tuple, and with the
    # left, then the right side a repeat whose coordinates are bound once;
    # eval_g and a map's apply run the same trees.  The examples repeat a
    # few dozen seeds, so every tree is drawn from the rows as well.
    rng = random.Random(f"{seed} {rows}")
    P = [row[:2] for row in rows]
    Q = [row[2:] for row in rows]
    for e in (random_expr(rng, 4), _min_max_expr(rng, 5), _pow_expr(rng, 4)):
        kernels, g, t = _compiled(e)
        for bound in (None, "P", "Q"):
            _assert_marks(kernels, e, P, Q, bound)
        _assert_scalars(e, g, t, P, Q)


_COMPILED: dict = {}


def _compiled(e):
    """The kernels of a tree, and a gauge and a map of it, compiled once per
    tree: the examples repeat their seeds.  The key is the repr, which tells
    a literal -0.0 from 0.0 where == does not."""
    key = repr(e)
    if key not in _COMPILED:
        _COMPILED[key] = (
            compile_row_kernels(e, NAMES[:2], NAMES[2:]),
            GFunction(_renamed(e, {"l": "x1"}), 2),
            MapSpec([_renamed(e, dict.fromkeys(NAMES, "x1"))], ORIGIN, ORIGIN),
        )
    return _COMPILED[key]


def _leaves(e, f):
    """e with every leaf v replaced by f(v)."""
    if isinstance(e, Unary):
        return Unary(e.op, _leaves(e.operand, f))
    if isinstance(e, Binary):
        return Binary(e.op, _leaves(e.left, f), _leaves(e.right, f))
    return f(e)


def _renamed(e, names):
    return _leaves(e, lambda v: Var(names.get(v.name, v.name)) if isinstance(v, Var) else v)


ORIGIN = SampleSet.from_points([0.0], name="O")


def _assert_scalars(e, g, t, P, Q):
    """eval_g and a map's apply against the tree interpreter, at each row
    whose coordinates make points: the signed double bit for bit (apply
    makes -0.0 0.0, as Point does), or the same typed error, kind and
    message; a value that is not finite is eval_g's non-finite EvalError
    and apply's GSpaceError.  The gauge g reads e's l as x1, and the map t,
    of dimension 1, reads every name as x1.  A row of zeros joins the rows:
    it meets min and max with equal operands of either sign most often."""
    for p, q in [*zip(P, Q), ((0.0, 0.0), (0.0, 0.0, 0.0))]:
        if not all(map(math.isfinite, p + q)):
            continue
        x, y = Point(p), Point(q[:2])
        env = dict(zip(NAMES, x.coords + y.coords))
        for run, tree, nonfinite, zero in (
            (lambda: eval_g(g, x, y), g.expr, EvalError, -0.0),  # + -0.0 keeps a sign
            (lambda: t.apply(Point(p[:1])).coords[0], t.exprs[0], GSpaceError, 0.0),
        ):
            try:
                want = evaluate(tree, env) + zero
            except EvalError as exc:
                with pytest.raises(EvalError) as info:
                    run()
                assert (info.value.kind, str(info.value)) == (exc.kind, str(exc))
                continue
            if math.isfinite(want):
                assert run().hex() == want.hex()
            else:
                with pytest.raises(nonfinite):
                    run()


# --------------------------------------------------------------------------
# the outer abs of a kernel, left out where _nonneg proves it changes nothing


def _subtrees(e):
    yield e
    if isinstance(e, Unary):
        yield from _subtrees(e.operand)
    elif isinstance(e, Binary):
        yield from _subtrees(e.left)
        yield from _subtrees(e.right)


def _abs_vars(e):
    """e with every variable v read as abs(v), so that more subtrees are
    non-negative."""
    return _leaves(e, lambda v: Unary("abs", v) if isinstance(v, Var) else v)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    rows=st.lists(st.tuples(COORDS, COORDS, COORDS, COORDS, COORDS), min_size=1,
                  max_size=4),
)
def test_a_non_negative_gauge_is_never_below_plus_zero(seed, rows):
    # every subtree _nonneg admits evaluates to a double >= +0.0 or a NaN,
    # never to -0.0, and its kernels without the outer abs mark and give
    # abs(evaluate) bit for bit; the trees are drawn from the seed and the
    # rows, since the examples repeat a few dozen seeds
    rng = random.Random(f"{seed} {rows}")
    P = [row[:2] for row in rows]
    Q = [row[2:] for row in rows]
    trees = [random_expr(rng, 4), _min_max_expr(rng, 5)]
    admitted = sorted({sub for e in trees + [_abs_vars(t) for t in trees]
                       for sub in _subtrees(e) if _nonneg(sub)}, key=repr)
    for e in admitted:
        for p, q in zip(P, Q):
            try:
                v = evaluate(e, dict(zip(NAMES, p + q)))
            except (ArithmeticError, ValueError):
                continue
            assert v != v or (v >= 0 and math.copysign(1.0, v) > 0), (repr(e), v)
    for e in sorted(admitted, key=lambda e: len(repr(e)))[-3:]:  # the largest
        kernels = compile_row_kernels(e, NAMES[:2], NAMES[2:])
        for bound in (None, "P", "Q"):
            _assert_marks(kernels, e, P, Q, bound)


@pytest.mark.parametrize("e, holds", [
    (Num(0.0), True), (Num(-0.0), False), (Num(2.5), True), (Var("x1"), False),
    (Unary("neg", Num(0.0)), False), (Unary("sqrt", Num(-0.0)), False),
    (Unary("sqrt", Unary("abs", Var("x1"))), True),
    (Binary("sub", Num(1.0), Num(0.0)), False),
    (Binary("min", Num(0.0), Unary("abs", Var("x1"))), True),
    (Binary("max", Num(-0.0), Unary("abs", Var("x1"))), False),
    (Binary("pow", Var("x1"), Num(2.0)), True),
    (Binary("pow", Var("x1"), Num(-2.0)), True),
    (Binary("pow", Var("x1"), Num(3.0)), False),
    (Binary("pow", Var("x1"), Num(0.5)), False),
    (Binary("pow", Unary("abs", Var("x1")), Var("u1")), True),
    (Binary("div", Num(1.0), Unary("abs", Var("x1"))), True),
], ids=str)
def test_nonneg_holds_only_for_the_listed_forms(e, holds):
    assert _nonneg(e) == holds


@pytest.mark.parametrize("text, outer", [
    ("x2 - u2", True),
    ("x2 - u2 + 0*x1 + sqrt(abs(x1-u1))", True),
    ("(x1-u1)^3", True),
    ("abs(x1-u1) + abs(x2-u2)", False),
    ("sqrt((x1-u1)^2 + (x2-u2)^2)", False),
    ("max(abs(x1-u1), 1/abs(x2-u2))", False),
])
def test_the_kernel_text_keeps_its_outer_abs_unless_nonneg(text, outer, monkeypatch):
    sources, real = [], expr_module._compile
    monkeypatch.setattr(expr_module, "_compile",
                        lambda src: sources.append(src) or real(src))
    e = parse(text)
    kernels = compile_row_kernels(e, NAMES[:2], NAMES[2:])
    # first_proximal reads X on both sides, which these names size apart
    first_hit = ("first_convex", "first_convex_pairs", "first_banach")
    for name in first_hit:
        getattr(kernels, name)
    fast = _gen(e, count())
    if outer:
        fast = f"abs({fast})"
    values, *loops = sources
    assert [loop.split("(")[0] for loop in loops] == [f"def {name}" for name in first_hit]
    # three variants of values: one side bound once, the other, neither;
    # each first-hit loop keeps the outer abs of its lhs as values does;
    # no text calls a helper of evaluate but _pow, and none min or max
    assert values.count(f"    return [{fast} for ") == 3
    for loop in loops:
        assert ("(_w0 := abs(" in loop) == outer
    assert not re.search(r"\b(_div|_sqrt|min|max)\(", values + "".join(loops))
    # and it gives abs(evaluate) bit for bit, or marks where evaluate raises
    P = [(-1.0, 0.5), (0.0, -0.5), (2.0, 3.0)]
    Q = [(0.5, 2.0, 0.25), (-2.0, 0.0, 0.0), (0.0, 2.0, 1.0)]
    for bound in (None, "P", "Q"):
        _assert_marks(kernels, e, P, Q, bound)


# --------------------------------------------------------------------------
# the interval bound of a kernel over a box of points (RowKernels.bound)


def _axes(rng, k, scale):
    """k grid axes of one to four points each, on multiples of scale / 8."""
    axes = []
    for _ in range(k):
        lo, step = rng.randint(-24, 24) * scale / 8, rng.randint(1, 8) * scale / 8
        axes.append([lo + i * step for i in range(rng.randint(1, 4))])
    return axes


def _proven(kernels, P_axes, Q_axes):
    """bound over the boxes of the axes, and the marked row over every pair
    of a point of the P grid and a point of the Q grid."""
    P, Q = list(product(*P_axes)), list(product(*Q_axes))
    ends = kernels.bound(*(tuple(f(a) for a in axes)
                           for axes in (P_axes, Q_axes) for f in (min, max)))
    row = kernels.marked([p for p in P for _ in Q], [q for _ in P for q in Q])
    return ends, row


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 1e200, 1e-160]))
def test_the_bound_holds_every_kernel_value_of_its_box(seed, scale):
    # a proven box holds every value the kernels give in it, and its marked
    # row holds no NaN: the scans leave such a box out only where no tuple
    # of it could be kept or raise.  Scale 1e200 reaches overflow, 1e-160
    # subnormal powers.
    rng = random.Random(seed)
    for e in (random_expr(rng, 4), _min_max_expr(rng, 4)):
        kernels = compile_row_kernels(e, NAMES[:2], NAMES[2:])
        if kernels.bound is None:
            continue
        ends, row = _proven(kernels, _axes(rng, 2, scale), _axes(rng, 3, scale))
        if ends is not None:
            lo, hi = ends
            assert all(lo <= v <= hi for v in row), (repr(e), ends, row)


def test_the_bound_proves_most_random_boxes():
    # the property above is not vacuous: most random trees get a bound, and
    # most boxes of those a proof
    compiled = proven = 0
    for seed in range(200):
        rng = random.Random(seed)
        kernels = compile_row_kernels(random_expr(rng, 4), NAMES[:2], NAMES[2:])
        if kernels.bound is not None:
            compiled += 1
            proven += _proven(kernels, _axes(rng, 2, 1.0), _axes(rng, 3, 1.0))[0] is not None
    assert compiled >= 170 and proven >= 150, (compiled, proven)


@pytest.mark.parametrize("text, box, ends", [
    ("abs(x1-u1) + abs(x2-u2)", ((0.0, 0.25), (0.0, 0.25), (1.0, 0.5), (1.0, 0.75)),
     (1.25, 1.5)),
    ("abs(x1-u1) + abs(x2-u2)", ((0.0, 0.0), (0.0, 1.0), (1.0, 0.5), (1.0, 0.5)),
     (1.0, 1.5)),
    ("x2 - u2", ((0.0, -1.0), (0.0, 2.0), (0.0, 0.5), (0.0, 0.5)), (0.0, 1.5)),
    ("x1*x2 - u1", ((-1.0, 2.0), (3.0, 4.0), (1.0, 0.0), (1.0, 0.0)), (0.0, 11.0)),
    ("u1/x1", ((1.0, 0.0), (4.0, 0.0), (-2.0, 0.0), (2.0, 0.0)), (0.0, 2.0)),
    ("u1/x1", ((-1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)), None),
    ("sqrt(x1 - u1)", ((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0)), (0.0, 1.0)),
    ("sqrt(x1 - u1)", ((0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5, 0.0)), None),
    ("x1*1e200*1e200", ((1.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0)), None),
    ("min(x1, u1) + max(x2, u2)", ((0.0, 0.0), (1.0, 1.0), (0.5, 2.0), (0.5, 3.0)),
     (2.0, 3.5)),
])
def test_the_bound_of_planted_boxes(text, box, ends):
    got = compile_row_kernels(parse(text), NAMES[:2], NAMES[2:4]).bound(*box)
    assert got == ends


def test_an_even_power_is_bounded_at_plus_zero_and_widened_elsewhere():
    bound = compile_row_kernels(parse("(x1-u1)^4"), NAMES[:1], NAMES[2:3]).bound
    lo, hi = bound((0.0,), (3.0,), (1.0,), (1.0,))
    assert lo == 0.0 and 16.0 < hi < 16.0 + 1e-13
    lo, hi = bound((2.0,), (3.0,), (0.0,), (0.0,))
    assert 16.0 - 1e-13 < lo < 16.0 and 81.0 < hi < 81.0 + 1e-13
    # a square is the product, which rounds correctly: its ends are exact
    bound = compile_row_kernels(parse("(x1-u1)^2"), NAMES[:1], NAMES[2:3]).bound
    assert bound((0.0,), (3.0,), (1.0,), (1.0,)) == (0.0, 4.0)
    assert bound((2.0,), (3.0,), (0.0,), (0.0,)) == (4.0, 9.0)
    assert bound((-3.0,), (-2.0,), (0.0,), (0.0,)) == (4.0, 9.0)
    # so two parallel segments a distance 1 apart are bounded at exactly 1
    bound = compile_row_kernels(parse("sqrt((x1-u1)^2 + (x2-u2)^2)"), NAMES[:2], NAMES[2:4]).bound
    assert bound((0.0, 0.5), (0.0, 0.5625), (1.0, 0.5), (1.0, 0.5625))[0] == 1.0


@pytest.mark.parametrize("base", [-1.0, -0.0, -2.5])
def test_a_negative_literal_base_is_raised_to_its_power(base):
    # the parser writes no negative literal, but a tree built by hand may
    # hold one; the kernels and the bound read it as one operand
    e = Binary("add", Binary("pow", Num(base), Num(2.0)), Var("x1"))
    kernels = compile_row_kernels(e, NAMES[:1], NAMES[2:3])
    (value,) = kernels.values([(0.5,)], [(0.0,)])
    assert value.hex() == abs(evaluate(e, {"x1": 0.5})).hex()
    lo, hi = kernels.bound((0.5,), (0.5,), (0.0,), (0.0,))
    assert lo <= value <= hi


@pytest.mark.parametrize("text", ["x1^0.5", "x1^u1", "x1^(-2)", "x1 + 1e999"])
def test_a_gauge_the_bound_cannot_follow_has_none(text):
    assert compile_row_kernels(parse(text), NAMES[:2], NAMES[2:]).bound is None
