"""x^2 is the correctly rounded product x*x in every form of the DSL.

libm pow need not round correctly.  glibc 2.36's does not at some midpoints
of two doubles: the exact square of the odd integer 134212731 needs 54
bits, and pow gives 0x1.fff63d8be818dp+53 where the product, rounded to
even, is 0x1.fff63d8be818cp+53.  The other two inputs come from the same
search, over odd integers whose square lies in [2^53, 2^54).  Every form
below must give the product's double, on any libm, and the interval bound
must hold it.

The module needs no pytest, so that interpreters without it can run it:
import it and call each test_ function.
"""

from __future__ import annotations

import math

from gproxim.expr import (
    EvalError, compile_expr, compile_point_rows, compile_row_kernels, evaluate, parse,
)
from gproxim.gspace import GFunction, Point, _gauge_row

MIDPOINTS = [134212731.0, 134217723.0, 94906297.0]
SQUARES = ["x1^2", "(x1 - u1)^2"]  # a base read twice, and one bound once


def _forms(text, x):
    """The doubles of text at x1 = x, u1 = 0 from each compiled form, with
    the bound of the row kernels over that one point."""
    e = parse(text)
    kernels = compile_row_kernels(e, ("x1",), ("u1",))
    P, Q = [(x,)], [(0.0,)]
    rows = compile_point_rows([e], ("u1",), ("x1",), "l")((0.0,), P, [0.5])
    return {
        "evaluate": evaluate(e, {"x1": x, "u1": 0.0}),
        "scalar": compile_expr(e, ("x1", "u1"))(x, 0.0),
        "values": kernels.values(P, Q)[0],
        "marked": kernels.marked(P, Q)[0],
        "point rows": rows[0][0],
    }, kernels


def _raised(fn, *args):
    try:
        fn(*args)
    except EvalError as exc:
        return exc.kind, str(exc)
    raise AssertionError(f"{fn} raised no EvalError")


def test_a_square_at_a_midpoint_is_the_product_in_every_form():
    for text in SQUARES:
        for x in MIDPOINTS + [-x for x in MIDPOINTS]:
            square = x * x
            got, kernels = _forms(text, x)
            assert {form: v.hex() for form, v in got.items()} == dict.fromkeys(
                got, square.hex())
            # a first-hit loop's lhs is at most the square, and more than
            # the double below it
            loop = kernels.first_convex_pairs
            assert loop([(x,)], [(0.0,)], [square], [0.0], 0.0) == -1
            assert loop([(x,)], [(0.0,)], [math.nextafter(square, 0.0)], [0.0], 0.0) == 0
            assert kernels.bound((x,), (x,), (0.0,), (0.0,)) == (square, square)
            lo, hi = kernels.bound((x - 2.0,), (x + 2.0,), (0.0,), (0.0,))
            assert lo <= square <= hi


def test_a_square_that_overflows_raises_as_pow_does():
    for text in SQUARES:
        e = parse(text)
        scalar = compile_expr(e, ("x1", "u1"))
        kernels = compile_row_kernels(e, ("x1",), ("u1",))
        rows = compile_point_rows([e], ("u1",), ("x1",), "l")
        g = GFunction(e, 1)
        for x in (1e200, -1e200):
            want = ("non-finite", f"non-finite: {x!r} ^ 2.0 overflows")
            assert _raised(evaluate, e, {"x1": x, "u1": 0.0}) == want
            assert _raised(scalar, x, 0.0) == want
            P, Q = [(1.0,), (x,), (2.0,)], [(0.0,)] * 3
            assert [math.isnan(v) for v in kernels.marked(P, Q)] == [False, True, False]
            assert _raised(_gauge_row, g, [Point(p) for p in P], Point((0.0,))) == want
            assert kernels.first_convex_pairs(P, Q, [1e300] * 3, [0.0] * 3, 0.0) == 1
            assert kernels.bound((min(x, 1.0),), (max(x, 1.0),), (0.0,), (0.0,)) is None
            assert rows((0.0,), P, [0.5]) == [(1.0,)]


def test_a_square_keeps_the_sign_of_zero_nan_and_inf():
    # marked marks a value that is not finite
    for text in SQUARES:
        got, _ = _forms(text, -0.0)
        assert {form: v.hex() for form, v in got.items()} == dict.fromkeys(got, "0x0.0p+0")
        for x in (math.inf, -math.inf):
            got, _ = _forms(text, x)
            assert math.isnan(got.pop("marked"))
            assert set(got.values()) == {math.inf}
        got, _ = _forms(text, math.nan)
        assert all(math.isnan(v) for v in got.values())
