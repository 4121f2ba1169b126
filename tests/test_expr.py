import math
import random
from itertools import cycle, repeat

import pytest
from hypothesis import given, settings, strategies as st

from conftest import OracleError, oracle_eval, random_env, random_expr, rel_close
from gproxim.expr import (
    MAX_DEPTH,
    Binary,
    EvalError,
    Num,
    ParseError,
    Unary,
    Var,
    _depth,
    compile_expr,
    compile_point_rows,
    compile_row_kernels,
    evaluate,
    format_expr,
    mirror_sign,
    parse,
    variables,
)


def test_parse_square_difference():
    e = parse("x1^2 - u1^2")
    assert e == Binary(
        "sub",
        Binary("pow", Var("x1"), Num(2.0)),
        Binary("pow", Var("u1"), Num(2.0)),
    )


def test_parse_min_call():
    assert parse("min(x2, u2)") == Binary("min", Var("x2"), Var("u2"))


def test_parse_parens_are_transparent():
    assert parse("((x1))") == parse("x1") == Var("x1")


def test_precedence_pow_binds_tighter_than_neg():
    assert parse("-x1^2") == Unary("neg", Binary("pow", Var("x1"), Num(2.0)))


def test_pow_right_associative():
    assert parse("2^3^2") == Binary(
        "pow", Num(2.0), Binary("pow", Num(3.0), Num(2.0))
    )
    assert evaluate(parse("2^3^2"), {}) == 512.0


def test_mul_binds_tighter_than_add():
    assert evaluate(parse("1 + 2*3"), {}) == 7.0


def test_signed_exponent():
    assert evaluate(parse("2^-2"), {}) == 0.25


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x1 +", 4),
        ("(x1", 3),
        ("min(x1)", 6),
        ("x1 x2", 3),
        ("x1 $ 2", 3),
    ],
)
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset
    assert "expected" in str(err.value)


def test_parse_empty_is_an_error():
    with pytest.raises(ParseError):
        parse("   ")


@pytest.mark.parametrize("text", [
    "min(u1, " * 63 + "x1" + ")" * 63,  # two parentheses per level of the text
    "x1" + "+1" * 63,
    "-" * 63 + "x1",
    "x1" + "^1" * 63,
    "(" * 63 + "x1" + ")^2" * 63,  # three parentheses per level of the text
], ids=["min", "sum", "neg", "pow", "square"])
def test_the_deepest_expression_compiles_in_every_form(text):
    e = parse(text)
    assert _depth(e) == MAX_DEPTH
    assert parse(format_expr(e)) == e
    env = {"x1": 0.5, "u1": 2.0}
    want = evaluate(e, env)
    assert compile_expr(e, ("x1", "u1"))(0.5, 2.0) == want
    kernels = compile_row_kernels(e, ("x1",), ("u1",))
    w = abs(want)
    assert kernels.values([(0.5,)], [(2.0,)]) == [w]
    assert kernels.band(repeat((0.5,)), [(2.0,)], w, 0.0) == ([0], -1)
    # each term of the banach loops is w, each of the proximal loops, all
    # at (0.5, 0.5), the same finite value, its numerator under N = 1 zero
    p, Q, x, X = (0.5,), [(2.0,)], (0.5,), [(0.5,)]
    assert kernels.first_banach(p, Q, p, Q, 1.0, 0.0) == -1
    assert kernels.fold_banach(p, Q, p, Q, 1.0, 0.0, 0.0, 1e-9) == (float(w > 1e-9), -1, -1)
    assert kernels.first_proximal(x, X, x, X, 1.0, 0.0, 0.0) == -1
    assert kernels.fold_proximal(x, X, x, X, 1.0, 1.0, 0.0, 0.0, 1e-9) == (0.0, -1, -1)
    for loop in (kernels.first_convex, kernels.lean_convex):
        assert loop(p, Q, [w], [0.0], 0.0) == -1
    for loop in (kernels.first_convex_pairs, kernels.lean_convex_pairs):
        assert loop([(0.5,)], [(2.0,)], cycle([0.0]), [w], 0.0) == -1
    # the axiom loops: w is above -inf and not above itself; the mirror
    # value may raise, which fails the symmetry loop's tuple as NaN would
    try:
        mirror = abs(evaluate(e, {"x1": 2.0, "u1": 0.5}))
    except EvalError:
        mirror = math.nan
    assert kernels.first_level(p, Q, -math.inf) == -1
    assert kernels.first_level(p, Q, w) == 0
    assert kernels.first_symmetry(p, Q, 0.0) == (-1 if w == mirror else 0)
    kernels.bound
    rows = compile_point_rows((e,), ("x1",), ("u1",), "l")
    assert rows((0.5,), [(2.0,)], [0.0]) == [(want + 0.0,)]


@pytest.mark.parametrize("text, offset", [
    ("min(u1, " * 64 + "x1" + ")" * 64, 0),
    ("x1" + "+1" * 64, 0),
    ("x1" + "+1" * 1200, 0),
    ("-" * 64 + "x1", 0),
    ("x1" + "^1" * 64, 0),
    ("-" * 1000 + "x1", 2 * MAX_DEPTH),
    ("(" * 1000 + "x1" + ")" * 1000, 2 * MAX_DEPTH),
], ids=["min", "sum", "long-sum", "neg", "pow", "long-neg", "parentheses"])
def test_an_expression_deeper_than_the_limit_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset
    assert err.value.expected == f"an expression at most {MAX_DEPTH} levels deep"


def test_eval_examples():
    assert evaluate(parse("x1^2 - u1^2"), {"x1": 1, "u1": 2}) == -3.0
    assert evaluate(parse("x1*u1"), {"x1": 0.5, "u1": 0}) == 0.0
    assert evaluate(parse("x1 - u1 + 0.5"), {"x1": 1, "u1": 1}) == 0.5


@pytest.mark.parametrize(
    "text,env,kind",
    [
        ("x1 + u9", {"x1": 1}, "unbound-variable"),
        ("x1 / u1", {"x1": 1, "u1": 0}, "division-by-zero"),
        ("sqrt(x1)", {"x1": -4}, "sqrt-of-negative"),
        ("x1 ^ 0.5", {"x1": -4}, "fractional-power-of-negative"),
        ("0 ^ x1", {"x1": -1}, "division-by-zero"),
    ],
)
def test_eval_error_kinds(text, env, kind):
    with pytest.raises(EvalError) as err:
        evaluate(parse(text), env)
    assert err.value.kind == kind


def test_format_canonical_examples():
    assert format_expr(parse("x1^2 - u1^2")) == "((x1^2)-(u1^2))"
    assert format_expr(parse("min(x2,u2)")) == "min(x2,u2)"
    assert format_expr(parse("-x1")) == "(-x1)"
    assert str(Num(2.5)) == "2.5"
    assert str(Num(3.0)) == "3"


@pytest.mark.parametrize(
    "text", ["x1^2 - u1^2", "min(x2,u2)", "-x1", "abs(x1-u1) + 0*1e999"]
)
def test_format_round_trips(text):
    # a literal past the double range reads as inf and prints as 1e999
    e = parse(text)
    assert parse(format_expr(e)) == e


def test_variables():
    assert variables(parse("min(x1, u2) + l")) == {"x1", "u2", "l"}
    assert variables(Num(1.0)) == frozenset()


def test_eval_is_deterministic():
    e = parse("sqrt(x1^2 + u1^2) / (x1 + 0.5)")
    env = {"x1": 0.7, "u1": 1.3}
    assert evaluate(e, env) == evaluate(e, env)


def test_compile_matches_evaluate():
    e = parse("min(x1, u1) * max(x1, 2) - sqrt(abs(u1))")
    fn = compile_expr(e, ("x1", "u1"))
    for x, u in [(0.5, 4.0), (-1.0, 9.0), (2.0, 0.0)]:
        assert fn(x, u) == evaluate(e, {"x1": x, "u1": u})


@pytest.mark.parametrize(
    "text",
    ["abs(x1-u1) + 1/1e999", "abs(x1-u1) + 0*1e999", "1e999", "x1 - 1e999",
     "min(1e999, x1) * u1"],
)
def test_literals_beyond_a_double_compile_to_what_evaluate_returns(text):
    # 1e999 overflows to inf; the generated code must name that value too
    e = parse(text)
    scalar = compile_expr(e, ("x1", "u1"))
    kernels = compile_row_kernels(e, ("x1",), ("u1",))
    for x, u in [(1.0, 0.0), (-2.0, 0.5)]:
        want = evaluate(e, {"x1": x, "u1": u})
        assert repr(scalar(x, u)) == repr(want)
        assert repr(kernels.values([(x,)], [(u,)])[0]) == repr(abs(want))


@pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
def test_a_negative_base_to_a_non_finite_power_is_one_error_everywhere(exponent):
    # a non-finite exponent is not an integer, so every evaluator raises the
    # fractional-power error, and a kernel row marks the tuple
    e = parse("(0-2) ^ x1")
    scalar = compile_expr(e, ("x1", "u1"))
    kernels = compile_row_kernels(e, ("x1",), ("u1",))
    errors = []
    for run in (
        lambda: evaluate(e, {"x1": exponent, "u1": 0.0}),
        lambda: scalar(exponent, 0.0),
        lambda: kernels.values([(exponent,)], [(0.0,)]),
    ):
        with pytest.raises(EvalError) as err:
            run()
        errors.append((err.value.kind, str(err.value)))
    message = f"fractional-power-of-negative: -2.0 ^ {exponent!r}"
    assert errors == [("fractional-power-of-negative", message)] * 3
    assert math.isnan(kernels.marked([(exponent,)], [(0.0,)])[0])

def test_compile_rejects_unbound():
    with pytest.raises(EvalError):
        compile_expr(parse("x1 + u1"), ("x1",))


def _python_eval(text: str, env: dict[str, float]) -> float:
    source = text.replace("^", "**")
    return eval(  # noqa: S307 (test oracle on generated input)
        source, {"min": min, "max": max, "abs": abs, "sqrt": math.sqrt}, dict(env)
    )


def test_random_roundtrip_and_oracle_agreement():
    # 1000 seeded trees of depth at most 6: parse(format) is the identity and
    # evaluation agrees with the independent oracle to relative 1e-12.
    rng = random.Random(20260809)
    checked_values = 0
    for _ in range(1000):
        e = random_expr(rng, 6)
        assert parse(format_expr(e)) == e
        env = random_env(rng)
        try:
            ours = evaluate(e, env)
            failed = None
        except EvalError as err:
            ours, failed = None, err.kind
        try:
            ref = oracle_eval(e, env)
            ref_failed = None
        except OracleError as err:
            ref, ref_failed = None, err.kind
        assert failed == ref_failed, format_expr(e)
        if failed is None:
            checked_values += 1
            if math.isfinite(ours):
                assert rel_close(ours, ref), format_expr(e)
                py = _python_eval(format_expr(e), env)
                assert rel_close(ours, py), format_expr(e)
    assert checked_values > 500  # the generator mostly produces evaluable trees


# The mirror proof: mirror_sign(e) is 1 when e with x1, x2 and u1, u2
# exchanged gives e's double, -1 when it gives -e, and None unproven.
@pytest.mark.parametrize("text, sign", [
    ("x1*u1", 1), ("x1 + u1", 1), ("x2 - u2", -1), ("u1 - x1", -1), ("3", 1),
    ("(x1+u2)*(x2+u1)", 1), ("x1*u1 - u1*x1", 1), ("(x1 - 2*u1) - (u1 - 2*x1)", -1),
    ("x1^u1 * u1^x1", 1),
    ("min(x1,u1) + min(u1,x1)", 1), ("abs(min(x1, 3) - min(u1, 3))", 1),
    ("-(x1-u1)", -1), ("abs(x1-u1)", 1), ("(x1-u1)*3", -1), ("(x1-u1)/(x2-u2)", 1),
    ("(x1-u1) + (x2-u2)", -1), ("(x1-u1)^2", 1), ("(x1-u1)^(2*x1*u1)", None),
    ("0.5*abs(x1-u1)", 1), ("3*sqrt((x1-u1)^2)", 1), ("abs(x1-u1) + abs(x2-u2)", 1),
    ("max(abs(x1-u1), abs(x2-u2))", 1), ("sqrt((x1-u1)^2 + (x2-u2)^2)", 1),
    ("min(x1,u1)", None), ("max(x2,u2)", None), ("x1 - 2*u1", None),
    ("sqrt(x1-u1)", None), ("(x1-u1)^3", None), ("(x2-u2)^1", None), ("x1", None),
    ("x1 - u2", None), ("abs(x1-u1) + (x1-u1)", None), ("min(x1-u1, u1-x1)", None),
    ("(x1-u1)^(x2-u2)", None), ("abs(x1-u1) + 0*x1", None),
], ids=str)
def test_mirror_sign_proves_only_the_listed_forms(text, sign):
    assert mirror_sign(parse(text)) == sign


SWAP = {"x1": "u1", "x2": "u2", "u1": "x1", "u2": "x2"}


def _renamed(e, names):
    """e with each variable v read as names.get(v, v)."""
    if isinstance(e, Var):
        return Var(names.get(e.name, e.name))
    if isinstance(e, Unary):
        return Unary(e.op, _renamed(e.operand, names))
    if isinstance(e, Binary):
        return Binary(e.op, _renamed(e.left, names), _renamed(e.right, names))
    return e


def _gauge(rng):
    """A conftest.random_expr tree over x1, x2, u1 and u2: l reads x1."""
    return _renamed(random_expr(rng, 3), {"l": "x1"})


def _proven_trees(rng):
    """Random gauges and, since few random trees are proven, nodes over a
    tree and its mirror and nodes over those, kept where mirror_sign proves
    them."""
    pool = [_gauge(rng) for _ in range(4)]
    pool += [Binary(rng.choice(("add", "sub", "mul", "min", "max")), a, _renamed(a, SWAP))
             for a in pool]
    for _ in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        pool.append(Unary(rng.choice(("neg", "abs", "sqrt")), a) if rng.random() < 0.3
                    else Binary(rng.choice(("add", "sub", "mul", "div", "pow", "min", "max")),
                                a, Num(2.0) if rng.random() < 0.2 else b))
    return [e for e in pool if mirror_sign(e) is not None]


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                           1e-310, -3e-310, 1e200, -1e200, 1.0, -2.5])
COORD = st.one_of(SPECIAL, st.floats(-4.0, 4.0))


def _outcome(run):
    """run()'s double, or "raises" for an EvalError or a bare arithmetic
    error of the kernel text."""
    try:
        return run()
    except (ArithmeticError, ValueError):
        return "raises"


def _same(got, want) -> bool:
    return got == want or (got != got and want != want)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       rows=st.lists(st.tuples(COORD, COORD, COORD, COORD), min_size=1, max_size=4))
def test_a_proven_gauge_gives_the_same_abs_under_the_swap(seed, rows):
    # each proven tree, at (p, q) and at (q, p): evaluate gives e, or -e
    # for the sign -1 (== takes -0.0 for 0.0), or NaN for NaN, or raises at
    # both; the values kernel gives the same abs or raises at both
    rng = random.Random(f"{seed} {rows}")
    names = ("x1", "x2", "u1", "u2")
    for e in _proven_trees(rng):
        sign = mirror_sign(e)
        kernels = compile_row_kernels(e, names[:2], names[2:])
        for row in rows:
            p, q = row[:2], row[2:]
            there = _outcome(lambda: evaluate(e, dict(zip(names, p + q))))
            back = _outcome(lambda: evaluate(e, dict(zip(names, q + p))))
            if "raises" in (there, back):
                assert there == back, (str(e), row)
            else:
                assert _same(back, sign * there), (str(e), row)
            there = _outcome(lambda: kernels.values([p], [q])[0])
            back = _outcome(lambda: kernels.values([q], [p])[0])
            assert there == back == "raises" or _same(back, there), (str(e), row)
