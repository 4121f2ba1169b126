"""Arithmetic expression DSL for gauge functions, maps and convex structures.

Grammar (EBNF, also documented in the README):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | IDENT | call | "(" expr ")"
    call   := ("min" | "max") "(" expr "," expr ")"
            | ("abs" | "sqrt") "(" expr ")"
    NUMBER := DIGIT+ ("." DIGIT+)? (("e" | "E") ("+" | "-")? DIGIT+)?

Precedence, tightest first: "^" (right associative), unary "-", "*" and "/",
then "+" and "-".  Variables follow the coordinate convention of the rest of
the library: x1..xd name the first point's coordinates, u1..ud the second
point's, and l the interpolation parameter of a convex structure.  A tree is
at most MAX_DEPTH levels deep, and parentheses, calls, "-" and "^" nest at
most 2 * MAX_DEPTH levels.

Expression trees are immutable and evaluation is pure, so parsed expressions
are safe to share across threads.  Canonical trees keep numeric literals
non-negative (a leading minus parses as a neg node), which is what makes
``parse(format_expr(e)) == e`` hold structurally.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import count, repeat
from operator import length_hint
from textwrap import indent
from typing import (
    Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union,
)

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "format_expr",
    "compile_expr",
    "compile_row_kernels",
    "compile_point_rows",
    "compile_iteration",
    "RowKernels",
    "variables",
    "mirror_sign",
]

VarEnv = Mapping[str, float]


class ParseError(ValueError):
    """Syntax error with the byte offset and an expected-token hint."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected {expected}, found {found}"
        )


class EvalError(ArithmeticError):
    """Evaluation error carrying a machine-readable kind.

    Kinds: "unbound-variable", "division-by-zero", "sqrt-of-negative",
    "fractional-power-of-negative", "non-finite".
    """

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        super().__init__(f"{kind}: {detail}")


@dataclass(frozen=True)
class Num:
    value: float

    def __str__(self) -> str:
        v = self.value
        if math.isinf(v):  # 1e999 parses back to the same double
            return "1e999" if v > 0 else "-1e999"
        if abs(v) < 1e16 and v == int(v):
            return str(int(v))
        return repr(v)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "abs" | "sqrt"
    operand: "Expr"

    def __str__(self) -> str:
        if self.op == "neg":
            return f"(-{self.operand})"
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div" | "pow" | "min" | "max"
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.left},{self.right})"
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[self.op]
        return f"({self.left}{sym}{self.right})"


Expr = Union[Num, Var, Unary, Binary]

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# A generated text opens at most three parentheses per level of the tree,
# for a ^ 2, and Python compiles at most 200 nested ones.
MAX_DEPTH = 64
_DEEP = f"an expression at most {MAX_DEPTH} levels deep"

_CALLS_2 = ("min", "max")
_CALLS_1 = ("abs", "sqrt")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | one of "-+*/^()," | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(m.start(), "a token", repr(m.group()))
        if kind == "op":
            tokens.append(_Token(m.group(), m.group(), m.start()))
        else:
            tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("end", "end of input", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.level = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, expected, repr(tok.text))
        return self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = Binary("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = Binary("mul" if op == "*" else "div", node, self.unary())
        return node

    def unary(self) -> Expr:
        # every nested construct comes through here, so this bounds the
        # recursion; the canonical text of a tree within MAX_DEPTH nests at
        # most two levels per node, a parenthesis and a "-" or "^"
        tok = self.peek()
        if self.level == 2 * MAX_DEPTH:
            raise ParseError(tok.pos, _DEEP, repr(tok.text))
        self.level += 1
        if tok.kind == "-":
            self.advance()
            node: Expr = Unary("neg", self.unary())
        else:
            node = self.power()
        self.level -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Binary("pow", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in _CALLS_2:
                self.expect("(", "'('")
                left = self.expr()
                self.expect(",", "','")
                right = self.expr()
                self.expect(")", "')'")
                return Binary(tok.text, left, right)
            if tok.text in _CALLS_1:
                self.expect("(", "'('")
                operand = self.expr()
                self.expect(")", "')'")
                return Unary(tok.text, operand)
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        raise ParseError(tok.pos, "a number, variable, call or '('", repr(tok.text))


def parse(text: str) -> Expr:
    """Parse an expression string into its unique tree under the grammar."""
    if not text or not text.strip():
        raise ParseError(0, "a non-empty expression", "empty input")
    parser = _Parser(text)
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(tail.pos, "end of input", repr(tail.text))
    depth = _depth(node)
    if depth > MAX_DEPTH:
        raise ParseError(0, _DEEP, f"one {depth} levels deep")
    return node


def _depth(e: Expr) -> int:
    """The number of nodes on the longest path from e down to a leaf,
    counted one level of the tree at a time, with no recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [kid for n in level if isinstance(n, (Unary, Binary))
                 for kid in ((n.operand,) if isinstance(n, Unary) else (n.left, n.right))]
    return depth


def format_expr(e: Expr) -> str:
    """Canonical fully parenthesised text; parse(format_expr(e)) equals e."""
    return str(e)


def variables(e: Expr) -> frozenset[str]:
    """The set of variable names referenced by the expression."""
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables(e.operand)
    return variables(e.left) | variables(e.right)


def _pow(a: float, b: float) -> float:
    if b == 2.0 and (square := a * a) < math.inf:  # rounds correctly; pow need not
        return square
    if a == 0.0 and b < 0.0:
        raise EvalError("division-by-zero", f"0 ^ {b!r}")
    if a < 0.0 and not float(b).is_integer():  # inf and nan are not integers
        raise EvalError("fractional-power-of-negative", f"{a!r} ^ {b!r}")
    try:
        return a ** b
    except OverflowError:
        raise EvalError("non-finite", f"{a!r} ^ {b!r} overflows") from None


def evaluate(e: Expr, env: VarEnv) -> float:
    """Evaluate under IEEE double arithmetic; min/max are exact comparisons.

    Every variable must be bound in env; an unbound name is an error, never
    an implicit zero.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvalError("unbound-variable", e.name) from None
    if isinstance(e, Unary):
        v = evaluate(e.operand, env)
        if e.op == "neg":
            return -v
        if e.op == "abs":
            return abs(v)
        if v < 0.0:
            raise EvalError("sqrt-of-negative", f"sqrt({v!r})")
        return math.sqrt(v)
    left = evaluate(e.left, env)
    if e.op == "min":
        return min(left, evaluate(e.right, env))
    if e.op == "max":
        return max(left, evaluate(e.right, env))
    right = evaluate(e.right, env)
    if e.op == "add":
        return left + right
    if e.op == "sub":
        return left - right
    if e.op == "mul":
        return left * right
    if e.op == "div":
        if right == 0.0:
            raise EvalError("division-by-zero", f"{left!r} / 0")
        return left / right
    return _pow(left, right)


def _gen(e: Expr, temps: Iterator[int], names: Optional[Mapping[str, str]] = None) -> str:
    """Python text of e over its variable names, each v written names[v]
    when names is given: the one text that every compiled form of e runs.

    It evaluates operands left to right, in evaluate's order.  It writes
    sqrt, / and ^ by a finite integral literal as the bare operations, which
    give evaluate's double and raise a bare ValueError, ZeroDivisionError or
    OverflowError on exactly the inputs where evaluate raises its EvalError.
    Any other ^ calls evaluate's _pow: a negative base with a fractional
    exponent would give a complex number instead of raising.  It writes
    A ^ 2 as (s if (s := (a := A)*a) < inf else a**2.0), the correctly
    rounded product that _pow returns, falling back to ** where the product
    is not finite: an overflow raises there, NaN stays NaN and an infinite
    base gives inf.  It writes min(A, B) as (b if (a := A) > (b := B) else
    a), and max with <, which is what the builtins return for floats, NaN
    and signed zeros included: min replaces its first argument only when B
    < A.  The temporaries a, b and s are named _t0, _t1, ... from temps, so
    one text never binds a name twice; a side that is a variable or a
    literal is read twice instead.
    """
    if isinstance(e, Num):  # a minus sign in parentheses: -1.0**2.0 is -1.0
        return repr(e.value) if math.copysign(1.0, e.value) > 0 else f"({e.value!r})"
    if isinstance(e, Var):
        return names[e.name] if names else e.name
    if isinstance(e, Unary):
        inner = _gen(e.operand, temps, names)
        if e.op == "neg":
            return f"(-{inner})"
        return f"{e.op}({inner})"  # abs or sqrt
    left, right = _gen(e.left, temps, names), _gen(e.right, temps, names)
    if e.op in ("min", "max"):
        a, b = (
            text if isinstance(side, (Num, Var)) else f"_t{next(temps)}"
            for side, text in ((e.left, left), (e.right, right))
        )
        test = ">" if e.op == "min" else "<"
        bind_a = a if a == left else f"({a} := {left})"
        bind_b = b if b == right else f"({b} := {right})"
        return f"({b} if {bind_a} {test} {bind_b} else {a})"
    if _square(e):
        a = left if isinstance(e.left, (Num, Var)) else f"_t{next(temps)}"
        bind_a, s = (a if a == left else f"({a} := {left})"), f"_t{next(temps)}"
        return f"({s} if ({s} := {bind_a}*{a}) < inf else {a}**2.0)"
    if e.op == "pow" and not (isinstance(e.right, Num)
                              and float(e.right.value).is_integer()):
        return f"_pow({left},{right})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "**"}[e.op]
    return f"({left}{sym}{right})"


def _nonneg(e: Expr) -> bool:
    """True when every double e evaluates to is >= +0.0 or NaN, never -0.0,
    so that abs(e) is the same double as e.

    Holds for abs, a literal with a clear sign bit, sqrt of a non-negative
    operand, + * / min max of two non-negative operands, and ^ with a
    non-negative base or an even integral literal exponent; never for a
    variable, - or negation.
    """
    if isinstance(e, Num):
        return math.copysign(1.0, e.value) > 0
    if isinstance(e, Var):
        return False
    if isinstance(e, Unary):
        return e.op == "abs" or (e.op == "sqrt" and _nonneg(e.operand))
    if e.op == "pow":
        return _nonneg(e.left) or _even(e.right)
    return e.op != "sub" and _nonneg(e.left) and _nonneg(e.right)


def _even(e: Expr) -> bool:
    """e is an even integral literal."""
    return isinstance(e, Num) and float(e.value).is_integer() and e.value % 2 == 0


def _square(e: Expr) -> bool:
    """e is a ^ by the literal 2."""
    return isinstance(e, Binary) and e.op == "pow" and e.right == Num(2.0)


def _canon(e: Expr, swap: bool = False) -> str:
    """A text that two trees share exactly when they are equal up to the
    order of the operands of each + and *; with swap, of e with its names
    xK and uK exchanged."""
    if isinstance(e, Var):
        v = e.name
        if swap and v[1:].isdigit():
            return {"x": "u", "u": "x"}.get(v[0], v[0]) + v[1:]
        return v
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Unary):
        return f"{e.op}({_canon(e.operand, swap)})"
    sides = [_canon(e.left, swap), _canon(e.right, swap)]
    if e.op in ("add", "mul"):
        sides.sort()
    return f"{e.op}({sides[0]},{sides[1]})"


def mirror_sign(e: Expr) -> Optional[int]:
    """1 when e with its names xK and uK exchanged evaluates, on every
    input, to the double e evaluates to, and -1 when to -e, each up to the
    sign of a zero and with NaN for NaN, raising on the same inputs; None
    when it cannot prove either.  So abs(g(y, x)) is abs(g(x, y)) bit for
    bit for a gauge g proven either way, and marked at the same tuples.

    Holds for a literal; the product of the signs through * and /, one
    sign through neg, + and - of two operands of that sign; 1 through abs,
    sqrt of 1, min and max of two 1s, ^ of two 1s or by an even integral
    literal.  Failing those, a + b, a * b (1) or a - b (-1) with b equal to
    a mirrored, up to the order of + and * operands, since + and * commute.
    A zero's sign changes no magnitude and no raise of any operation here.
    Never min or max of mirrored operands: min(NaN, 1) is NaN and min(1,
    NaN) is 1.
    """
    if isinstance(e, Num):
        return 1
    if isinstance(e, Var):
        return None
    if isinstance(e, Unary):
        s = mirror_sign(e.operand)
        if e.op == "neg" or s is None:
            return s
        return 1 if e.op == "abs" or s == 1 else None
    a, b = mirror_sign(e.left), mirror_sign(e.right)
    if e.op == "pow":
        return 1 if a == b == 1 or (a and _even(e.right)) else None
    if a and b:
        if e.op in ("mul", "div"):
            return a * b
        if a == b and (a == 1 or e.op in ("add", "sub")):
            return a
    if e.op in ("add", "sub", "mul") and _canon(e.left, True) == _canon(e.right):
        return -1 if e.op == "sub" else 1
    return None


_POW_ULPS = 4  # how far bound widens each end of a ^ other than ^ 2: pow need not round correctly


def _outward(end: str, way: str) -> str:
    """The text of the double _POW_ULPS steps from end towards way + "inf"."""
    return "nextafter(" * _POW_ULPS + end + f", {way}inf)" * _POW_ULPS


def _bound_gen(
    e: Expr, temps: Iterator[int], lines: list[str]
) -> Optional[tuple[str, str]]:
    """The texts of e's lower and upper ends over a box, where a variable v
    ranges over [_L_v, _H_v]; lines gets the statements binding the ends of
    each inner node as temporaries _lK and _hK.  None when e holds a ^ other
    than by a non-negative integral literal, or a non-finite literal.

    The kernel's + - * / and sqrt round correctly, so they are monotone, and
    each end computed from the operands' ends bounds the kernel's doubles
    (for * and / the least and greatest of the four corners).  So does its
    ^ 2, the product of the base with itself, whose ends are the squares of
    the base's ends, or 0.0 where the base's range holds 0.  pow need not
    round correctly, so the ends of any other ^ are widened by _outward.  A
    statement returns None where the kernel could raise: a divisor range
    holding 0, or sqrt of a range reaching below 0.
    """
    if isinstance(e, Num):
        return (f"({e.value!r})",) * 2 if math.isfinite(e.value) else None
    if isinstance(e, Var):
        return f"_L_{e.name}", f"_H_{e.name}"
    if isinstance(e, Binary) and e.op == "pow":
        n = e.right
        if not (isinstance(n, Num) and n.value >= 0 and float(n.value).is_integer()):
            return None
    ends = [_bound_gen(side, temps, lines) for side in (
        (e.operand,) if isinstance(e, Unary) else (e.left, e.right))]
    if None in ends:
        return None
    k = next(temps)
    lo, hi = f"_l{k}", f"_h{k}"
    (a, b), *rest = ends
    c, d = rest[0] if rest else (None, None)
    op = e.op
    if op == "neg":
        rhs = f"-{b}, -{a}"
    elif op == "abs":
        rhs = (f"({a}, {b}) if {a} >= 0.0 else (-{b}, -{a}) if {b} <= 0.0 "
               f"else (0.0, max(-{a}, {b}))")
    elif op == "sqrt":
        lines.append(f"if {a} < 0.0: return None")
        rhs = f"sqrt({a}), sqrt({b})"
    elif op == "add":
        rhs = f"{a} + {c}, {b} + {d}"
    elif op == "sub":
        rhs = f"{a} - {d}, {b} - {c}"
    elif op in ("min", "max"):
        rhs = f"{op}({a}, {c}), {op}({b}, {d})"
    elif _square(e):
        rhs = (f"({a}*{a}, {b}*{b}) if {a} >= 0.0 else ({b}*{b}, {a}*{a}) if {b} <= 0.0 "
               f"else (0.0, max({a}*{a}, {b}*{b}))")
    elif op == "pow":
        n = repr(e.right.value)
        if e.right.value % 2:
            lines.append(f"{lo}, {hi} = {a} ** {n}, {b} ** {n}")
            rhs = f"{_outward(lo, '-')}, {_outward(hi, '')}"
        else:  # pow gives an even power no double below +0.0
            lines.append(f"{lo}, {hi} = ({a} ** {n}, {b} ** {n}) if {a} >= 0.0 else "
                         f"({b} ** {n}, {a} ** {n}) if {b} <= 0.0 else "
                         f"(0.0, max({a} ** {n}, {b} ** {n}))")
            rhs = f"max({_outward(lo, '-')}, 0.0), {_outward(hi, '')}"
    else:  # mul, div
        if op == "div":
            lines.append(f"if {c} <= 0.0 <= {d}: return None")
        sym = "*" if op == "mul" else "/"
        lines.append(f"_c = ({a}{sym}{c}, {a}{sym}{d}, {b}{sym}{c}, {b}{sym}{d})")
        rhs = "min(_c), max(_c)"
    lines.append(f"{lo}, {hi} = {rhs}")
    return lo, hi


def compile_expr(e: Expr, names: tuple[str, ...]) -> Callable[..., float]:
    """Compile to a positional-argument callable over the given variable names.

    Semantics are identical to evaluate(): the callable runs the text of e
    (see _gen), and where that raises a bare error it evaluates its
    arguments again through evaluate, which raises the typed EvalError at
    the same operation on the same operands.  No other code turns a bare
    error into an EvalError.  Raises EvalError("unbound-variable") if the
    expression references a name outside `names`.
    """
    _unbound((e,), names)
    namespace = _compile(
        f"def scalar({', '.join(names) or '*_'}):\n"
        f"    try:\n        return {_gen(e, count())}\n"
        "    except (ArithmeticError, ValueError):\n"
        "        return evaluate(_e, locals())\n"  # the arguments, by name
    )
    namespace["_e"] = e  # the function's globals
    return namespace["scalar"]


@dataclass(frozen=True)
class RowKernels:
    """Loops of abs(e) over rows of coordinate tuples, one tuple per argument.

    values(P, Q) is the list of abs(e) over zip(P, Q).  band(P, Q, level,
    eps), one of P and Q a repeat, reads the same values in one pass and
    lists only the indices of those within eps of level, with the index of
    the first tuple that raises or is not finite: the proximity scans read
    each range a band plan leaves them through it (see gspace._band).

    The first-hit loops test a row of a check in one loop that evaluates
    both sides of each tuple, lhs and every term of the right side, and
    lists nothing (see _compile_contraction): first_banach and
    first_proximal a row of a contraction check, first_convex and
    first_convex_pairs one of a convex-structure condition, whose right
    side lam * a + (1 - lam) * b comes as two rows of doubles, the terms
    lam * a and (1 - lam) * b.  Their fixed points are coordinate tuples,
    and the index of a hit is the one the marked rows of both sides give.
    lean_convex and lean_convex_pairs are the same loops without the test
    for an infinite term, for rows whose right sides the caller proves
    finite: they give the same index there.  fold_banach and fold_proximal
    read a row of first_banach and first_proximal in one loop for the
    coefficient estimate: they fold the running maximum of its ratios,
    stop at its first mark or infinite ratio, and give the first hit of one
    coefficient up to that stop.  first_level and first_symmetry test a
    row of the identity or the symmetry axiom, a fixed tuple p against
    each tuple of a list Q: first_level stops where abs(e(p, Q[k])) is not
    above its level or not finite, and first_symmetry, which evaluates
    abs(e(p, Q[k])) and abs(e(Q[k], p)) in one pass, where the two differ
    by more than eps; each gives the index the marked rows would.

    Every loop runs the text of e (see _gen) with no typed fallback, so
    where evaluate raises its EvalError values raises that or a bare
    ValueError, ZeroDivisionError or OverflowError.  The first-hit loops
    catch those and give the index of the tuple that raised: every tuple
    before it passed, and the marked rows mark it.  A side of values that
    is an itertools.repeat, which every scan passes without a count, has
    its coordinates bound once before the loop, and the loop unpacks only
    the other side, as band does.  Scans read lists through marked, which
    marks a tuple where values raises, and raise the typed error at a hit
    through eval_g, as they do at band's bad index.

    bound(PL, PH, QL, QH) bounds abs(e) over a box, the P coordinates
    ranging between the tuples PL and PH and the Q coordinates between QL
    and QH (a point passes its coordinates as both): it returns (lo, hi)
    with every value of values in the box within [lo, hi], or None when it
    cannot prove the box clean, that is values raises nothing there and
    every value is finite, so that marked marks no tuple.  It computes ^ 2
    as the kernel does, as a product, which needs no widening, and widens
    its ends past any other ^, which goes through pow.  bound is None
    for an e it never proves (see _bound_gen).  tree holds e, left and
    right, the arguments of compile_row_kernels.
    """

    values: Callable[..., list[float]]
    tree: tuple[Expr, tuple[str, ...], tuple[str, ...]]

    @cached_property
    def first_banach(self) -> Callable[..., int]:
        """Compiled on first use: first_banach(p, Q, r, S, c, eps) is the
        first k at which not abs(e(p, Q[k])) <= c * abs(e(r, S[k])) + eps,
        or -1 (see _compile_contraction)."""
        return _compile_contraction("first_banach", ["pQ", "rS"], "c", *self.tree)

    @cached_property
    def first_proximal(self) -> Callable[..., int]:
        """Compiled on first use: first_proximal(u, U, x, X, c, n, eps) is
        the first k at which not abs(e(u, U[k])) <= c * abs(e(x, X[k])) + n
        * abs(e(X[k], u)) + eps, or -1 (see _compile_contraction)."""
        return _compile_contraction("first_proximal", ["uU", "xX", "Xu"], "cn", *self.tree)

    @cached_property
    def fold_banach(self) -> Callable[..., tuple]:
        """Compiled on first use: fold_banach(p, Q, r, S, c, eps, best,
        zero) folds best with the ratios abs(e(p, Q[k])) / abs(e(r, S[k]))
        and gives first_banach's first hit up to where it stops (see
        _compile_contraction)."""
        return _compile_contraction("fold_banach", ["pQ", "rS"], "c", *self.tree, "fold")

    @cached_property
    def fold_proximal(self) -> Callable[..., tuple]:
        """Compiled on first use: fold_proximal(u, U, x, X, c, n, eps, best,
        zero) folds best with the ratios (abs(e(u, U[k])) - n * abs(e(X[k],
        u))) / abs(e(x, X[k])) and gives first_proximal's first hit up to
        where it stops (see _compile_contraction)."""
        return _compile_contraction("fold_proximal", ["uU", "xX", "Xu"], "cn", *self.tree, "fold")

    @cached_property
    def first_convex(self) -> Callable[..., int]:
        """Compiled on first use: first_convex(p, Q, L, M, eps) is the first
        k at which not abs(e(p, Q[k])) <= L[k] + M[k] + eps, with L[k] and
        M[k] the k-th values of the rows L and M, or -1 (see
        _compile_contraction).  The convex check calls it on the rows
        whose sums it cannot prove finite, and lean_convex on the rest;
        where it proves the ends of a whole condition, every row of that
        condition comes without its lambda 0 and 1 columns."""
        return _compile_contraction("first_convex", ["pQ", "L", "M"], "", *self.tree)

    @cached_property
    def first_convex_pairs(self) -> Callable[..., int]:
        """Compiled on first use: first_convex_pairs(P, Q, L, M, eps) is the
        first k at which not abs(e(P[k], Q[k])) <= L[k] + M[k] + eps, or -1,
        as first_convex is, and the convex check calls it as it calls
        first_convex."""
        return _compile_contraction("first_convex_pairs", ["PQ", "L", "M"], "", *self.tree)

    @cached_property
    def lean_convex(self) -> Callable[..., int]:
        """first_convex with the lean test not abs(e(p, Q[k])) <= L[k] + M[k]
        + eps, for a row whose every sum is proven finite (see
        _compile_contraction); its text keeps the name first_convex."""
        return _compile_contraction("first_convex", ["pQ", "L", "M"], "", *self.tree, "lean")

    @cached_property
    def lean_convex_pairs(self) -> Callable[..., int]:
        """first_convex_pairs with the lean test, as lean_convex is."""
        return _compile_contraction("first_convex_pairs", ["PQ", "L", "M"], "", *self.tree, "lean")

    @cached_property
    def first_level(self) -> Callable[..., int]:
        """Compiled on first use: first_level(p, Q, level) is the first k at
        which not level < abs(e(p, Q[k])) < inf, or -1 (see _compile_first).
        The identity scan calls it at eps_zero; a symmetry scan under a
        gauge proven symmetric calls it at -inf, where it fails at the row's
        first mark."""
        return _compile_first("first_level", *self.tree)

    @cached_property
    def first_symmetry(self) -> Callable[..., int]:
        """Compiled on first use: first_symmetry(p, Q, eps) is the first k
        at which not abs(abs(e(p, Q[k])) - abs(e(Q[k], p))) <= eps, or -1
        (see _compile_first)."""
        return _compile_first("first_symmetry", *self.tree)

    @cached_property
    def bound(self) -> Optional[Callable[..., Optional[tuple[float, float]]]]:
        """Compiled on first use, from its own source: only the proximity
        scans ask for it, and compile takes memory that grows with the
        source, so one source with the loops would need both amounts at
        once.  Two first uses racing at most compile it twice."""
        return _compile_bound(*self.tree)

    @cached_property
    def band(self) -> Callable[..., tuple[list[int], int]]:
        """Compiled on first use: band(P, Q, level, eps) is (hits, bad),
        hits the indices k, in order, at which abs(v - level) <= eps for
        the k-th value v of values(P, Q), and bad the first k at which the
        scalar callable raises or is not finite, or -1 (see _compile_band)."""
        return _compile_band(*self.tree)

    def marked(self, P: Iterable, Q: Iterable) -> list[float]:
        """values(P, Q), with a NaN mark at each tuple where the scalar
        callable raises or is not finite.  Every other value is an abs, so
        a mark makes every comparison <= false.  P and Q are lists, tuples
        or an itertools.repeat, which the per-tuple pass after a raising
        row reads again."""
        try:
            row = self.values(P, Q)
        except (ArithmeticError, ValueError):
            row = []
            for p, q in zip(P, Q):
                try:
                    row += self.values((p,), (q,))
                except (ArithmeticError, ValueError):
                    row.append(math.nan)
        if math.isfinite(sum(row)):
            return row
        return [v if v < math.inf else math.nan for v in row]


def _unbound(exprs: Iterable[Expr], names: Iterable[str]) -> None:
    missing = sorted(set().union(*map(variables, exprs)) - set(names))
    if missing:
        raise EvalError("unbound-variable", ", ".join(missing))


def _names(names: Sequence[str]) -> str:
    """An unpacking target for a tuple of the named coordinates."""
    return f"({', '.join(names)},)" if names else "()"


_KERNEL_GLOBALS = dict(
    inf=math.inf,  # repr() writes a literal that overflows a double, such as 1e999, as inf
    abs=abs, sqrt=math.sqrt, _pow=_pow, evaluate=evaluate, locals=locals, len=len,
    min=min, max=max, sum=sum, isfinite=math.isfinite, nextafter=math.nextafter,
    zip=zip, enumerate=enumerate, isinstance=isinstance, next=next, repeat=repeat, iter=iter,
    range=range,
    length_hint=length_hint, ArithmeticError=ArithmeticError, ValueError=ValueError,
    __builtins__={},
)


# Code objects by generated text.  Each load of a config builds its gauges,
# maps and structures anew, so one process compiles the same text many
# times: one verify-falsify bench pass (seed 3) asks for 240 texts, 86 distinct.
_code = lru_cache(maxsize=256)(partial(compile, filename="<string>", mode="exec"))


def _compile(src: str) -> dict:
    """A fresh namespace holding what src defines, its code compiled once
    per process; each call gets its own globals, so its functions share
    no state with those of another call."""
    namespace = dict(_KERNEL_GLOBALS)
    exec(_code(src), namespace)  # noqa: S102 (closed namespace)
    return namespace


def _compile_contraction(name: str, pairs: list[str], coefs: str, e: Expr,
                         left: tuple[str, ...], right: tuple[str, ...],
                         mode: str = "") -> Callable:
    """The function name over the sources that pairs name, in the order
    they first appear, then the coefficients coefs, then _eps.

    Each two-letter string of pairs is a term, abs(e) with its left names
    read from the source of its first letter and its right names from that
    of its second, so a source has as many coordinates as the side it is
    read on.  A lower-case source is one coordinate tuple, bound once
    before the loop; an upper-case one a row of them, unpacked once per
    tuple of their zip.  A one-letter string, upper-case, is a row of
    doubles, each value its term as it is.  With Tj the value of term j,
    the loop returns the first k at which not T0 <= W1 * T1 + W2 * T2 + ...
    + _eps, summed left to right, or -1: Wj is the next coefficient of
    coefs for a term of e, and a row of doubles takes none.  It numbers
    only the failing tuple: its last row, a list or a tuple, is zip's last
    argument, read through an iterator that zip has advanced once per
    tuple, so the index is that row's length less 1 less what length_hint
    says is left of the iterator.  Any other row is any iterable, such as
    an itertools.cycle or repeat; zip stops at the shortest.

    A NaN or infinite term fails the tuple, as a mark would; a sum of
    finite terms that overflows does not.  A tuple whose sum is finite and
    at least T0 holds, and only one that is not tests each term.  Each
    term of e runs the text of e (see _gen) under names of its own, with
    one temps counter for all of them, and no typed fallback: where
    evaluate raises its EvalError the text raises that or a bare
    ValueError, ZeroDivisionError or OverflowError, and the loop returns
    that tuple's index, as a mark there would fail it.

    A lean loop (mode "lean") tests only not T0 <= W1 * T1 + ... + _eps.
    The two tests differ only where that sum is inf, at which the full one
    still fails a tuple with an infinite term; a NaN term fails its tuple
    under either.  A caller runs the lean loop only on a row whose every
    sum it proves finite.

    A fold loop (mode "fold") takes _best and _zero after _eps and returns
    (best, stop, hit).  It stops at the first tuple that raises or has a
    term that is not finite, a mark, or whose ratio is infinite: T1 not
    above _zero under a numerator T0 - W2 * T2 - ... above it.  Before the
    stop, best is _best raised by each ratio above it, the numerator over
    T1 where T1 is above _zero, so it is max([_best, *ratios]) where no
    ratio is NaN; stop is the stop's index, or -1 at the row's end, and
    best is None at an infinite ratio.  hit is the first index, up to the
    stop, at which not T0 <= W1 * T1 + ... + _eps, or -1: the index of the
    loop without a mode wherever it is not -1, since every term of a tuple
    the fold tests is finite.  An _eps of inf tests nothing, and after a
    hit the loop sets it so.
    """
    temps, sources = count(), list(dict.fromkeys("".join(pairs)))
    rows = [s for s in sources if s.isupper()]
    ws = [f"_w{j}" for j in range(len(pairs))]
    coords = {pair[i]: [f"_{pair[i]}{k}" for k in range(len(side))]
              for pair in pairs if len(pair) == 2 for i, side in enumerate((left, right))}
    targets = {s: _names(c) for s, c in coords.items()} | {
        pair: w for pair, w in zip(pairs, ws) if len(pair) == 1}
    scale = iter(coefs)
    weights = [f"_{next(scale)} * " if len(pair) == 2 else "" for pair in pairs[1:]]

    def term(w: str, pair: str) -> str:
        if len(pair) == 1:
            return w
        names = dict(zip(left + right, coords[pair[0]] + coords[pair[1]]))
        return f"({w} := {_row_body(e, temps, names)})"

    def bound(values: list[str]) -> str:
        return "".join(f"{c}{v} + " for c, v in zip(weights, values)) + "_eps"

    lhs, *terms = map(term, ws, pairs)
    at = f"len(_{rows[-1]}) - 1 - length_hint(_rest)"
    fold = mode == "fold"
    stop = f"return _best, {at}, _hit\n" if fold else f"return {at}\n"
    num = "_w0" + "".join(f" - {c}{w}" for c, w in zip(weights[1:], ws[2:]))
    test = (
        f"            if not ({' and '.join(f'{t} < inf' for t in [lhs, *terms])}): {stop}"
        f"            if not _w0 <= {bound(ws[1:])}: _hit, _eps = {at}, inf\n"
        f"            if _w1 > _zero:\n                if (_v := ({num}) / _w1) > _best: _best = _v\n"
        f"            elif {num} > _zero: return None, {at}, _hit\n"
    ) if fold else (
        f"            if not {lhs} <= {bound(terms)}"
        + (":\n" if mode == "lean" else " < inf and not (\n"
           f"                    {''.join(f'{w} < inf and ' for w in ws)}_w0 <= {bound(ws[1:])}):\n")
        + f"                {stop}"
    )
    return _compile(
        f"def {name}({', '.join(f'_{s}' for s in sources + list(coefs))}, _eps"
        + (", _best, _zero):\n    _hit = -1\n" if fold else "):\n")
        + "".join(f"    {targets[s]} = _{s}\n" for s in sources if s.islower())
        + "    try:\n"
        f"        for {', '.join(targets[s] for s in rows)} in "
        f"zip({''.join(f'_{s}, ' for s in rows[:-1])}_rest := iter(_{rows[-1]})):\n"
        + test
        + f"    except (ArithmeticError, ValueError):\n        {stop}"
        + ("    return _best, -1, _hit\n" if fold else "    return -1\n")
    )[name]


def _row_body(
    e: Expr, temps: Optional[Iterator[int]] = None, names: Optional[Mapping[str, str]] = None
) -> str:
    """The text of abs(e) that every loop runs: compile_expr's text (see
    _gen, which takes temps and names), without the outer abs where
    _nonneg(e) holds, since it would return the same double."""
    body = _gen(e, count() if temps is None else temps, names)
    return body if _nonneg(e) else f"abs({body})"


def compile_row_kernels(
    e: Expr, left: tuple[str, ...], right: tuple[str, ...]
) -> RowKernels:
    """Compile abs(e) into its values loop; left and right name the
    coordinates unpacked from each P and each Q tuple.  The loop body is
    compile_expr's text (see _row_body), so every value is bit for bit the
    one the scalar callable and evaluate return.  The first-hit loops, band
    and bound compile on first use."""
    _unbound((e,), left + right)
    body, p, q = _row_body(e), _names(left), _names(right)
    values = _compile(
        "def values(_P, _Q):\n"
        f"    if isinstance(_P, repeat):\n        {p} = next(_P)\n"
        f"        return [{body} for {q} in _Q]\n"
        f"    if isinstance(_Q, repeat):\n        {q} = next(_Q)\n"
        f"        return [{body} for {p} in _P]\n"
        f"    return [{body} for ({p}, {q}) in zip(_P, _Q)]\n"
    )["values"]
    return RowKernels(values, (e, left, right))


def _compile_band(
    e: Expr, left: tuple[str, ...], right: tuple[str, ...]
) -> Callable[..., tuple[list[int], int]]:
    """RowKernels.band: one loop over the tuples of values(P, Q), one of P
    and Q an itertools.repeat, whose coordinates it binds once, as values
    does.  It runs the text of values (see _row_body) on each tuple and
    lists its index k where abs(v - level) <= eps.  Where the text
    raises, or gives a value that is not finite, it returns that tuple's
    index as bad, with the hits before it: the tuple marked would mark
    first.  A value is an abs, so one that is not finite is NaN or inf,
    never in band."""
    body, p, q = _row_body(e), _names(left), _names(right)

    def loop(target: str, rows: str) -> str:
        return (
            f"            for _k, {target} in enumerate({rows}):\n"
            f"                if abs((_v := {body}) - _level) <= _eps:\n"
            "                    _hit(_k)\n"
            "                elif not _v < inf:\n"
            "                    return _hits, _k\n"
        )

    return _compile(
        "def band(_P, _Q, _level, _eps):\n"
        "    _hits, _k = [], 0\n"
        "    _hit = _hits.append\n"
        "    try:\n"
        f"        if isinstance(_P, repeat):\n            {p} = next(_P)\n"
        + loop(q, "_Q")
        + f"        else:\n            {q} = next(_Q)\n"
        + loop(p, "_P")
        + "    except (ArithmeticError, ValueError):\n"
        "        return _hits, _k\n"
        "    return _hits, -1\n"
    )["band"]


def _compile_first(
    name: str, e: Expr, left: tuple[str, ...], right: tuple[str, ...]
) -> Callable[..., int]:
    """RowKernels.first_level or first_symmetry: name(p, Q, bound), with p
    a coordinate tuple bound once and Q a list of them, unpacked once per
    tuple, is the first k at which the row's test fails, or -1.

    Each value is the text of abs(e) (see _row_body), each term under names
    of its own and all of them with one temps counter.
    first_level fails a tuple where not bound < abs(e(p, Q[k])) < inf.
    first_symmetry, for e whose left and right take equally many
    coordinates, fails it where not abs(abs(e(p, Q[k])) - abs(e(Q[k], p)))
    <= bound: a NaN or an inf value fails it there, as a mark would, since
    bound is finite.  Where the text raises, the loop returns that tuple's
    index, as a mark there would fail it.  It numbers only the failing
    tuple, from what length_hint says is left of Q's iterator, as
    _compile_contraction's loops do.
    """
    temps = count()
    p, q = [f"_p{i}" for i in range(len(left))], [f"_q{i}" for i in range(len(right))]

    def term(x: list[str], y: list[str]) -> str:
        return _row_body(e, temps, dict(zip(left + right, x + y)))

    test = (f"_bound < {term(p, q)} < inf" if name == "first_level"
            else f"abs({term(p, q)} - {term(q, p)}) <= _bound")
    at = "return len(_Q) - 1 - length_hint(_rest)"
    return _compile(
        f"def {name}(_p, _Q, _bound):\n"
        f"    {_names(p)} = _p\n"
        "    try:\n"
        f"        for {_names(q)} in (_rest := iter(_Q)):\n"
        f"            if not {test}: {at}\n"
        f"    except (ArithmeticError, ValueError):\n        {at}\n"
        "    return -1\n"
    )[name]


def _compile_bound(
    e: Expr, left: tuple[str, ...], right: tuple[str, ...]
) -> Optional[Callable[..., Optional[tuple[float, float]]]]:
    """RowKernels.bound for the kernels of e, or None where _bound_gen
    cannot follow e."""
    lines: list[str] = []
    temps = count()
    ends = _bound_gen(e if _nonneg(e) else Unary("abs", e), temps, lines)
    if ends is None:
        return None
    total = "".join(f"_l{k}, _h{k}, " for k in range(next(temps)))
    lines += [f"if not isfinite(sum(({total}))): return None",  # every end finite
              f"return {ends[0]}, {ends[1]}"]
    ends_of = "".join(
        f"{_names([f'_{end}_{v}' for v in side])} = {arg}\n"
        for side, args in ((left, ("PL", "PH")), (right, ("QL", "QH")))
        for end, arg in zip("LH", args)
    )
    return _compile(
        "def bound(PL, PH, QL, QH):\n"
        "    try:\n"
        + indent(ends_of + "\n".join(lines), "        ")
        + "\n    except (ArithmeticError, ValueError):\n"
        "        return None\n"
    )["bound"]


def compile_point_rows(
    exprs: Sequence[Expr], bound: tuple[str, ...], outer: tuple[str, ...], inner: str
) -> Callable[[tuple, Iterable[tuple], Sequence[float]], list[tuple[float, ...]]]:
    """Compile a map, one expression per coordinate, into one row loop.

    rows(b, O, I) binds the names `bound` to the tuple b once, and lists the
    coordinate tuple (e + 0.0 for e in exprs) for each tuple of O (named
    `outer`) and then each value of I (named `inner`).  Those are the
    scalar callables' doubles, with -0.0 made 0.0 as Point makes it.  The
    loop runs the text of each e (see _gen) with no typed fallback, and
    where a scalar callable raises its EvalError the text raises that or a
    bare error: the list ends before that tuple.  A non-finite coordinate
    is listed as it is.
    """
    _unbound(exprs, bound + outer + (inner,))
    temps = count()
    coords = "".join(f"{_gen(e, temps)} + 0.0, " for e in exprs)
    return _compile(
        "def rows(_b, _O, _I):\n"
        f"    {_names(bound)} = _b\n"
        "    _row = []\n"
        "    try:\n"
        f"        for {_names(outer)} in _O:\n"
        f"            for {inner} in _I:\n"
        f"                _row.append(({coords}))\n"
        "    except (ArithmeticError, ValueError):\n"
        "        pass\n"
        "    return _row\n"
    )["rows"]


def compile_iteration(
    e: Expr, left: tuple[str, ...], right: tuple[str, ...],
    exprs: Optional[Sequence[Expr]], power: int, box: bool,
) -> Callable[..., tuple[bool, str]]:
    """Compile the steps of the contraction iteration p -> U(p) under the
    gauge e into one loop.

    steps(test, image, p, n, alpha, eps_ineq, eps_zero, Q, R) runs steps
    0, 1, ... n - 1 from the coordinate tuple p.  Step k maps the current
    point q_k (p at k = 0) to q_(k+1): it runs the texts of exprs (see
    _gen), one per coordinate over the names left, power times, each pass
    giving the tuple (e + 0.0 for e in exprs) that the next reads; with
    exprs None it takes image(q_k), a coordinate tuple, instead.  The image
    must be inside the domain: with box, test is (lo, hi) and each
    coordinate lies within its finite bounds; else test(image) holds.  The
    step then takes r = abs(e) with left bound to q_k and right to q_(k+1),
    appends q_(k+1) to Q and r to R, and tests as the scalar iteration
    does: from step 1 on, verified stays true while r <= alpha * r_prev +
    eps_ineq; the loop ends "converged" where r < eps_zero, and "bound"
    where alpha ** (k + 1) / (1.0 - alpha) * r_0 < eps_zero.

    It returns (verified, how), how being one of those two, "max_iter"
    after n steps, or "raised" at the first step whose text raises, whose
    image or any pass of it has a coordinate that is not finite, whose
    image lies outside the domain, or whose r is not finite: the step that
    the scalar calls raise at, and which has appended nothing.  Texts run
    with no typed fallback, as the row loops do.
    """
    _unbound([e], left + right)
    _unbound(exprs or (), left)
    d = len(left)
    q = [f"_q{i}" for i in range(d)]
    temps, target, stop = count(), _names(q), "return _verified, 'raised'"
    finite = " and ".join(f"-inf < {c} < inf" for c in q)
    if exprs is None:
        lines = [f"{target} = _image({_names(left)})"]
    else:
        lines = []
        for j in range(power):
            names = dict(zip(left, left if j == 0 else q))
            coords = "".join(f"{_gen(c, temps, names)} + 0.0, " for c in exprs)
            if j:
                lines.append(f"if not ({finite}): {stop}")
            lines.append(f"{target} = ({coords})")
    inside = (" and ".join(f"_l{i} <= {c} <= _h{i}" for i, c in enumerate(q))
              if box else f"_test({target})")
    body = _row_body(e, temps, dict(zip(left + right, left + tuple(q))))
    lines += [
        f"if not ({inside}): {stop}",
        f"if not (_r := {body}) < inf: {stop}",
        "if _k:",
        "    _verified = _verified and _r <= _alpha * _prev + _eps_ineq",
        "else:",
        "    _r0 = _r",
        f"_keep({target})",
        "_add(_r)",
        f"{_names(left)} = {target}",
        "_prev = _r",
        "if _r < _eps_zero: return _verified, 'converged'",
        "if _alpha ** (_k + 1) / (1.0 - _alpha) * _r0 < _eps_zero: return _verified, 'bound'",
    ]
    bounds = (f"    {_names([f'_l{i}' for i in range(d)])}, "
              f"{_names([f'_h{i}' for i in range(d)])} = _test\n") if box else ""
    return _compile(
        "def steps(_test, _image, _p, _n, _alpha, _eps_ineq, _eps_zero, _Q, _R):\n"
        f"    {_names(left)} = _p\n"
        + bounds
        + "    _keep, _add, _verified, _r0, _prev = _Q.append, _R.append, True, 0.0, 0.0\n"
        "    try:\n"
        "        for _k in range(_n):\n"
        + indent("\n".join(lines), "            ")
        + "\n    except (ArithmeticError, ValueError):\n"
        f"        {stop}\n"
        "    return _verified, 'max_iter'\n"
    )["steps"]
