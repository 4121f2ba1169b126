"""The contraction class, the axioms and the convex structure against
scalar loops that share no code with the scans.

Random small instances draw a gauge g, a second gauge h and a map f from
conftest.random_expr, over exact and box sets A and B in the plane.  Each
subject, a check or an estimate of the banach, proximal-weak or berinde
kind, is answered by the command line's code twice: alone, on an instance
of its own, and in turn with all the subjects of its example on one shared
instance, whose memo gives the subjects that read the same rows one build of
them (see cli._Spec.rows).  Both must equal the reference, which walks the
tuples in scan order and evaluates every gauge and map value through
expr.evaluate: the verdict, the witness and both sides bit for bit, the
estimate bit for bit, and an error by type and message.  Quotient inputs in
dimension 3 and 4 do the same for the banach subjects, whose scan reads one
point per class of the points the gauge cannot tell apart.  Planted inputs
put infinite, NaN and raising gauge values, right sides that overflow and
exact rates where the checks' fused loop must answer as marked rows do.
The identity, symmetry, triangle, convex-structure and starshaped checks
have a reference of their own, GeometryReference, the semi-sharp and
side-condition checks one, ProximityReference, and solve --scheme proximal
one at the end, IterationReference.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_expr, reference_indices
from gproxim import cli, gspace
from gproxim.config import instance_from_dict
from gproxim.expr import Binary, EvalError, Unary, Var, evaluate
from gproxim.gspace import CheckReport, GFunction, GSpaceError, Point

HOLDS, FALSIFIED = "holds-on-sample", "falsified"
# the gauges see x1, x2, u1, u2 and the maps x1, x2; random_expr also draws l
GAUGE_NAMES = {"x1": "x1", "x2": "x2", "u1": "u1", "u2": "u2", "l": "x1"}
MAP_NAMES = {"x1": "x1", "x2": "x2", "u1": "x1", "u2": "x2", "l": "x2"}
COORDS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
ALPHAS = (0.25, 0.5, 0.9375, 1.0)  # 1.0 is out of range
BETAS = (0.0625, 0.5, 1.0, 1.5)  # 1.5 is out of range
NS = (0.5, 2.0)


def _renamed(e, names):
    if isinstance(e, Var):
        return Var(names[e.name])
    if isinstance(e, Unary):
        return Unary(e.op, _renamed(e.operand, names))
    if isinstance(e, Binary):
        return Binary(e.op, _renamed(e.left, names), _renamed(e.right, names))
    return e


def _random_set(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        cells = [(a, b) for a in COORDS for b in COORDS]
        return {"points": [list(p) for p in rng.sample(cells, rng.randint(1, 6))]}
    lo1, lo2 = rng.choice(COORDS[:4]), rng.choice(COORDS[:4])
    return {"box": [[lo1, lo1 + rng.choice((0.5, 1.0))], [lo2, lo2 + 1.0]],
            "resolution": [rng.randint(2, 3), 2]}


def _random_doc(rng: random.Random) -> dict:
    def gauge():
        return str(_renamed(random_expr(rng, 3), GAUGE_NAMES))

    exprs = [str(_renamed(random_expr(rng, 2), MAP_NAMES)) for _ in range(2)]
    return {
        "dimension": 2,
        "g": gauge(),
        "functions": {"h": gauge()},
        "sets": {"A": _random_set(rng), "B": _random_set(rng)},
        "maps": {"f": {"exprs": exprs, "domain": "A", "codomain": "B"}},
    }


def _random_subjects(rng: random.Random) -> list:
    """Every kind at N = 0 and N > 0, and both estimates, most of them over
    g, so that several share a row group; in random order."""
    gauges = ["g"] * 9
    gauges[rng.randrange(9)] = "h"
    n = repr(rng.choice(NS))
    specs = [
        ("check", f"banach:{{}}:map=f:alpha={rng.choice(ALPHAS)!r}"),
        ("check", f"banach:{{}}:alpha={rng.choice(ALPHAS)!r}"),
        ("estimate", "banach:{}:map=f"),
        ("check", f"proximal-weak:{{}}:beta={rng.choice(BETAS)!r}:N=0.0"),
        ("check", f"proximal-weak:{{}}:map=f:beta={rng.choice(BETAS)!r}:N={n}"),
        ("check", "berinde:{}:N=0.0"),
        ("check", f"berinde:{{}}:N={n}"),
        ("estimate", "proximal-weak:{}:N=0.0"),
        ("estimate", f"berinde:{{}}:N={n}"),
    ]
    subjects = [(kind, text.format(name)) for (kind, text), name in zip(specs, gauges)]
    rng.shuffle(subjects)
    return subjects


class Reference:
    """The answers of scalar loops in scan order over expr.evaluate."""

    def __init__(self, inst):
        self.inst, self.tol, self.memo = inst, inst.tol, {}
        self.f = inst.map_("f")
        self.a, self.b = inst.set_("A").points, inst.set_("B").points

    def gauge(self, name: str, p: Point, q: Point) -> float:
        """abs(g(p, q)), raising eval_g's error; each value is computed once,
        p and q being points of A or B or their images (see images)."""
        key = (name, id(p), id(q))
        if key not in self.memo:
            g = self.inst.gauge(name)
            try:
                names = GFunction._var_names(self.inst.dimension)
                value = evaluate(g.expr, dict(zip(names, (*p.coords, *q.coords))))
                if not math.isfinite(value):
                    raise EvalError("non-finite", f"{name}({p}, {q}) = {value!r}")
                self.memo[key] = abs(value)
            except EvalError as exc:
                self.memo[key] = exc
        value = self.memo[key]
        if isinstance(value, Exception):
            raise value
        return value

    def images(self) -> list:
        """f over A in order, raising MapSpec.apply's error at the first
        point where it raises; computed once."""
        if "images" not in self.memo:
            self.memo["images"] = []
            for p in self.a:
                env = dict(zip(GFunction._var_names(p.dimension), p.coords))
                try:
                    coords = tuple(evaluate(e, env) for e in self.f.exprs)
                    if not all(map(math.isfinite, coords)):
                        raise GSpaceError(f"map 'f' produced non-finite image at {p}")
                except (EvalError, GSpaceError) as exc:
                    self.memo["images"] = exc
                    break
                self.memo["images"].append(Point(coords))
        images = self.memo["images"]
        if isinstance(images, Exception):
            raise images
        return images

    def level(self, name: str) -> float:
        return min(self.gauge(name, x, y) for x in self.a for y in self.b)

    def answer(self, kind: str, text: str):
        spec_kind, name, params = cli.parse_check_spec(text)
        coef = float(params.get("alpha", params.get("beta", 1.0)))  # berinde: 1
        if kind == "estimate":
            coef = None
        if spec_kind == "banach":
            return self.banach(name, coef)
        return self.proximal(name, coef, float(params["N"]))

    def banach(self, name: str, alpha):
        if alpha is not None and not 0.0 < alpha < 1.0:
            raise GSpaceError(f"alpha must lie in (0, 1), got {alpha!r}")
        zero, eps = self.tol.eps_zero, self.tol.eps_ineq
        images = self.images()
        best = 0.0
        for x, tx in zip(self.a, images):
            for y, ty in zip(self.a, images):
                lhs, den = self.gauge(name, tx, ty), self.gauge(name, x, y)
                if alpha is None:
                    if den > zero:
                        best = max(best, lhs / den)
                    elif lhs > zero:
                        return math.inf
                elif not lhs <= alpha * den + eps:
                    return CheckReport("banach-contraction", FALSIFIED, {"x": x, "y": y},
                                       lhs, alpha * den, beta=alpha, n_cap=0.0)
        if alpha is None:
            return best
        return CheckReport("banach-contraction", HOLDS, beta=alpha, n_cap=0.0)

    def proximal(self, name: str, beta, n: float):
        if beta is not None and not 0.0 < beta <= 1.0:
            raise GSpaceError(f"beta must lie in (0, 1], got {beta!r}")
        d_g, zero, eps = self.level(name), self.tol.eps_zero, self.tol.eps_ineq
        images = self.images()
        pairs = [(x, u) for x, fx in zip(self.a, images) for u in self.a
                 if abs(self.gauge(name, u, fx) - d_g) <= self.tol.eps_prox]
        best = 0.0
        for x1, u1 in pairs:
            for x2, u2 in pairs:
                lhs = self.gauge(name, u1, u2)
                g_xx, g_xu = self.gauge(name, x1, x2), self.gauge(name, x2, u1)
                if beta is None:
                    num = lhs - n * g_xu
                    if g_xx > zero:
                        best = max(best, num / g_xx)
                    elif num > zero:
                        return math.inf
                elif not lhs <= beta * g_xx + n * g_xu + eps:
                    witness = {"x1": x1, "x2": x2, "u1": u1, "u2": u2}
                    return CheckReport(self.check_name(beta), FALSIFIED, witness, lhs,
                                       beta * g_xx + n * g_xu, beta=beta, n_cap=n)
        if beta is None:
            return best
        return CheckReport(self.check_name(beta), HOLDS, beta=beta, n_cap=n,
                           vacuous=not pairs)

    @staticmethod
    def check_name(beta: float) -> str:
        return "proximal-berinde" if beta == 1.0 else "proximal-weak"


def _answer(inst, kind: str, text: str):
    """The command line's answer to a subject: run_check's report of a
    check, the estimate of its sweep, as search gives it, of an estimate."""
    if kind == "check":
        return cli.run_check(inst, text)
    c = cli._Spec(inst, text)
    return cli._CHECKS[c.kind].sweep(c, 0, [])[0]


def _assert_answers(doc: dict, ref: Reference, subjects: list) -> None:
    """Each subject alone on a fresh instance of doc, and all of them in
    order on one shared instance, answer as the reference does."""
    want = [_outcome(ref.answer, *s) for s in subjects]
    alone = [_outcome(_answer, instance_from_dict(doc), *s) for s in subjects]
    shared = instance_from_dict(doc)
    assert alone == want
    assert [_outcome(_answer, shared, *s) for s in subjects] == want


def _outcome(answer, *args):
    """repr of what answer(*args) gives, or the type and message it raises:
    repr tells apart the bits of every float of a report or an estimate."""
    try:
        return repr(answer(*args))
    except (GSpaceError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_contraction_answers_alone_and_grouped_match_scalar_loops(seed):
    rng = random.Random(seed)
    doc = _random_doc(rng)
    ref = Reference(instance_from_dict(doc))
    subjects = _random_subjects(rng)
    for name in ("g", "h"):
        # the core's own errors are not under test: a gauge that raises on
        # A x B keeps its banach subjects only
        try:
            ref.level(name)
        except EvalError:
            subjects = [(kind, text) for kind, text in subjects
                        if text.startswith("banach") or text.split(":")[1] != name]
    _assert_answers(doc, ref, subjects)


# Quotient inputs: a contraction scan reads one point per class of the
# points its gauge cannot tell apart (see properties._BanachRows).  Here the
# gauges read a strict subset of the coordinates, possibly other ones on
# the x side than on the u side; the maps collapse coordinates; and the
# sets hold many points that share a projection.  The check runs with
# gspace.MAX_TUPLES lowered to QUOTIENT_CAP, so that the box sets are cut,
# and the reference cuts A by conftest.reference_indices, not by _capped.
QUOTIENT_CAP = 100  # a box of more than 10 points is cut to 10


def _quotient_gauge(rng: random.Random, d: int) -> str:
    xs = rng.sample(range(1, d + 1), rng.randint(1, d - 1))
    us = rng.sample(range(1, d + 1), rng.randint(1, d - 1))
    names = {"x1": f"x{xs[0]}", "x2": f"x{xs[-1]}", "l": f"x{rng.choice(xs)}",
             "u1": f"u{us[0]}", "u2": f"u{us[-1]}"}
    return str(_renamed(random_expr(rng, 3), names))


def _quotient_map(rng: random.Random, d: int) -> list:
    """Each coordinate a constant, a copy of a coordinate or an expression."""
    names = {v: f"x{rng.randint(1, d)}" for v in ("x1", "x2", "u1", "u2", "l")}
    return [rng.choice(("0", "0.5", f"x{rng.randint(1, d)}",
                        str(_renamed(random_expr(rng, 2), names))))
            for _ in range(d)]


def _quotient_set(rng: random.Random, d: int) -> dict:
    if rng.random() < 0.5:  # at most 3 distinct values of each coordinate
        cells = list(itertools.product(*(rng.sample(COORDS, rng.randint(1, 3))
                                         for _ in range(d))))
        return {"points": [list(p) for p in rng.sample(cells, min(len(cells),
                                                                  rng.randint(1, 12)))]}
    resolution = [rng.choice((1, 2, 2, 3)) for _ in range(d)]
    return {"box": [[lo, lo + (r > 1)] for lo, r in zip(rng.choices(COORDS[:4], k=d),
                                                         resolution)],
            "resolution": resolution}


def _quotient_doc(rng: random.Random) -> dict:
    d = rng.choice((3, 4))
    return {
        "dimension": d,
        "g": _quotient_gauge(rng, d),
        "functions": {"h": _quotient_gauge(rng, d)},
        "sets": dict.fromkeys("AB", _quotient_set(rng, d)),
        "maps": {"f": {"exprs": _quotient_map(rng, d), "domain": "A", "codomain": "A"}},
    }


# A non-finite gauge value names its points in its error, so the first two
# plant a first marked tuple whose row and column classes repeat later in
# scan order, the second also a first violation on such a row; the third
# reads x2 on the x side and u1 on the u side of an exact set; in the
# fourth the cap cuts (0, 0, 3), so the first violation, at the column
# class x3 = 3, names (1, 0, 3).
PLANTED_QUOTIENTS = [
    {"g": "1e308 * (x1 + 1) * (u2 + 1)", "f": ["x1", "x3", "x2"],
     "A": {"box": [[0, 1], [0, 2], [0, 1]], "resolution": [2, 3, 2]}},
    {"g": "(x3 - u1) * 1e308", "f": ["x2", "x2", "x1 / 2"],
     "A": {"box": [[0, 2], [0, 1], [-1, 0]], "resolution": [3, 2, 2]}},
    {"g": "x2 - u1", "f": ["x2", "x3", "x1"],
     "A": {"points": [[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 0]]}},
    {"g": "x3 - u3", "f": ["x1", "x2", "max(0, 1 - abs(x3 - 3)) * 10"],
     "A": {"box": [[0, 1], [0, 0], [0, 5]], "resolution": [2, 1, 6]}},
]


class QuotientReference(Reference):
    """Reference over the points of A a pair scan reads under the cap."""

    def __init__(self, inst):
        super().__init__(inst)
        if inst.set_("A").mode == "box":
            self.a = [self.a[i] for i in reference_indices(len(self.a), 2, QUOTIENT_CAP, 0)]


def _quotient_subjects(rng: random.Random) -> list:
    """Two checks and the estimate under each of g and h, in random order."""
    subjects = [(kind, f"banach:{name}:map=f{tail}")
                for name in ("g", "h")
                for kind, tail in (("check", f":alpha={rng.choice(ALPHAS)!r}"),
                                   ("check", f":alpha={rng.choice(ALPHAS)!r}"),
                                   ("estimate", ""))]
    rng.shuffle(subjects)
    return subjects


def _assert_quotient_answers(doc: dict, subjects: list) -> None:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gspace, "MAX_TUPLES", QUOTIENT_CAP)
        _assert_answers(doc, QuotientReference(instance_from_dict(doc)), subjects)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_contraction_answers_on_quotient_inputs_match_scalar_loops(seed):
    rng = random.Random(seed)
    _assert_quotient_answers(_quotient_doc(rng), _quotient_subjects(rng))


@pytest.mark.parametrize("planted", PLANTED_QUOTIENTS, ids=lambda p: p["g"])
def test_planted_quotient_answers_match_scalar_loops(planted):
    doc = {"dimension": 3, "g": planted["g"], "functions": {"h": "x3 * u3"},
           "sets": dict.fromkeys("AB", planted["A"]),
           "maps": {"f": {"exprs": planted["f"], "domain": "A", "codomain": "A"}}}
    _assert_quotient_answers(doc, _quotient_subjects(random.Random(planted["g"])))


# Planted inputs for the contraction checks' fused loop, which tests each
# row in one pass over both sides (see RowKernels.first_banach and
# first_proximal).  A = {0, 1, 2, 4, 8} under abs(x1-u1), plus terms that
# are 0 except at one pair (a, b): _at is 1 there, _inf_at infinite, and
# _raise_at and _sqrt_at raise.  The banach subjects map x to x/2, whose
# images 0.5 are read by lhs alone, and hold at alpha = 1/2 with a slack of
# eps_ineq = 1/4 at every pair.  The proximal subjects map x to x/2 + 1/4
# off A, into B = A + 1/4, so the level is 1/4 and the qualifying pairs
# are (0, 0), (1, 1), (2, 1), (4, 2) and (8, 4); no term of the core reads
# a pair of A x A.  Their check holds at beta = 1/2, N = 1/4, with lhs =
# rhs + eps at the quadruple (0, 1, 0, 1).  The pair (1, 8) is read by
# g(x, y) or g(x1, x2) alone, (8, 1) by g(x2, u1) alone, and (0, 1) by lhs
# and g(x1, x2) of one quadruple.  Each entry gives its family, its terms,
# N, eps_ineq and a part of the check's answer, which pins where it lands.
def _at(a: float, b: float, names=("x1", "u1")) -> str:
    v, w = names
    return f"max(0, 1 - 8*abs({v} - {a!r}))*max(0, 1 - 8*abs({w} - {b!r}))"


def _inf_at(a: float, b: float) -> str:
    return f"{_at(a, b)}*1e308*4"


def _raise_at(a: float, b: float, names=("x1", "u1")) -> str:
    v, w = names
    return f"0/(abs({v} - {a!r}) + abs({w} - {b!r}))"


def _sqrt_at(a: float, b: float) -> str:
    return f"0*sqrt(abs(x1 - {a!r}) + abs(u1 - {b!r}) - 0.125)"


PLANTED_CONTRACTIONS = {
    # lhs infinite at (x, y) = (1, 4); in the second also g(x, y)
    "banach-lhs-inf": ("banach", [_inf_at(0.5, 2)], 0.0, 0.25, "g((0.5), (2.0)) = inf"),
    "banach-both-inf": ("banach", [_inf_at(0.5, 2), _inf_at(1, 4)], 0.0, 0.25,
                        "g((0.5), (2.0)) = inf"),
    "banach-den-inf": ("banach", [_inf_at(1, 8)], 0.0, 0.25, "g((1.0), (8.0)) = inf"),
    "banach-nan": ("banach", [_inf_at(2, 8), f"-{_inf_at(2, 8)}"], 0.0, 0.25,
                   "g((2.0), (8.0)) = nan"),
    # row x = 1: g(1, 0) raises before lhs breaks at y = 4; lhs breaks at
    # y = 1 before g(1, 8) raises
    "banach-raise-before": ("banach", [_raise_at(1, 0), _at(0.5, 2)], 0.0, 0.25,
                            "division-by-zero"),
    "banach-raise-after": ("banach", [_at(0.5, 0.5), _sqrt_at(1, 8)], 0.0, 0.25,
                           "'y': Point(coords=(1.0,)"),
    # lhs = alpha * g(x, y) + eps at (1, 4)
    "banach-exact": ("banach", [f"0.25*{_at(0.5, 2)}"], 0.0, 0.25, "holds-on-sample"),
    # alpha * g(1, 8) + eps overflows from finite terms
    "banach-overflow": ("banach", [f"1e308*{_at(1, 8)}"], 0.0, 1.7e308, "holds-on-sample"),
    "proximal-lhs-inf": ("proximal", [_inf_at(0, 1)], 0.25, 0.25, "g((0.0), (1.0)) = inf"),
    "proximal-xx-inf": ("proximal", [_inf_at(1, 8)], 0.25, 0.25, "g((1.0), (8.0)) = inf"),
    "proximal-xu-inf": ("proximal", [_inf_at(8, 1)], 0.25, 0.25, "g((8.0), (1.0)) = inf"),
    "proximal-nan": ("proximal", [_inf_at(1, 8), f"-{_inf_at(1, 8)}"], 0.25, 0.25,
                     "g((1.0), (8.0)) = nan"),
    # row (1, 1): g(4, 1) raises at x2 = 4 before g(x1, x2) = g(1, 8) = 0
    # breaks the row at x2 = 8; g(1, 4) = g(4, 1) = 0 break it at x2 = 4
    # before g(8, 1) raises at x2 = 8
    "proximal-raise-before": ("proximal", [_raise_at(4, 1), f"-7*{_at(1, 8)}"], 0.25, 0.25,
                              "division-by-zero"),
    "proximal-raise-after": ("proximal", [f"-3*{_at(1, 4)}", f"-3*{_at(4, 1)}",
                                          _sqrt_at(8, 1)], 0.25, 0.25,
                             "'x2': Point(coords=(4.0,)"),
    "proximal-exact": ("proximal", [], 0.25, 0.25, "holds-on-sample"),
    # N * g(x2, u1) overflows wherever g(x2, u1) > 1, every term finite
    "proximal-huge-n": ("proximal", [], 1e308, 0.25, "holds-on-sample"),
    # at (4, 2, 2, 1): lhs 1 + 2**-52 against (1 + 2**-53) + 2**-53, which
    # rounds to 1; summed as 1 + (2**-53 + 2**-53) it would hold
    "proximal-rounding": ("proximal", [f"{2 ** -52!r}*{_at(2, 1)}", f"{2 ** -52!r}*{_at(2, 2)}"],
                          0.5, 2 ** -53, "lhs=1.0000000000000002, rhs=1.0"),
}


@pytest.mark.parametrize("name", list(PLANTED_CONTRACTIONS))
def test_planted_contraction_answers_match_scalar_loops(name):
    family, terms, n, eps, landing = PLANTED_CONTRACTIONS[name]
    points = [[0.0], [1.0], [2.0], [4.0], [8.0]]
    doc = {"dimension": 1, "g": " + ".join(["abs(x1-u1)", *terms]),
           "sets": {"A": {"points": points},
                    "B": {"points": [[p + 0.25] for p, in points[:4]]}},
           "maps": {"f": {"exprs": ["x1/2" if family == "banach" else "x1/2 + 0.25"],
                          "domain": "A", "codomain": "B"}},
           "tolerances": {"eps_ineq": eps}}
    if family == "banach":
        subjects = [("check", "banach:g:map=f:alpha=0.5"), ("estimate", "banach:g:map=f")]
    else:
        subjects = [("check", f"proximal-weak:g:map=f:beta=0.5:N={n!r}"),
                    ("check", f"berinde:g:map=f:N={n!r}"),
                    ("estimate", f"proximal-weak:g:map=f:N={n!r}")]
    ref = Reference(instance_from_dict(doc))
    _assert_answers(doc, ref, subjects)
    assert landing in _outcome(ref.answer, *subjects[0])


# The axiom and convex kinds.  A reference of its own walks the tuples of
# identity, symmetry, triangle and both convex conditions in scan order and
# evaluates every gauge and H value through expr.evaluate, raising what
# eval_g and ConvexStructure.apply raise.  Boxes of more than 32 points, a
# violation at the last z of a pair, and a gauge that raises at g(y, x) but
# not at g(x, y), which the triangle scan must not read for the pair (x, y),
# are among the inputs.
AXIOMS = ("identity", "symmetry", "triangle")


class GeometryReference:
    """The answers of scalar loops over expr.evaluate for the gauge g and
    the convex structure of an instance."""

    def __init__(self, inst):
        self.inst, self.tol, self.memo = inst, inst.tol, {}
        self.g = inst.gauge("g")

    def gauge(self, p: Point, q: Point) -> float:
        """abs(g(p, q)), raising eval_g's error; each value is computed once,
        p and q being points of a set or images kept by image."""
        key = (id(p), id(q))
        if key not in self.memo:
            names = GFunction._var_names(p.dimension)
            try:
                value = evaluate(self.g.expr, dict(zip(names, (*p.coords, *q.coords))))
                if not math.isfinite(value):
                    raise EvalError("non-finite", f"g({p}, {q}) = {value!r}")
                self.memo[key] = abs(value)
            except EvalError as exc:
                self.memo[key] = exc
        return self._value(key)

    def image(self, x: Point, y: Point, lam: float) -> Point:
        """H(x, y, lam), raising ConvexStructure.apply's error."""
        key = (id(x), id(y), lam.hex())
        if key not in self.memo:
            names = GFunction._var_names(x.dimension) + ("l",)
            env = dict(zip(names, (*x.coords, *y.coords, lam)))
            try:
                coords = tuple(evaluate(e, env) for e in self.inst.convex.h.exprs)
                if not all(map(math.isfinite, coords)):
                    raise EvalError("non-finite", f"H({x}, {y}, {lam!r})")
                self.memo[key] = Point(coords)
            except EvalError as exc:
                self.memo[key] = exc
        return self._value(key)

    def _value(self, key):
        value = self.memo[key]
        if isinstance(value, Exception):
            raise value
        return value

    def axiom(self, kind: str, pts) -> CheckReport:
        zero, eps = self.tol.eps_zero, self.tol.eps_ineq

        def falsified(witness, lhs, rhs, note=""):
            return CheckReport(f"{kind}-axiom", FALSIFIED, witness, lhs, rhs, note=note)

        for i, x in enumerate(pts):
            for k, y in enumerate(pts):
                if k == i or (kind == "symmetry" and k < i):
                    continue
                gxy = self.gauge(x, y)
                if kind == "identity" and not gxy > zero:
                    return falsified({"x": x, "y": y}, gxy, zero,
                                     "distinct points at zero gauge level")
                if kind == "symmetry":
                    lhs = abs(gxy - self.gauge(y, x))
                    if not lhs <= eps:
                        return falsified({"x": x, "y": y}, lhs, eps)
                if kind == "triangle":
                    for m, z in enumerate(pts):
                        if m in (i, k):
                            continue
                        lhs = self.gauge(x, z)
                        rhs = gxy + self.gauge(y, z)
                        if not lhs <= rhs + eps:
                            return falsified({"x": x, "y": y, "z": z}, lhs, rhs)
        return CheckReport(f"{kind}-axiom", HOLDS)

    def starshaped(self, name: str, centre: Point) -> CheckReport:
        """H(centre, x, lam) over x in the set, then lam in the grid as
        given, each image tested against the set widened by the band."""
        s, band = self.inst.set_(name), max(1e-9, self.tol.eps_prox)

        def member(p: Point) -> bool:
            if s.box is not None:
                return all(lo - band <= c <= hi + band for c, (lo, hi) in zip(p.coords, s.box))
            return any(all(abs(a - b) <= band for a, b in zip(p.coords, q.coords))
                       for q in s.points)

        if not member(centre):
            raise GSpaceError(f"centre {centre} is not a member of {name}")
        for x in s.points:
            for lam in self.inst.convex.lambda_grid:
                image = self.image(centre, x, lam)
                if not member(image):
                    return CheckReport("starshaped", FALSIFIED, {"x": x, "lam": lam, "image": image},
                                       note="interpolant escapes the set")
        return CheckReport("starshaped", HOLDS)

    def convex(self, pts, axes=None) -> CheckReport:
        """Both conditions over every point of pts and the lambdas in the
        order the check scans them, sorted, with 0 and 1; or, where a tuple
        cap subsamples them, over axes, the indices into pts and the
        lambdas that each condition reads."""
        lams = sorted(set(self.inst.convex.lambda_grid) | {0.0, 1.0})
        (one, lams), (two, lams_two) = axes or ((range(len(pts)), lams),) * 2
        pts, pts_two = [pts[i] for i in one], [pts[i] for i in two]
        eps = self.tol.eps_ineq

        def falsified(witness, lhs, rhs, note):
            return CheckReport("convex-structure", FALSIFIED, witness, lhs, rhs, note=note)

        for x0 in pts:
            # the check reads the endpoint gauges of x0 first, a row each
            gx = [self.gauge(x0, x) for x in pts]
            gy = [self.gauge(x0, y) for y in pts]
            for i, x in enumerate(pts):
                for j, y in enumerate(pts):
                    for lam in lams:
                        lhs = self.gauge(x0, self.image(x, y, lam))
                        rhs = lam * gx[i] + (1 - lam) * gy[j]
                        if not lhs <= rhs + eps:
                            witness = {"x0": x0, "x": x, "y": y, "lam": lam}
                            return falsified(witness, lhs, rhs, "condition one")
        for x, y, x0, y0 in itertools.product(pts_two, repeat=4):
            for lam in lams_two:
                g_x, g_y = self.gauge(x, x0), self.gauge(y, y0)
                lhs = self.gauge(self.image(x, y, lam), self.image(x0, y0, lam))
                rhs = lam * g_x + (1 - lam) * g_y
                if not lhs <= rhs + eps:
                    witness = {"x": x, "y": y, "x0": x0, "y0": y0, "lam": lam}
                    return falsified(witness, lhs, rhs, "condition two")
        return CheckReport("convex-structure", HOLDS)


def _assert_geometry(doc: dict, convex_set=None, axes=None) -> None:
    """Each axiom and the starshaped check about r over the set A, and the
    convex check over convex_set, if given, answer through the command line
    as the reference does, which reads the convex axes given (see
    GeometryReference.convex)."""
    inst, ref = instance_from_dict(doc), GeometryReference(instance_from_dict(doc))
    pts = ref.inst.set_("A").points
    for kind in AXIOMS:
        want = _outcome(ref.axiom, kind, pts)
        assert _outcome(cli.run_check, inst, f"{kind}:g:set=A") == want, kind
    want = _outcome(ref.starshaped, "A", ref.inst.convex.r)
    assert _outcome(cli.run_check, inst, "starshaped:A") == want
    if convex_set is not None:
        want = _outcome(ref.convex, ref.inst.set_(convex_set).points, axes)
        assert _outcome(cli.run_check, inst, f"convex:g:set={convex_set}") == want


def _metric_gauge(rng: random.Random) -> str:
    """The l1 gauge and a bump of random height at a random pair of grid
    values, so that most scans run long and some fail late."""
    a, b = rng.choice(COORDS), rng.choice(COORDS)
    bump = f"max(0, 1 - abs(x1 - {a!r}))*max(0, 1 - abs(u2 - {b!r}))"
    return f"abs(x1-u1) + abs(x2-u2) + {rng.choice((0.25, 1, 3))!r}*{bump}"


def _geometry_doc(rng: random.Random) -> dict:
    """A random g, a convex structure over x, u and l, an axiom set A, a
    box of more than 32 points in a third of the draws, which holds the
    starshaped check's centre r, a convex set C of at most 6 points, which
    the convex check scans whole, and an eps_ineq of 0 in half of the
    draws."""
    if rng.random() < 0.5:
        g = _metric_gauge(rng)
    else:
        g = str(_renamed(random_expr(rng, 3), GAUGE_NAMES))
    if rng.random() < 0.5:
        h = ["l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"]
    else:
        h = [str(random_expr(rng, 2)) for _ in range(2)]
    if rng.random() < 0.3:
        lo1, lo2 = rng.choice(COORDS[:4]), rng.choice(COORDS[:4])
        a = {"box": [[lo1, lo1 + 1.0], [lo2, lo2 + 1.5]],
             "resolution": rng.choice(([6, 6], [5, 7], [4, 9]))}
    else:
        a = _random_set(rng)
    # the centre of the starshaped check: a point of A
    r = a["points"][0] if "points" in a else [lo for lo, _ in a["box"]]
    return {
        "dimension": 2, "g": g, "sets": {"A": a, "C": _random_set(rng)},
        "convex": {"exprs": h, "r": r, "s": [0, 0],
                   "lambda_grid": rng.choice((2, 3, [0, 0.25, 1], [1, 0.5, -0.0]))},
        "tolerances": {"eps_ineq": rng.choice((0.0, 1e-9))},
    }


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_axiom_and_convex_answers_match_scalar_loops(seed):
    _assert_geometry(_geometry_doc(random.Random(seed)), convex_set="C")


# Planted in one dimension, each with the witness it must give or a part of
# its error, and with terms added to H = l*x1 + (1-l)*u1 and a tuple cap,
# if any.  "last-z":
# the l1 gauge with g(0, 39) raised by 1, so the first pair (0, 1) fails at
# z = 39, the last point of a 40-point box.  "diagonal": g(3, 0) divides by
# zero while g(0, 3) does not, so the pair (0, 3) must not read its z = 0;
# the triangle breaks at (1, 0, 2), before the pair (3, 0) raises.
# "convex-late": g(3, 2.5) is raised, which only the interpolant
# H(2, 3, 1/2) reaches, in the last x0 row of condition one.  "convex-two":
# g(1/2, 5/2) is raised, which condition one never reads.  "pair-skip":
# g(0, 3) divides by zero, which the pair (0, 0), were it scanned, would
# read before the triangle breaks at (0, 1, 2).  The l1 gauge meets the
# triangle and both convex conditions with equality on these lines, and
# eps_ineq is 0, so a comparison that is strict where it should not be
# fails.
#
# Where H fails: a row of condition one runs over (y, lam) for one (x0, x).
# "h-raise-mid-row": H(1, 2, 1/2) divides by zero, in the middle of the row
# of x = 1, and H(1, 3, 0) after it is infinite.  "h-after-violation":
# g(0, 1) is raised, so condition one breaks at (x0, x, y, lam) = (0, 0, 2,
# 1/2), two tuples before H(0, 3, 0), infinite, in the same row.
# Under the cap of 256 tuples the lambda grid k/8 gives condition one every
# point and the lambdas 0, 3/8, 5/8, 1, and condition two the points 0, 2, 3
# and the lambdas 0, 1/2, 1 (CAP_AXES): H infinite at lam = 1/2 alone fails
# in condition two.  "h-two-xy-first": H(0, 0, 1/2), so the row of H(x, y,
# .) ends at its first lambda and is not replicated over y0; the first
# tuple of that row that reads H(x0, y0, .) at 1/2 fails with it.
# "h-two-x0y0-first": H(0, 2, 1/2), which H(x0, y0, .) reads at (x, y) =
# (0, 0), before any H(x, y, .) does; g(0, 1) is raised, so a scan that
# read past that tuple would break at (x, y, x0, y0, lam) = (0, 0, 2, 0,
# 1/2) instead.
CAP_AXES = (256, (((0, 1, 2, 3), (0.0, 0.375, 0.625, 1.0)), ((0, 2, 3), (0.0, 0.5, 1.0))), 9)
# Where H misses an endpoint, the check scans the lambda 0 and 1 columns of
# that row.  "h-misses-end-one": H(x, 2, 0) = 2.125, so condition one breaks
# at (x0, x, y, lam) = (0, 0, 2, 0), where g(0, 2.125) > g(0, 2).
# "h-misses-end-two": g(x, y) = abs(x), under which condition one holds with
# equality, and H(1, y, 1) = 1.125, so condition two breaks at (x, y, x0,
# y0, lam) = (1, 0, 0, 0, 1).  "g-raises-at-an-end-two": on the 8-point
# box {0, ..., 7} under the lambdas [0, 1] and a cap of 162 tuples,
# condition one reads the points 0, 2, 5, 7 and condition two 0, 4, 7, each
# with the lambdas 0 and 1 alone, which are the ends of every row.  g(4, 4)
# divides by zero, which only condition two reads, first at (0, 4, 0, 4, 0).
END_CAP_AXES = (162, (((0, 2, 5, 7), (0.0, 1.0)), ((0, 4, 7), (0.0, 1.0))), [0, 1])


def _h_inf_at(x: float, y: float, lam: float) -> str:
    """A term of H that is infinite at (x, y, lam) and 0 at the other
    points of these grids."""
    return f"max(0, 1 - 16*(abs(x1 - {x!r}) + abs(u1 - {y!r}) + abs(l - {lam!r})))*1e308*4"


def _h_raise_at(x: float, y: float, lam: float) -> str:
    return f"0/(abs(x1 - {x!r}) + abs(u1 - {y!r}) + abs(l - {lam!r}))"


PLANTED_GEOMETRY = {
    "last-z": ("abs(x1-u1) + max(0, 1 - abs(x1))*max(0, 1 - abs(u1 - 39))", 40,
               "triangle", {"x": 0, "y": 1, "z": 39}, [], None),
    "diagonal": ("abs(x1-u1) + 0/(abs(x1 - 3) + abs(u1)) "
                 "+ 10*max(0, 1 - abs(x1 - 1))*max(0, 1 - abs(u1 - 2))", 4,
                 "triangle", {"x": 1, "y": 0, "z": 2}, [], None),
    "convex-late": ("abs(x1-u1) + max(0, 1 - 4*abs(x1 - 3))*max(0, 1 - 4*abs(u1 - 2.5))",
                    4, "convex", {"x0": 3, "x": 2, "y": 3, "lam": 0.5}, [], None),
    "convex-two": ("abs(x1-u1) + max(0, 1 - 4*abs(x1 - 0.5))*max(0, 1 - 4*abs(u1 - 2.5))",
                   4, "convex", {"x": 0, "y": 1, "x0": 2, "y0": 3, "lam": 0.5}, [], None),
    "pair-skip": ("abs(x1-u1) + 0/(abs(x1) + abs(u1 - 3)) "
                  "+ 10*max(0, 1 - abs(x1))*max(0, 1 - abs(u1 - 2))", 4,
                  "triangle", {"x": 0, "y": 1, "z": 2}, [], None),
    "h-raise-mid-row": ("abs(x1-u1)", 4, "convex", "EvalError: division-by-zero",
                        [_h_raise_at(1, 2, 0.5), _h_inf_at(1, 3, 0)], None),
    "h-after-violation": (f"abs(x1-u1) + {_at(0, 1)}", 4, "convex",
                          {"x0": 0, "x": 0, "y": 2, "lam": 0.5},
                          [_h_inf_at(0, 3, 0)], None),
    "h-two-xy-first": ("abs(x1-u1)", 4, "convex", "non-finite: H((0.0), (0.0), 0.5)",
                       [_h_inf_at(0, 0, 0.5)], CAP_AXES),
    "h-two-x0y0-first": (f"abs(x1-u1) + {_at(0, 1)}", 4, "convex",
                         "non-finite: H((0.0), (2.0), 0.5)",
                         [_h_inf_at(0, 2, 0.5)], CAP_AXES),
    "h-misses-end-one": ("abs(x1-u1)", 4, "convex", {"x0": 0, "x": 0, "y": 2, "lam": 0},
                         ["0.125*(1-l)*max(0, 1 - abs(u1 - 2))"], None),
    "h-misses-end-two": ("abs(x1) + 0*u1", 4, "convex",
                         {"x": 1, "y": 0, "x0": 0, "y0": 0, "lam": 1},
                         ["0.125*max(0, 2*l - 1)*max(0, 1 - abs(x1 - 1))"], None),
    "g-raises-at-an-end-two": ("abs(x1-u1) + 0/(abs(x1 - 4) + abs(u1 - 4))", 8, "convex",
                               "EvalError: division-by-zero", [], END_CAP_AXES),
}


@pytest.mark.parametrize("name", list(PLANTED_GEOMETRY))
def test_planted_axiom_and_convex_answers_match_scalar_loops(name, monkeypatch):
    g, n, kind, landing, terms, capped = PLANTED_GEOMETRY[name]
    cap, axes, lams = capped or (None, None, [0, 0.5, 1])
    doc = {"dimension": 1, "g": g, "sets": {"A": {"box": [[0, n - 1]], "resolution": [n]}},
           "convex": {"exprs": [" + ".join(["l*x1 + (1-l)*u1", *terms])], "r": [0], "s": [0],
                      "lambda_grid": lams},
           "tolerances": {"eps_ineq": 0.0}}
    if cap is not None:
        monkeypatch.setattr(gspace, "MAX_TUPLES", cap)
    _assert_geometry(doc, convex_set="A" if kind == "convex" else None, axes=axes)
    if isinstance(landing, str):
        assert landing in _outcome(cli.run_check, instance_from_dict(doc), f"{kind}:g:set=A")
        return
    report = cli.run_check(instance_from_dict(doc), f"{kind}:g:set=A")
    assert report.falsified
    assert {k: v if k == "lam" else v.coords[0]
            for k, v in report.witness.items()} == landing


# Planted starshaped inputs: the box {0, 1, 2, 3} about r = 0 under
# lambdas [0, 0.5, 1], where H(0, x, l) = (1 - l)*x stays in the box but for
# a term at one (x, l) = (u1, l), in the names _at and _raise_at take.  The
# scan's row is (x, l) in that order, and (2, 0.5) is its middle.
XL = ("u1", "l")
PLANTED_STARSHAPED = {
    "raise": ([_raise_at(2, 0.5, XL)], "division-by-zero"),
    "infinite": ([f"{_at(2, 0.5, XL)}*1e308*4"], "non-finite: H((0.0), (2.0), 0.5)"),
    "escape-then-raise": ([f"8*{_at(1, 0.5, XL)}", _raise_at(2, 0.5, XL)],
                          "'lam': 0.5, 'image': Point(coords=(8.5,)"),
    "raise-then-escape": ([_raise_at(1, 0.5, XL), f"8*{_at(2, 0.5, XL)}"],
                          "division-by-zero"),
    "escape-last": ([f"8*{_at(3, 1, XL)}"], "'lam': 1.0, 'image': Point(coords=(8.0,)"),
}


@pytest.mark.parametrize("name", list(PLANTED_STARSHAPED))
def test_planted_starshaped_answers_match_scalar_loops(name):
    terms, landing = PLANTED_STARSHAPED[name]
    doc = {"dimension": 1, "g": "abs(x1-u1)",
           "sets": {"A": {"box": [[0, 3]], "resolution": [4]}},
           "convex": {"exprs": [" + ".join(["l*x1 + (1-l)*u1", *terms])],
                      "r": [0], "s": [0], "lambda_grid": [0, 0.5, 1]}}
    _assert_geometry(doc)
    assert landing in _outcome(cli.run_check, instance_from_dict(doc), "starshaped:A")


# Proven-symmetric gauges (GFunction.symmetric): the identity and symmetry
# scans read the pairs (x, y) with y after x, the triangle the triples with
# z after x, and a banach scan whose rows are its columns the tuples of its
# upper triangle, for the check, the estimate and a sweep.  The references
# walk the whole square or cube.  A is cut under SYMMETRIC_CAP at seeds 0
# and 7, and the reference cuts it by conftest.reference_indices; the
# gauges are the l1 gauge plus a bump at a pair and at its mirror, or a
# random tree and its mirror under +, - or *, which mirror_sign proves.
SYMMETRIC_CAP = 400  # a box of more than 20 points is cut to 20 for pairs, 7 for triples
SWEEP = [0.25, 0.5, 0.9375]
MIRROR = {"x1": "u1", "x2": "u2", "u1": "x1", "u2": "x2"}


class SymmetricReference(Reference):
    """Full-square and full-cube scalar loops over the points of A that a
    scan of each arity reads under SYMMETRIC_CAP at seed."""

    def __init__(self, inst, seed: int):
        super().__init__(inst)
        self.seed, self.geometry = seed, GeometryReference(inst)
        self.a = self.cut(2)

    def cut(self, arity: int) -> list:
        s = self.inst.set_("A")
        if s.mode != "box":
            return list(s.points)
        return [s.points[i] for i in reference_indices(len(s), arity, SYMMETRIC_CAP, self.seed)]

    def answer(self, kind: str, text: str):
        axiom = text.split(":")[0]
        if axiom in AXIOMS:
            return self.geometry.axiom(axiom, self.cut(3 if axiom == "triangle" else 2))
        if kind == "sweep":
            return self.banach("g", None), [self.banach("g", v) for v in SWEEP]
        return super().answer(kind, text)


def _symmetric_answer(inst, kind: str, text: str, seed: int):
    """The command line's answer at seed: run_check's report of a check,
    and of an estimate or a sweep what search gives."""
    if kind == "check":
        return cli.run_check(inst, text, seed)
    c = cli._Spec(inst, text)
    estimate, reports = cli._CHECKS[c.kind].sweep(c, seed, SWEEP if kind == "sweep" else [])
    return (estimate, reports) if kind == "sweep" else estimate


def _symmetric_subjects(rng: random.Random) -> list:
    subjects = [("check", f"{kind}:g:set=A") for kind in AXIOMS] + [
        ("check", f"banach:g:map=f:alpha={rng.choice(ALPHAS)!r}"),
        ("estimate", "banach:g:map=f"), ("sweep", "banach:g:map=f")]
    rng.shuffle(subjects)
    return subjects


def _assert_symmetric(doc: dict, subjects: list, seed: int) -> None:
    """Each subject alone on a fresh instance, and all in order on one,
    answer at seed as the full-square reference does, under SYMMETRIC_CAP."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gspace, "MAX_TUPLES", SYMMETRIC_CAP)
        shared = instance_from_dict(doc)
        assert shared.gauge("g").symmetric
        ref = SymmetricReference(instance_from_dict(doc), seed)
        want = [_outcome(ref.answer, *s) for s in subjects]
        alone = [_outcome(_symmetric_answer, instance_from_dict(doc), *s, seed)
                 for s in subjects]
        assert alone == want
        assert [_outcome(_symmetric_answer, shared, *s, seed) for s in subjects] == want


def _symmetric_gauge(rng: random.Random) -> str:
    if rng.random() < 0.5:
        a, b = rng.choice(COORDS), rng.choice(COORDS)
        bump = "max(0, 1 - abs(x1 - {}))*max(0, 1 - abs(u1 - {}))"
        return (f"abs(x1-u1) + abs(x2-u2) + {rng.choice((0.25, 1, 3))!r}*"
                f"({bump.format(a, b)} + {bump.format(b, a)})")
    tree = _renamed(random_expr(rng, 3), GAUGE_NAMES)
    pair = Binary(rng.choice(("add", "sub", "mul")), tree, _renamed(tree, MIRROR))
    return str(Unary("abs", pair) if rng.random() < 0.5 else pair)


def _symmetric_set(rng: random.Random) -> dict:
    """An exact set, a box under the cap, or one of more than 20 points."""
    if rng.random() < 0.3:
        return _random_set(rng)
    lo1, lo2 = rng.choice(COORDS[:4]), rng.choice(COORDS[:4])
    return {"box": [[lo1, lo1 + 1.0], [lo2, lo2 + 1.5]],
            "resolution": rng.choice(([2, 3], [4, 5], [5, 5], [3, 8], [6, 6]))}


@pytest.mark.parametrize("seed", [0, 7])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(draw=st.integers(0, 2 ** 32 - 1))
def test_symmetric_gauge_answers_match_full_square_scalar_loops(seed, draw):
    rng = random.Random(draw)
    a = _symmetric_set(rng)
    maps = ["x1/2", "x2/2"] if rng.random() < 0.5 else [
        str(_renamed(random_expr(rng, 2), MAP_NAMES)) for _ in range(2)]
    doc = {"dimension": 2, "g": _symmetric_gauge(rng), "sets": {"A": a, "B": a},
           "maps": {"f": {"exprs": maps, "domain": "A", "codomain": "A"}},
           "tolerances": {"eps_ineq": rng.choice((0.0, 1e-9))}}
    _assert_symmetric(doc, _symmetric_subjects(rng), seed)


def _pair(term, a: float, b: float) -> str:
    """term at (a, b) plus term at (b, a): a pair and its mirror."""
    return f"({term(a, b)} + {term(b, a)})"


def _nan_pair(a: float, b: float) -> str:
    """NaN at (a, b) and (b, a), inf - inf, and 0 elsewhere."""
    return f"({_pair(_inf_at, a, b)} - {_pair(_inf_at, a, b)})"


# Planted on A = {0, 1, 2, 4, 8} (the exact set) or the box of 0..7 under
# abs(x1-u1) and terms at a pair and at its mirror, so that the first hit of
# the full scan, with y or z after x, has its mirror in the half a
# symmetric scan skips.  The cap cuts the box of 0..7 to 7 points for the
# triangle, without 3 at seed 0 and without 6 at seed 7.
# The banach subjects map x to x/2, whose images 0.5 and 2 are the points 1
# and 4, with alpha 1/2 and eps_ineq 1/4, as in PLANTED_CONTRACTIONS.  Each
# entry gives its set, its gauge, the check the landing pins, and the
# witness of that check or a part of its error.
EXACT = {"points": [[0.0], [1.0], [2.0], [4.0], [8.0]]}
BOX = {"box": [[0, 7]], "resolution": [8]}
PLANTED_SYMMETRIC = {
    "identity-zero": (EXACT, f"abs(x1-u1)*(1 - {_pair(_at, 2, 4)})", "identity",
                      {"x": 2, "y": 4}),
    "identity-raise": (BOX, f"abs(x1-u1) + {_pair(_raise_at, 3, 6)}", "identity",
                       "division-by-zero"),
    "symmetry-inf": (BOX, f"abs(x1-u1) + {_pair(_inf_at, 2, 5)}", "symmetry",
                     "g((2.0), (5.0)) = inf"),
    "symmetry-nan": (EXACT, f"abs(x1-u1) + {_nan_pair(1, 8)}", "symmetry",
                     "g((1.0), (8.0)) = nan"),
    "triangle-late": (BOX, f"abs(x1-u1) + 3*{_pair(_at, 2, 7)}", "triangle",
                      {"x": 2, "y": 1, "z": 7}),
    "triangle-raise": (BOX, f"abs(x1-u1) + {_pair(_raise_at, 5, 7)}", "triangle",
                       "division-by-zero"),
    "banach-violation": (EXACT, f"abs(x1-u1) + {_pair(_at, 0.5, 2)}", "banach",
                         {"x": 1, "y": 4}),
    "banach-lhs-inf": (EXACT, f"abs(x1-u1) + {_pair(_inf_at, 0.5, 2)}", "banach",
                       "g((0.5), (2.0)) = inf"),
    "banach-den-raise": (EXACT, f"abs(x1-u1) + {_pair(_raise_at, 2, 8)}", "banach",
                         "division-by-zero"),
    "banach-nan": (EXACT, f"abs(x1-u1) + {_nan_pair(1, 8)}", "banach",
                   "g((1.0), (8.0)) = nan"),
}
PLANTED_SUBJECTS = [("check", f"{kind}:g:set=A") for kind in AXIOMS] + [
    ("check", "banach:g:map=f:alpha=0.5"), ("estimate", "banach:g:map=f"),
    ("sweep", "banach:g:map=f")]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(PLANTED_SYMMETRIC))
def test_planted_symmetric_answers_match_full_square_scalar_loops(name, seed, monkeypatch):
    a, g, pinned, landing = PLANTED_SYMMETRIC[name]
    doc = {"dimension": 1, "g": g, "sets": {"A": a, "B": a},
           "maps": {"f": {"exprs": ["x1/2"], "domain": "A", "codomain": "A"}},
           "tolerances": {"eps_ineq": 0.25}}
    _assert_symmetric(doc, PLANTED_SUBJECTS, seed)
    monkeypatch.setattr(gspace, "MAX_TUPLES", SYMMETRIC_CAP)
    kind, text = next(s for s in PLANTED_SUBJECTS if s[1].startswith(pinned))
    if isinstance(landing, str):
        assert landing in _outcome(_symmetric_answer, instance_from_dict(doc), kind, text, seed)
        return
    report = _symmetric_answer(instance_from_dict(doc), kind, text, seed)
    assert {k: v.coords[0] for k, v in report.witness.items()} == landing


# The proximity kinds.  A reference of its own computes the core of (A, B)
# from the whole matrix of abs(g) through expr.evaluate, row by row in scan
# order, then answers semi-sharp and side-condition by scalar loops in the
# order the checks scan: a_g with its partners, and b_g against a_g.  The
# core reads only the blocks of B its interval bound cannot settle, so
# sets of more than 32 points, bands of several grid steps, plateaus at the
# level and a level that drops late are among the inputs.
class ProximityReference(GeometryReference):
    """The core and the proximity checks by scalar loops over evaluate."""

    def core(self):
        a, b = self.inst.set_("A").points, self.inst.set_("B").points
        eps = self.tol.eps_prox
        rows = [[self.gauge(x, y) for y in b] for x in a]
        d_g = min(map(min, rows))
        bands = [[abs(v - d_g) <= eps for v in row] for row in rows]
        partners = [[y for y, hit in zip(b, band) if hit] for band in bands]
        b_g = [y for y, *hits in zip(b, *bands) if any(hits)]
        return d_g, [(x, ys) for x, ys in zip(a, partners) if ys], b_g

    def semi_sharp(self) -> CheckReport:
        d_g, a_g, _ = self.core()
        for x, ys in a_g:
            if len(ys) > 1:
                return CheckReport("semi-sharp", FALSIFIED, {"a": x, "b1": ys[0], "b2": ys[1]},
                                   self.gauge(x, ys[1]), d_g,
                                   note="two distinct partners at the proximity level")
        return CheckReport("semi-sharp", HOLDS)

    def side_condition(self) -> CheckReport:
        d_g, a_g, b_g = self.core()
        r, s, target = self.inst.convex.r, self.inst.convex.s, 2.0 * d_g
        for x in b_g:
            for y, _ in a_g:
                lhs = self.gauge(r, x) + self.gauge(y, s)
                if not abs(lhs - target) <= self.tol.eps_ineq:
                    return CheckReport("side-condition", FALSIFIED, {"x": x, "y": y},
                                       lhs, target)
        return CheckReport("side-condition", HOLDS, note=f"target {target!r}")


def _assert_proximity(doc: dict) -> list:
    """semi-sharp and side-condition, each on a fresh instance of doc and
    in turn on one shared instance, whose core they share, answer through
    the command line as the reference does; returns the answers."""
    ref = ProximityReference(instance_from_dict(doc))
    want = [_outcome(ref.semi_sharp), _outcome(ref.side_condition)]
    specs = ["semi-sharp:g", "side-condition:g"]
    assert [_outcome(cli.run_check, instance_from_dict(doc), s) for s in specs] == want
    shared = instance_from_dict(doc)
    assert [_outcome(cli.run_check, shared, s) for s in specs] == want
    return want


def _proximity_set(rng: random.Random) -> dict:
    """An exact set of at most 6 points or a box of up to 81, most of them
    more than one leaf block of 32 points."""
    if rng.random() < 0.25:
        return _random_set(rng)
    lo1, lo2 = rng.choice(COORDS[:4]), rng.choice(COORDS[:4])
    resolution = rng.choice(([1, 40], [6, 6], [5, 9], [9, 9]))
    width = rng.choice((0.5, 1.0)) if resolution[0] > 1 else 0.0
    return {"box": [[lo1, lo1 + width], [lo2, lo2 + 1.0]], "resolution": resolution}


def _proximity_doc(rng: random.Random) -> dict:
    """A random gauge, or the l1 gauge with a bump, or one flat in u2 above
    a cut, over random sets, with a band of 0 to 8 grid steps of 1/8."""
    cut = rng.choice(COORDS)
    g = rng.choice((
        str(_renamed(random_expr(rng, 3), GAUGE_NAMES)),
        _metric_gauge(rng),
        f"abs(x1-u1) + abs(min(x2, {cut!r}) - min(u2, {cut!r}))",
        f"1 + max(u2 - {cut!r}, 0)*x1*{rng.choice((0, 0.125))!r}",
    ))
    a, b = _proximity_set(rng), _proximity_set(rng)
    if "box" in a and "box" in b and rng.random() < 0.5:
        b["box"][0] = [v + 1.0 for v in b["box"][0]]  # B beside A
    return {
        "dimension": 2, "g": g, "sets": {"A": a, "B": b},
        "convex": {"exprs": ["l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"],
                   "r": [rng.choice(COORDS), 0.0], "s": [0.0, rng.choice(COORDS)],
                   "lambda_grid": [0, 1]},
        "tolerances": {"eps_prox": rng.choice((1e-9, 0.125, 0.25, 1.0)),
                       "eps_ineq": rng.choice((0.0, 0.125, 1.0))},
    }


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_proximity_answers_match_scalar_loops(seed):
    _assert_proximity(_proximity_doc(random.Random(seed)))


def _column(x1: float, n: int) -> dict:
    """{x1} x the grid t/64, t < n."""
    return {"box": [[x1, x1], [0, (n - 1) / 64]], "resolution": [1, n]}


# Planted, with the witnesses each check must give (None: it holds).
# "whole-product": every pair of A x B is at the level 1, as in the bench's
# side-condition jobs, so every row after the first is one proven block;
# the side condition fails first at x2 = 5/8.  "plateau": as in the bench's
# semi-sharp jobs, every a at or above the cut 5/8 has every b at or above
# it as partners; in their rows the leaf of B that holds the cut is read
# and the block above it is proven.  In the last two, every row of A but
# the last lies in [1, 1 + 1/128] below u = 3/4, where the blocks (0, 64)
# and (64, 96) are proven at the level 1, and rises steeply above it; the
# last row lowers the level.  "drop-deep": to 3/4, past the band of 1/32,
# below u = 1/2, so the proven blocks are read again, (64, 96) in the last
# row and both in every row before, and only the last row's first 9 points
# of B are in band.  "drop-shallow": to 63/64, inside the band, so every
# proven block is kept whole.
PLANTED_PROXIMITY = {
    "whole-product": (
        {"dimension": 2, "g": "abs(x1-u1) + max(u2 - 0.6171875, 0)*max(-x1, 0)",
         "A": _column(0.0, 64), "B": _column(1.0, 64), "r": [-1, 0], "s": [0, 0]},
        {"a": (0, 0), "b1": (1, 0), "b2": (1, 1 / 64)}, {"x": (1, 0.625), "y": (0, 0)}),
    "plateau": (
        {"dimension": 2, "g": "abs(x1-u1) + abs(min(x2, 0.625) - min(u2, 0.625))",
         "A": _column(0.0, 64), "B": _column(1.0, 128), "r": [-1, 0], "s": [0, 0]},
        {"a": (0, 0.625), "b1": (1, 0.625), "b2": (1, 0.640625)},
        {"x": (1, 0), "y": (0, 1 / 64)}),
    "drop-deep": (
        {"dimension": 1,
         "g": "1 + max(0, u1 - 0.5)/64 + 4*max(0, u1 - 0.75) "
              "- max(0, 64*x1 - 63)*max(0, 0.5 - u1)/2",
         "A": {"box": [[0, 1]], "resolution": [33]},
         "B": {"box": [[0, 1]], "resolution": [129]}, "r": [1], "s": [0]},
        {"a": (1,), "b1": (0,), "b2": (1 / 128,)}, None),
    "drop-shallow": (
        {"dimension": 1,
         "g": "1 + max(0, u1 - 0.5)/64 + 4*max(0, u1 - 0.75) - max(0, 64*x1 - 63)/64",
         "A": {"box": [[0, 1]], "resolution": [33]},
         "B": {"box": [[0, 1]], "resolution": [129]}, "r": [1], "s": [0]},
        {"a": (0,), "b1": (0,), "b2": (1 / 128,)}, None),
}


@pytest.mark.parametrize("name", list(PLANTED_PROXIMITY))
def test_planted_proximity_answers_match_scalar_loops(name):
    planted, semi_sharp, side_condition = PLANTED_PROXIMITY[name]
    d = planted["dimension"]
    doc = {"dimension": d, "g": planted["g"],
           "sets": {"A": planted["A"], "B": planted["B"]},
           "convex": {"exprs": [f"l*x{i} + (1-l)*u{i}" for i in range(1, d + 1)],
                      "r": planted["r"], "s": planted["s"], "lambda_grid": [0, 1]},
           "tolerances": {"eps_prox": 1 / 32, "eps_ineq": 1 / 16} if d == 1 else {}}
    _assert_proximity(doc)
    inst = instance_from_dict(doc)
    for spec, witness in (("semi-sharp:g", semi_sharp), ("side-condition:g", side_condition)):
        report = cli.run_check(inst, spec)
        assert report.falsified == (witness is not None)
        assert {k: p.coords for k, p in (report.witness or {}).items()} == (witness or {})


# solve --scheme proximal.  A reference of its own iterates by scalar loops
# over expr.evaluate: it tests the image of every realising point, as the
# solver's image test does, then selects at each step, among the points u of
# A with abs(g(u, f(p))) within eps_prox of the level, the one with the
# least residual, ties broken by coordinates.  Every mate row is read whole,
# so it raises at its first offending tuple, as ProximalCore.mates must.
class IterationReference(ProximityReference):
    """The proximity iteration by scalar loops over evaluate."""

    def fmap(self, p: Point) -> Point:
        """f(p), raising MapSpec.apply's error; the image is kept, as the
        gauge values are keyed by the ids of their points."""
        key = ("f", id(p))
        if key not in self.memo:
            env = dict(zip(GFunction._var_names(p.dimension), p.coords))
            try:
                coords = tuple(evaluate(e, env) for e in self.inst.map_("f").exprs)
                if not all(map(math.isfinite, coords)):
                    raise GSpaceError(f"map 'f' produced non-finite image at {p}")
                self.memo[key] = Point(coords)
            except (EvalError, GSpaceError) as exc:
                self.memo[key] = exc
        return self._value(key)

    def iterate(self, max_iter: int) -> tuple:
        """The points, step residuals, proximity residuals and verdict of
        the run from the first realising point."""
        d_g, a_g, _ = self.core()
        a, eps = self.inst.set_("A").points, self.tol.eps_prox

        def mates(y: Point) -> list:
            return [u for u in a if abs(self.gauge(u, y) - d_g) <= eps]

        for x, _ in a_g:
            if not mates(self.fmap(x)):
                raise gspace.NoProximalMate(
                    f"image of realising point {x} has no proximity mate; "
                    f"the map does not send the realising set into its partner")
        p = a_g[0][0]
        points, steps, verdict = [p], [], "max_iter"
        proximity = [abs(self.gauge(p, self.fmap(p)) - d_g)]
        for _ in range(max_iter):
            fp = self.fmap(p)
            near = mates(fp)
            if not near:
                verdict = "no_proximal_mate"
                break
            q = min(near, key=lambda u: (abs(self.gauge(u, fp) - d_g), u.coords))
            steps.append(self.gauge(p, q))
            points.append(q)
            proximity.append(abs(self.gauge(q, self.fmap(q)) - d_g))
            p = q
            if steps[-1] <= self.tol.eps_zero and proximity[-1] <= eps:
                verdict = "converged"
                break
        return points, steps, proximity, verdict


SOLVE_ARGS = ["solve", "--config", "unread.json", "--scheme", "proximal", "--max-iter", "40"]


def _solved(doc: dict) -> tuple:
    args = cli.build_parser().parse_args(SOLVE_ARGS)
    trace = cli.solve(instance_from_dict(doc), args)[1]
    return trace.points, trace.step_residuals, trace.proximity_residuals, trace.verdict


def _assert_iteration(doc: dict) -> str:
    """solve --scheme proximal answers as the reference does, by repr;
    returns the answer."""
    want = _outcome(IterationReference(instance_from_dict(doc)).iterate, 40)
    assert _outcome(_solved, doc) == want
    return want


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_proximal_iteration_matches_a_scalar_iteration(seed):
    rng = random.Random(seed)
    doc = _proximity_doc(rng)
    if rng.random() < 0.5:
        exprs = [str(_renamed(random_expr(rng, 2), MAP_NAMES)) for _ in range(2)]
    else:
        exprs = [f"x1 + {rng.choice((0.5, 1.0, 1.5))!r}", f"{rng.choice((0.5, 1.0))!r}*x2"]
    doc["maps"] = {"f": {"exprs": exprs, "domain": "A", "codomain": "B"}}
    _assert_iteration(doc)


# Planted on A = the grid t/64 of [0, 1] and B = {2, 4} under the l1 gauge:
# the level is 1, realised at (1, 2) alone.  "halving": f(x) = 1 + x/2, off
# B but for x = 2; each image 1 + q/2 has the mate q/2 until q = 1/64, whose
# image has the mates 0 and 1/64 at equal residuals, and 0 wins by
# coordinates; the run converges at 0.  "raise-after-first-mate": g also
# divides by zero at (3/4, 5/4), so the row of the second image, 5/4, raises
# after its mate 1/4.  "no-mate-mid-run": the image 13/4 of 1/2 has no mate.
# "no-mate-at-start": the image 6 of 1 has none.
PLANTED_ITERATIONS = {
    "halving": ("abs(x1-u1)", "1 + x1/2", "'converged'"),
    "raise-after-first-mate": ("abs(x1-u1) + 0/(abs(x1 - 0.75) + abs(u1 - 1.25))", "1 + x1/2",
                               "EvalError: division-by-zero"),
    "no-mate-mid-run": ("abs(x1-u1)", "1.5 + 7*max(0, 0.75 - x1)", "'no_proximal_mate'"),
    "no-mate-at-start": ("abs(x1-u1)", "x1 + 5", "NoProximalMate: image of realising point (1.0)"),
}


@pytest.mark.parametrize("name", list(PLANTED_ITERATIONS))
def test_planted_proximal_iterations_match_a_scalar_iteration(name):
    g, f, landing = PLANTED_ITERATIONS[name]
    doc = {"dimension": 1, "g": g,
           "sets": {"A": {"box": [[0, 1]], "resolution": [65]}, "B": {"points": [[2], [4]]}},
           "maps": {"f": {"exprs": [f], "domain": "A", "codomain": "B"}}}
    assert landing in _assert_iteration(doc)
