"""Contraction-class hypothesis checks on sampled instances.

Three families are covered: the plain contraction inequality for self or
cross maps (abs(g(Tx, Ty)) <= alpha * abs(g(x, y))), the proximal weak
contraction (quadruples whose images realise the proximity level), and its
non-expansive variant, which is the same inequality with beta pinned to 1.
All checks are falsifiers over deterministic scans; grid instances are
subsampled under a tuple cap, exact finite sets are enumerated exhaustively.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import compress, count, repeat, zip_longest
from operator import add, le, not_, sub
from typing import Callable, Mapping, Optional, Sequence, Union

from .expr import Expr, compile_expr, parse
from .gspace import (
    CheckReport,
    GFunction,
    GSpaceError,
    MAX_QUALIFYING_POINTS,
    Point,
    ProximalCore,
    SampleSet,
    ToleranceSet,
    _HOLDS,
    _capped,
    _check_names,
    _checked_point,
    _checked_set,
    _falsified,
    eval_g,
)

__all__ = [
    "MapSpec",
    "check_banach_contraction",
    "estimate_coefficient",
    "check_proximal_inequality",
    "estimate_proximal_coefficient",
    "qualifying_pairs",
    "banach_sides",
    "proximal_sides",
]

class MapSpec:
    """A coordinatewise map given by expressions over x1..xd, with sampled
    domain and codomain."""

    def __init__(
        self,
        exprs: Sequence[Union[Expr, str]],
        domain: SampleSet,
        codomain: SampleSet,
        name: str = "T",
    ):
        parsed = tuple(parse(e) if isinstance(e, str) else e for e in exprs)
        d = domain.dimension
        if len(parsed) != d:
            raise GSpaceError(
                f"map {name!r} needs {d} coordinate expressions, got {len(parsed)}"
            )
        _check_names(parsed, GFunction._var_names(d)[:d], f"map {name!r}")
        self.exprs = parsed
        self.domain = domain
        self.codomain = codomain
        self.name = name
        self.dimension = d

    @cached_property
    def _fns(self) -> tuple[Callable[..., float], ...]:
        """The scalar callables, compiled on the first apply."""
        names = GFunction._var_names(self.dimension)[: self.dimension]
        return tuple(compile_expr(e, names) for e in self.exprs)

    def apply(self, p: Point) -> Point:
        coords = p.coords
        if len(coords) != self.dimension:
            raise GSpaceError(f"map {self.name!r} applied to wrong dimension")
        image = tuple([fn(*coords) + 0.0 for fn in self._fns])  # normalises -0.0
        if not all(map(math.isfinite, image)):
            raise GSpaceError(f"map {self.name!r} produced non-finite image at {p}")
        return _checked_point(image)

    def __repr__(self) -> str:
        body = ", ".join(str(e) for e in self.exprs)
        return f"MapSpec({self.name}=[{body}])"


def banach_sides(
    g: GFunction,
    t: MapSpec,
    alpha: float,
    witness: Mapping[str, Point],
    tx: Optional[Point] = None,
    ty: Optional[Point] = None,
) -> tuple[float, float]:
    """abs(g(Tx, Ty)) against alpha * abs(g(x, y)) at a witness pair; a scan
    passes the images it holds as tx and ty."""
    x, y = witness["x"], witness["y"]
    if tx is None:
        tx, ty = t.apply(x), t.apply(y)
    return abs(eval_g(g, tx, ty)), alpha * abs(eval_g(g, x, y))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise GSpaceError(f"alpha must lie in (0, 1), got {alpha!r}")


def _report(
    rows, check: str, beta: float, n_cap: float, hit, vacuous: bool = False
) -> CheckReport:
    """The report of a check at one coefficient, hit being the first
    offending tuple of the scan over rows (see _scan), None when none is."""
    if hit is None:
        return CheckReport(check, _HOLDS, beta=beta, n_cap=n_cap, vacuous=vacuous)
    return _falsified(check, *rows.evaluate(beta, hit), beta=beta, n_cap=n_cap)


def _fold_row(best: float, nums: list, dens: list, zero: float, raise_at):
    """best folded with num / den over a kernel row in scan order, for dens
    above zero level; None at the first den at zero level whose num is above
    it, which makes the estimate infinite.  At a marked tuple before that,
    raise_at(index) raises the scalar loop's error."""
    n = mark = len(nums)
    if math.isnan(sum(nums) + sum(dens)):
        mark = next((i for i, v in enumerate(map(add, nums, dens)) if v != v), n)
        nums, dens = nums[:mark], dens[:mark]
    if any(num > zero for num, den in zip(nums, dens) if not den > zero):
        return None
    if mark < n:
        raise_at(mark)
    return max([best, *(num / den for num, den in zip(nums, dens) if den > zero)])


def _first_hit(rows, r: int, v: float, eps: float, marked=None) -> int:
    """The first index of row r at which not lhs <= v * a + b + eps (v * a
    + eps where b is None), or -1, over the marked rows (lhs, a, b) =
    rows.kernel(r), given or not.  Without them rows.first gives it from
    one loop, which gives the index of a tuple where it raises, as the
    marked rows mark it."""
    if marked is None:
        return rows.first(r, v, eps)
    lhs, a, b = marked
    rhs = ([v * p + eps for p in a] if b is None
           else [v * p + q + eps for p, q in zip(a, b)])
    return next(compress(count(), map(not_, map(le, lhs, rhs))), -1)


def _scan(rows, values: Sequence[float], tol: ToleranceSet, estimate: bool):
    """The one pass behind each contraction check, its estimate and the
    sweep of search, over the kernel rows of a _BanachRows or a _ProximalRows.

    Returns (best, hits).  hits[k] is the (row, index) of the first tuple in
    scan order that does not have lhs <= rhs + eps_ineq, rhs taken under the
    coefficient values[k], or None when every tuple has.  A marked tuple
    (see RowKernels.marked) never has it, so it is a hit whose report raises
    the scalar loop's error.  With estimate, best is the supremum of the
    tuples' num / den (see _fold_row), None when it is infinite; without,
    best is None.  A row the estimate folds is read as marked lists, which
    the fold needs; any other row is tested by rows.first, one loop per
    value that lists nothing and gives the same index, a tuple where it
    raises included (see _first_hit).
    The pass stops once no later row can change either result.
    """
    zero, eps = tol.eps_zero, tol.eps_ineq
    hits: list = [None] * len(values)
    # a larger coefficient never lowers a right side, whose terms are
    # non-negative: once one value holds on a whole row, every larger does
    order = sorted(range(len(values)), key=values.__getitem__)
    best: Optional[float] = 0.0 if estimate else None
    for r in range(rows.count):
        if best is None and None not in hits:
            break
        marked = None
        if best is not None:
            marked = lhs, a, b = rows.kernel(r)
            nums = lhs if b is None else list(map(sub, lhs, b))
            # a report evaluates its sides, so at a marked tuple it raises
            best = _fold_row(best, nums, a, zero,
                             lambda i: _falsified("", *rows.evaluate(1.0, (r, i))))
        for k in order:
            if hits[k] is not None:
                continue
            i = _first_hit(rows, r, values[k], eps, marked)
            if i < 0:
                break
            hits[k] = (r, i)
    return best, hits


def _estimate(rows, tol: ToleranceSet, sweep: Optional[Sequence[float]], estimate: bool):
    """The estimate, None without estimate; with sweep, (estimate, reports),
    reports holding the check's report at each swept value.  A check is the
    sweep of its one value without the estimate.

    The pass sweeps the values before the first that rows.validate rejects,
    and building that value's report raises its error.  So errors come in
    the order of the estimate followed by one check per value.
    """
    values: list[float] = []
    for v in sweep or ():
        try:
            rows.validate(v)
        except GSpaceError:
            break
        values.append(v)
    best, hits = _scan(rows, values, tol, estimate)
    if estimate and best is None:
        best = math.inf
    if sweep is None:
        return best
    return best, [rows.report(v, hit) for v, hit in zip_longest(sweep, hits)]


def _firsts(pts: Sequence[Point], images: Sequence[Point], reads) -> list[int]:
    """The index of the first point in order of each class of pts that agree,
    and whose images agree, on the coordinates reads."""
    first: dict = {}
    for i, pair in enumerate(zip(pts, images)):
        first.setdefault(tuple(p.coords[k] for p in pair for k in reads), i)
    return list(first.values())


class _BanachRows:
    """The contraction scan: one row per sampled x, its tuples (x, y) over
    the sampled y.  lhs abs(g(Tx, Ty)) and rhs alpha * abs(g(x, y)); the
    estimate's terms are the two sides at alpha = 1.  first tests a row
    under one alpha in one loop (RowKernels.first_banach), which lists
    nothing; kernel gives the marked rows that the estimate folds.

    Rows and columns are read once per class (see _firsts) of the points g
    cannot tell apart, x on the coordinates it reads on its x side and y on
    its u side: a later point of a class holds the same doubles and marks
    as the first, which comes before it in scan order, so the first hit of
    every pass, and its fold, are those of the whole scan.  When g is
    symmetric (see GFunction.symmetric) and the rows are the columns, row
    r reads the columns from start(r) = r on: the tuple (y, x) holds the
    doubles and marks of (x, y), which comes before it."""

    def __init__(self, g: GFunction, t: MapSpec, seed: int):
        self.g, self.t = g, t
        self.pts = _capped(t.domain.points, t.domain.mode == "box", 2, seed)
        self.images = [t.apply(p) for p in self.pts]
        self.rows, self.cols = (_firsts(self.pts, self.images, k) for k in g.reads)
        self.coords = [self.pts[i].coords for i in self.cols]
        self.image_coords = [self.images[i].coords for i in self.cols]
        self.count = len(self.rows)
        self.half = g.symmetric and self.rows == self.cols

    validate = staticmethod(_check_alpha)

    def start(self, r: int) -> int:
        """The first column row r reads; its kernel and first index the
        columns from there."""
        return r if self.half else 0

    def kernel(self, r: int) -> tuple:
        """Marked rows (lhs, a, None), rhs being alpha * a."""
        k, x, c = self.g.kernels, self.rows[r], self.start(r)
        lhs = k.marked(repeat(self.images[x].coords), self.image_coords[c:])
        return lhs, k.marked(repeat(self.pts[x].coords), self.coords[c:]), None

    def first(self, r: int, alpha: float, eps: float) -> int:
        """The first hit of kernel(r) under alpha, from one loop that lists
        nothing; a tuple where the kernel's text raises is a hit."""
        x, c = self.rows[r], self.start(r)
        return self.g.kernels.first_banach(self.images[x].coords, self.image_coords[c:],
                                           self.pts[x].coords, self.coords[c:], alpha, eps)

    def evaluate(self, alpha: float, hit) -> tuple:
        """(sides, witness) at the tuple hit = (row, index into kernel's
        row), sides(witness) being its two sides under alpha."""
        r, i = self.rows[hit[0]], self.cols[self.start(hit[0]) + hit[1]]
        return partial(banach_sides, self.g, self.t, alpha, tx=self.images[r],
                       ty=self.images[i]), {"x": self.pts[r], "y": self.pts[i]}

    def report(self, alpha: float, hit) -> CheckReport:
        _check_alpha(alpha)
        return _report(self, "banach-contraction", alpha, 0.0, hit)


def check_banach_contraction(
    g: GFunction,
    t: MapSpec,
    alpha: float,
    tol: ToleranceSet,
    seed: int = 0,
) -> CheckReport:
    """Falsified when some sampled pair has abs(g(Tx, Ty)) above
    alpha * abs(g(x, y)) by more than eps_ineq."""
    _check_alpha(alpha)
    return _estimate(_BanachRows(g, t, seed), tol, [alpha], False)[1][0]


def estimate_coefficient(
    g: GFunction,
    t: MapSpec,
    tol: ToleranceSet,
    seed: int = 0,
    sweep: Optional[Sequence[float]] = None,
):
    """Tightest contraction coefficient supported by the sample.

    The supremum of abs(g(Tx, Ty)) / abs(g(x, y)) over pairs whose gauge is
    above zero level.  A pair at zero level with a non-zero image gauge makes
    the estimate infinite.  Returns 0.0 when no pair constrains the ratio.

    With sweep, a list of alphas, the same pass checks each of them and the
    result is (estimate, reports), reports holding check_banach_contraction's
    report for each alpha.  check_banach_contraction runs the same pass
    without the estimate's terms.
    """
    return _estimate(_BanachRows(g, t, seed), tol, sweep, True)


def qualifying_pairs(
    f: MapSpec, core: ProximalCore, seed: int = 0
) -> list[tuple[Point, Point]]:
    """Pairs (x, u) of sampled points of the core's A with abs(g(u, f(x)))
    at its proximity level; these are the building blocks of the quadruple
    scans.  A box sample contributes at most 2000 points.  The points u of
    each image are the core's answer (ProximalCore.mates_of), over that
    subsample when A is capped; every image is built before the first is
    asked."""
    a = core.a
    pts = _capped(a.points, a.mode == "box", 1, seed, cap=MAX_QUALIFYING_POINTS)
    sub = None
    if len(pts) < len(a):  # a SampleSet reads its coordinate row once
        a = sub = _checked_set(tuple(pts), a.name)
    images = [f.apply(x) for x in a.points]
    return [(x, u) for x, mates in zip(a.points, core.mates_of(images, sub)) for u in mates]


def proximal_sides(
    g: GFunction,
    witness: Mapping[str, Point],
    beta: float,
    n_cap: float,
) -> tuple[float, float]:
    """Both sides of the proximal inequality at a witness quadruple, from
    abs(g(u1, u2)), abs(g(x1, x2)) and abs(g(x2, u1)), evaluated in that
    order."""
    x1, x2, u1 = witness["x1"], witness["x2"], witness["u1"]
    g_uu, g_xx = abs(eval_g(g, u1, witness["u2"])), abs(eval_g(g, x1, x2))
    return g_uu, beta * g_xx + n_cap * abs(eval_g(g, x2, u1))


def _proximal_name(beta: float, n_cap: float) -> str:
    """The check's name, once beta and N are known to be admissible."""
    if not 0.0 < beta <= 1.0:
        raise GSpaceError(f"beta must lie in (0, 1], got {beta!r}")
    if not 0.0 <= n_cap < math.inf:  # written so that a NaN fails it
        raise GSpaceError(f"N must be non-negative and finite, got {n_cap!r}")
    return "proximal-berinde" if beta == 1.0 else "proximal-weak"


class _ProximalRows:
    """The quadruple scan: one row per qualifying pair (x1, u1), its tuples
    the qualifying pairs (x2, u2).  lhs abs(g(u1, u2)) and rhs beta *
    abs(g(x1, x2)) + N * abs(g(x2, u1)); the estimate's terms are lhs - N *
    abs(g(x2, u1)) over abs(g(x1, x2)).  first tests a row under one beta
    in one loop (RowKernels.first_proximal), which lists nothing; kernel
    gives the marked rows that the estimate folds.  Exact sets give every
    qualifying pair, grids the pairs under the quadruple cap."""

    def __init__(self, f, n_cap, core, seed):
        self.g, self.n_cap = core.g, n_cap
        pairs = qualifying_pairs(f, core, seed=seed)
        self.pairs = _capped(pairs, core.a.mode == "box", 2, seed)
        self.count = len(self.pairs)
        self.xs = [x.coords for x, _ in self.pairs]
        self.us = [u.coords for _, u in self.pairs]

    def validate(self, beta: float) -> None:
        _proximal_name(beta, self.n_cap)

    def kernel(self, r: int) -> tuple:
        """Marked rows of abs(g(u1, u2)), abs(g(x1, x2)) and N * abs(g(x2,
        u1)), the right side being beta * the second plus the third."""
        x1, u1 = self.pairs[r]
        k = self.g.kernels
        g_uu = k.marked(repeat(u1.coords), self.us)
        g_xx = k.marked(repeat(x1.coords), self.xs)
        g_xu = k.marked(self.xs, repeat(u1.coords))
        return g_uu, g_xx, [self.n_cap * q for q in g_xu]

    def first(self, r: int, beta: float, eps: float) -> int:
        """The first hit of kernel(r) under beta, from one loop that lists
        nothing; a tuple where the kernel's text raises is a hit."""
        return self.g.kernels.first_proximal(self.us[r], self.us, self.xs[r], self.xs,
                                             beta, self.n_cap, eps)

    def evaluate(self, beta: float, hit) -> tuple:
        """(sides, witness) at the tuple hit = (row, index), sides(witness)
        being its two sides under beta."""
        (x1, u1), (x2, u2) = self.pairs[hit[0]], self.pairs[hit[1]]
        return (partial(proximal_sides, self.g, beta=beta, n_cap=self.n_cap),
                {"x1": x1, "x2": x2, "u1": u1, "u2": u2})

    def report(self, beta: float, hit) -> CheckReport:
        check_name = _proximal_name(beta, self.n_cap)
        return _report(self, check_name, beta, self.n_cap, hit, not self.pairs)


def check_proximal_inequality(
    f: MapSpec,
    beta: float,
    n_cap: float,
    core: ProximalCore,
    tol: ToleranceSet,
    seed: int = 0,
) -> CheckReport:
    """Check the proximal contraction inequality over qualifying quadruples.

    Quadruples (x1, x2, u1, u2) from the core's A with both abs(g(u_i,
    f(x_i))) at its proximity level, g the core's gauge, must satisfy abs(g(u1, u2)) <= beta * abs(g(x1, x2)) +
    n_cap * abs(g(x2, u1)).  beta below 1 is the weak-contraction mode and
    beta equal to 1 the non-expansive mode; the two definitions differ only
    in that coefficient, so they share this code path.  Finding no qualifying
    quadruple at all is reported as a vacuous hold, never silently.
    """
    _proximal_name(beta, n_cap)
    return _estimate(_ProximalRows(f, n_cap, core, seed), tol, [beta], False)[1][0]


def estimate_proximal_coefficient(
    f: MapSpec,
    n_cap: float,
    core: ProximalCore,
    tol: ToleranceSet,
    seed: int = 0,
    sweep: Optional[Sequence[float]] = None,
):
    """Tightest beta supported by the core's qualifying quadruples, given N.

    The supremum of (abs(g(u1, u2)) - N * abs(g(x2, u1))) / abs(g(x1, x2))
    over quadruples whose denominator is above zero level; infinite when a
    zero-level denominator meets a positive numerator.  Returns 0.0 when no
    quadruple constrains the ratio (including the vacuous case).

    With sweep, a list of betas, the same pass checks each of them and the
    result is (estimate, reports), reports holding check_proximal_inequality's
    report for each beta.  check_proximal_inequality runs the same pass
    without the estimate's terms.
    """
    return _estimate(_ProximalRows(f, n_cap, core, seed), tol, sweep, True)
