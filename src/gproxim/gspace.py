"""Sampled point sets under a bivariate gauge function.

A "gauge" g is a continuous real-valued function of two points; it may be
negative and asymmetric, so it is not a metric.  All definitional checks in
this module apply abs() at the use site and work on finite samples: grids
discretise bounded boxes, exact lists represent finite sets.  Axiom-style
checks are falsifiers, not verifiers; "holds-on-sample" is the strongest
verdict a finite scan can return.

Every type here is immutable after construction and every operation is pure,
so scans can run concurrently on shared instances.  Witness searches use a
fixed deterministic order (list order, ties broken lexicographically by
coordinates) so that reports are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, compress, count, cycle, islice, repeat, takewhile
from operator import length_hint
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .expr import (
    EvalError,
    Expr,
    RowKernels,
    compile_expr,
    compile_point_rows,
    compile_row_kernels,
    evaluate,
    mirror_sign,
    parse,
    variables,
)

__all__ = [
    "Point",
    "GFunction",
    "SampleSet",
    "SequencePrefix",
    "ProximalCore",
    "ConvexStructure",
    "ToleranceSet",
    "CheckReport",
    "SequenceReport",
    "GSpaceError",
    "ToleranceError",
    "DimensionMismatch",
    "NoProximalMate",
    "eval_g",
    "falsify_axiom",
    "classify_sequence",
    "enumerate_g_limits",
    "proximal_core",
    "proximal_select",
    "check_semi_sharp",
    "check_convex_structure",
    "check_starshaped",
    "check_side_condition",
]


class GSpaceError(Exception):
    """Base class for gauge-space errors."""


class DimensionMismatch(GSpaceError):
    pass


class NoProximalMate(GSpaceError):
    """No sample point realises the proximity level for the requested target."""


class ToleranceError(GSpaceError):
    """A tolerance out of its range: field names it, reason says why."""

    def __init__(self, field: str, value: float, requirement: str):
        self.field, self.reason = field, f"must be {requirement}, got {value!r}"
        super().__init__(f"{field} {self.reason}")


@dataclass(frozen=True, slots=True)
class Point:
    """A point of the ambient space: a fixed-length tuple of finite reals."""

    coords: tuple[float, ...]
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        coords = tuple(float(c) + 0.0 for c in self.coords)  # normalises -0.0
        if not coords:
            raise GSpaceError("point must have at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise GSpaceError(f"non-finite coordinates: {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        body = ", ".join(repr(c) for c in self.coords)
        return f"({body})"


_set_coords, _set_label = Point.coords.__set__, Point.label.__set__


def _checked_point(coords: tuple[float, ...]) -> Point:
    """Point(coords) without its checks, for coords that already pass them:
    a non-empty tuple of finite doubles, none of them -0.0."""
    point = object.__new__(Point)
    _set_coords(point, coords)
    _set_label(point, None)
    return point


def _check_names(exprs: Sequence[Expr], names: Sequence[str], what: str) -> None:
    """Raise GSpaceError at the first of exprs that reads a name outside names."""
    for i, e in enumerate(exprs):
        unknown = sorted(variables(e) - set(names))
        if unknown:
            raise GSpaceError(f"{what} coordinate {i + 1} references {unknown}")


def _as_point(value: Union[Point, Sequence[float], float]) -> Point:
    if isinstance(value, Point):
        return value
    if isinstance(value, (int, float)):
        return Point((float(value),))
    return Point(tuple(float(c) for c in value))


@dataclass(frozen=True)
class ToleranceSet:
    """Numeric tolerances for the sampled checks.

    eps_prox bands equality to the proximity level, eps_zero decides when a
    gauge value counts as zero, eps_ineq is the slack allowed before an
    inequality counts as violated, tail_len is the sequence tail window.
    """

    eps_prox: float = 1e-9
    eps_zero: float = 1e-9
    eps_ineq: float = 1e-9
    tail_len: int = 10

    def __post_init__(self):
        # each test is written so that a NaN fails it
        if not 0 < self.eps_prox < math.inf:
            raise ToleranceError("eps_prox", self.eps_prox, "positive and finite")
        if not 0 < self.eps_zero < math.inf:
            raise ToleranceError("eps_zero", self.eps_zero, "positive and finite")
        if not 0 <= self.eps_ineq < math.inf:
            raise ToleranceError("eps_ineq", self.eps_ineq, "non-negative and finite")
        if self.tail_len < 1:
            raise ToleranceError("tail_len", self.tail_len, "at least 1")


class GFunction:
    """A bivariate gauge: an expression over x1..xd (first point), u1..ud (second)."""

    def __init__(self, expr: Union[Expr, str], dimension: int, name: str = "g"):
        if isinstance(expr, str):
            expr = parse(expr)
        if dimension < 1:
            raise GSpaceError("dimension must be at least 1")
        unknown = sorted(variables(expr) - set(self._var_names(dimension)))
        if unknown:
            raise GSpaceError(
                f"gauge {name!r} references undeclared variables {unknown} "
                f"(dimension {dimension})"
            )
        self.expr = expr
        self.dimension = dimension
        self.name = name

    @property
    def symmetric(self) -> bool:
        """Whether expr.mirror_sign proves abs(g(y, x)) the same double as
        abs(g(x, y)) for all x and y, marked at the same tuples: every
        first-hit, first-mark and fold query of a scan over pairs in
        row-major order then has its answer in the upper triangle, since
        the mirror of a lower tuple comes before it.  Derived, never set."""
        return self._mirror_sign is not None

    @cached_property
    def _mirror_sign(self) -> Optional[int]:
        """mirror_sign of the expression, proven on the first pair scan."""
        return mirror_sign(self.expr)

    @cached_property
    def _fn(self) -> Callable[..., float]:
        """The scalar callable, compiled on the first eval_g."""
        return compile_expr(self.expr, self._var_names(self.dimension))

    @staticmethod
    def _var_names(d: int) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, d + 1)) + tuple(
            f"u{i}" for i in range(1, d + 1)
        )

    @cached_property
    def reads(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The indices of the coordinates the expression names on the x side
        and on the u side: two points that agree there give every value the
        same, bit for bit (0*x1 still reads x1)."""
        names, d = variables(self.expr), range(self.dimension)
        return tuple(i for i in d if f"x{i + 1}" in names), tuple(
            i for i in d if f"u{i + 1}" in names
        )

    @cached_property
    def kernels(self) -> RowKernels:
        """Row kernels over coordinate tuples, compiled on the first scan.

        Two first scans racing on one gauge at most compile it twice.
        """
        names = self._var_names(self.dimension)
        return compile_row_kernels(
            self.expr, names[: self.dimension], names[self.dimension:]
        )

    def __call__(self, x: Point, y: Point) -> float:
        return eval_g(self, x, y)

    def __repr__(self) -> str:
        return f"GFunction({self.name}={self.expr!s}, d={self.dimension})"


def eval_g(g: GFunction, x: Point, y: Point) -> float:
    """Signed gauge value g(x, y); callers take abs() where definitions do."""
    if x.dimension != g.dimension or y.dimension != g.dimension:
        raise DimensionMismatch(
            f"gauge {g.name!r} has dimension {g.dimension}, "
            f"got points of dimension {x.dimension} and {y.dimension}"
        )
    value = g._fn(*x.coords, *y.coords)
    if not math.isfinite(value):
        raise EvalError("non-finite", f"{g.name}({x}, {y}) = {value!r}")
    return value


def _gauge_row(
    g: GFunction,
    xs: Union[Point, Iterable[Point]],
    ys: Union[Point, Iterable[Point]],
    span: Optional[slice] = None,
) -> list[float]:
    """abs(g) over a kernel row that pairs one Point, xs or ys, with each
    point of the other side, a SampleSet (only the points in span, if given)
    or a list of Points, in order.  Raises eval_g's error at the first tuple
    the row marks; only then are the Points of a SampleSet read."""

    def side(s, points=False):
        if isinstance(s, Point):
            return repeat(s if points else s.coords)
        if not isinstance(s, SampleSet):
            return s if points else [p.coords for p in s]
        rows = s.points if points else s.coords
        return rows if span is None else rows[span]

    row = g.kernels.marked(side(xs), side(ys))
    if math.isnan(sum(row)):
        for v, x, y in zip(row, side(xs, True), side(ys, True)):
            if v != v:
                eval_g(g, x, y)
    return row


def _runs(
    g: GFunction, xs: Union[Sequence, "SampleSet"], ys: Union[Sequence, "SampleSet"],
    level: float, eps: Optional[float] = None,
) -> list[tuple[int, Optional[int], bool]]:
    """The plan of every kernel row of abs(g) between a box of asked points
    and a SampleSet s, made with one walk of s's block tree
    (SampleSet.blocks).  The box is a pair (lo, hi) of coordinate tuples on
    the asked side, a point y the box (y, y): for the core the leaf of A
    whose rows share the plan, xs, against s = ys; for mates the points of
    a run that share it (ProximalCore.mates_of), ys, against s = xs.  It
    lists (start, stop, proven) over s in order, leaving out whole blocks
    as g.kernels.bound, over the box against each block, proves them.
    Without eps, the level plan, it leaves out the blocks proven at or
    above level: none of their values lowers it.  With eps, the band plan,
    it leaves out those proven more than eps above or below level, and
    lists a block proven within eps of level at both ends as proven, in
    band whole and none of it to be read.  A left-out or proven block is
    proven clean, so the ranges to read raise at a row's first marked
    tuple.  A gauge without a bound, or an infinite level, reads s whole:
    [(0, None, False)].
    """
    bound = g.kernels.bound
    if bound is None or not level < math.inf:
        return [(0, None, False)]
    if isinstance(ys, SampleSet):
        s, box = ys, partial(bound, *xs)
    else:
        s, box = xs, partial(bound, QL=ys[0], QH=ys[1])
    plan, stack = [], [s.blocks]
    while stack:
        lo, hi, i, j, halves = stack.pop()
        ends = box(lo, hi)
        if ends is not None:
            if eps is None:
                if ends[0] >= level:
                    continue
            elif ends[0] - level > eps or level - ends[1] > eps:
                continue
            elif ends[1] - level <= eps and level - ends[0] <= eps:
                plan.append((i, j, True))
                continue
        if halves:
            stack += reversed(halves)
        elif plan and plan[-1][1:] == (i, False):
            plan[-1] = (plan[-1][0], j, False)
        else:
            plan.append((i, j, False))
    return plan


def _band(
    g: GFunction, xs: Union[Point, "SampleSet"], ys: Union[Point, "SampleSet"],
    plan: Sequence[tuple], level: float, eps: float, items: Sequence,
) -> list:
    """The items, one per point of the SampleSet side, of the entries of the
    kernel row of abs(g) between xs and ys, one of them a Point, within eps
    of level, in order, read through a band plan of _runs: a proven block
    gives its items unread, and every other range is read in one pass of
    g.kernels.band, which raises eval_g's error at the range's first
    tuple that raises or is not finite."""
    left = isinstance(xs, Point)  # the Point is g's left argument
    s, pin = (ys, repeat(xs.coords)) if left else (xs, repeat(ys.coords))
    band, hits = g.kernels.band, []
    for start, stop, proven in plan:
        if proven:
            hits += items[start:stop]
            continue
        rows = s.coords[start:stop]
        found, bad = band(pin, rows, level, eps) if left else band(rows, pin, level, eps)
        if bad >= 0:
            u = s.points[start + bad]
            if left:
                eval_g(g, xs, u)
            else:
                eval_g(g, u, ys)
        hits += [items[start + k] for k in found]
    return hits


def _leaves(node: tuple) -> list[tuple]:
    """The leaves of a node of SampleSet.blocks, in scan order."""
    halves = node[4]
    return _leaves(halves[0]) + _leaves(halves[1]) if halves else [node]


# Points per leaf of SampleSet.blocks.  A leaf of B is the least range a
# plan of _runs reads, and a leaf of A the rows that share one plan: small
# enough that a leaf next to the level reads few values out of band and
# that a leaf of A spans few of B's blocks, large enough that a bound call
# costs little beside the values it can save.
_LEAF = 32


@dataclass(frozen=True)
class SampleSet:
    """A finite sample of a subset: an exact point list or a discretised box.

    mode "exact" means membership is coordinate proximity to a listed point;
    mode "box" means membership is containment in the box up to tolerance.
    Points are stored in deterministic scan order (grids in row-major order).
    """

    points: tuple[Point, ...]
    box: Optional[tuple[tuple[float, float], ...]] = None
    resolution: Optional[tuple[int, ...]] = None
    name: str = ""

    def __post_init__(self):
        if not self.points:
            raise GSpaceError(f"sample set {self.name!r} is empty")
        d = self.points[0].dimension
        seen = set()
        for p in self.points:
            if p.dimension != d:
                raise DimensionMismatch(f"inconsistent dimensions in {self.name!r}")
            if p.coords in seen:
                raise GSpaceError(f"duplicate point {p} in {self.name!r}")
            seen.add(p.coords)
        if self.box is not None:
            if len(self.box) != d:
                raise DimensionMismatch(f"box rank mismatch in {self.name!r}")
            for p in self.points:
                if not self._has(p.coords, 1e-12):
                    raise GSpaceError(f"grid point {p} outside box in {self.name!r}")

    @property
    def mode(self) -> str:
        return "box" if self.box is not None else "exact"

    @property
    def dimension(self) -> int:
        return self.points[0].dimension

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def coords(self) -> list[tuple[float, ...]]:
        """The points' coordinate tuples in scan order, a row for the kernels."""
        return [p.coords for p in self.points]

    @cached_property
    def blocks(self) -> tuple:
        """A binary tree over the scan order.  Each node (lo, hi, start,
        stop, halves) boxes points[start:stop], lo and hi the least and
        greatest of each coordinate; halves is () at a leaf, of at most
        _LEAF points, and otherwise the nodes of the two halves in order."""
        coords = self.coords

        def node(start: int, stop: int) -> tuple:
            if stop - start <= _LEAF:
                axes = list(zip(*coords[start:stop]))
                return tuple(map(min, axes)), tuple(map(max, axes)), start, stop, ()
            mid = (start + stop) // 2
            halves = node(start, mid), node(mid, stop)
            (lo1, hi1, *_), (lo2, hi2, *_) = halves
            return (tuple(map(min, lo1, lo2)), tuple(map(max, hi1, hi2)),
                    start, stop, halves)

        return node(0, len(coords))

    @classmethod
    def from_points(
        cls, pts: Iterable[Union[Point, Sequence[float], float]], name: str = ""
    ) -> "SampleSet":
        return cls(points=tuple(_as_point(p) for p in pts), name=name)

    @classmethod
    def grid(
        cls,
        box: Sequence[tuple[float, float]],
        resolution: Union[int, Sequence[int]] = 101,
        name: str = "",
    ) -> "SampleSet":
        """Per-axis uniform grid over the box, row-major point order.

        A grid point's coordinates are its axis values, and two grid points
        are equal only when all of them are.  So the constructor's checks
        hold for every point when each axis value is finite and inside its
        interval, and distinct within its axis: these are tested once per
        value.  A grid with an axis that fails goes through the constructor,
        which raises at the first point that fails, in scan order."""
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if isinstance(resolution, int):
            res = tuple(resolution if lo != hi else 1 for lo, hi in box)
        else:
            res = tuple(int(r) for r in resolution)
        if len(res) != len(box):
            raise GSpaceError("resolution rank does not match box rank")
        axes, checked = [], bool(box)
        for (lo, hi), n in zip(box, res):
            if n < 1 or (n == 1 and lo != hi):
                raise GSpaceError(f"bad resolution {n} for axis [{lo}, {hi}]")
            if n == 1:
                axis = [lo + 0.0]  # normalises -0.0, as Point does
            else:
                step = (hi - lo) / (n - 1)
                axis = [lo + i * step + 0.0 for i in range(n - 1)] + [hi + 0.0]
            checked = checked and len(set(axis)) == n and all(
                math.isfinite(c) and lo - 1e-12 <= c <= hi + 1e-12 for c in axis)
            axes.append(axis)
        if not checked:
            pts = tuple(Point(c) for c in itertools.product(*axes))
            return cls(points=pts, box=box, resolution=res, name=name)
        pts = tuple(map(_checked_point, itertools.product(*axes)))
        return _checked_set(pts, name, box, res)

    def grid_step(self) -> Optional[float]:
        """Smallest non-degenerate axis step, or None for exact sets."""
        if self.box is None or self.resolution is None:
            return None
        steps = [
            (hi - lo) / (n - 1)
            for (lo, hi), n in zip(self.box, self.resolution)
            if n > 1
        ]
        return min(steps) if steps else None

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        return p.dimension == self.dimension and self._has(p.coords, tol)

    def _has(self, coords: tuple[float, ...], tol: float) -> bool:
        """contains, for a coordinate tuple of the set's dimension."""
        if self.box is not None:
            return all(lo - tol <= c <= hi + tol for c, (lo, hi) in zip(coords, self.box))
        return any(
            all(abs(a - b) <= tol for a, b in zip(coords, q)) for q in self.coords
        )

    def union(self, other: "SampleSet", name: str = "") -> "SampleSet":
        """Exact-mode union, deduplicated by coordinates, order preserved."""
        seen = set()
        pts = []
        for p in itertools.chain(self.points, other.points):
            if p.coords not in seen:
                seen.add(p.coords)
                pts.append(p)
        return SampleSet(points=tuple(pts), name=name or f"{self.name}|{other.name}")


def _checked_set(
    points: tuple[Point, ...], name: str,
    box: Optional[tuple[tuple[float, float], ...]] = None,
    resolution: Optional[tuple[int, ...]] = None,
) -> SampleSet:
    """SampleSet(points, box, resolution, name) without its checks, for
    points that already pass them, such as a subset of a checked set's."""
    s = object.__new__(SampleSet)
    vars(s).update(points=points, box=box, resolution=resolution, name=name)
    return s


@dataclass(frozen=True)
class SequencePrefix:
    """The first n terms of a sequence, n >= 2."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise GSpaceError("sequence prefix needs at least two terms")
        d = self.points[0].dimension
        if any(p.dimension != d for p in self.points):
            raise DimensionMismatch("inconsistent dimensions in sequence")

    @classmethod
    def from_function(
        cls, fn: Callable[[int], Union[Point, Sequence[float], float]], n: int
    ) -> "SequencePrefix":
        """Terms fn(1) .. fn(n)."""
        return cls(tuple(_as_point(fn(k)) for k in range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ConvexStructure:
    """A ternary interpolation map H(x, y, lam), one expression per coordinate.

    Expressions range over x1..xd (first argument), u1..ud (second argument)
    and l (the parameter in [0, 1]).
    """

    exprs: tuple[Expr, ...]
    dimension: int = field(init=False)  # len(exprs)

    def __post_init__(self):
        exprs = tuple(parse(e) if isinstance(e, str) else e for e in self.exprs)
        _check_names(exprs, GFunction._var_names(len(exprs)) + ("l",), "convex structure")
        object.__setattr__(self, "exprs", exprs)
        object.__setattr__(self, "dimension", len(exprs))

    @cached_property
    def interpolants(self) -> Callable[[tuple, Sequence[tuple], Sequence[float]], list]:
        """The row loop of rows (expr.compile_point_rows), compiled on the
        first call: its list ends before the first tuple at which the text
        raises, and holds a non-finite tuple as it is."""
        d = self.dimension
        names = GFunction._var_names(d)
        return compile_point_rows(self.exprs, names[:d], names[d:], "l")

    def rows(self, x: Point, ys: Sequence[Point], lams: Sequence[float]) -> list:
        """The coordinates of apply(x, y, lam) over y in ys, then lam in
        lams, up to the first tuple at which apply raises: the list is
        shorter than len(ys) * len(lams) exactly when H fails, at index
        len(row)."""
        row = self.interpolants(x.coords, [y.coords for y in ys], lams)
        if not math.isfinite(sum(chain.from_iterable(row))):
            # a sum of finite coordinates can overflow: test each of them
            row = list(takewhile(lambda c: all(map(math.isfinite, c)), row))
        return row

    def apply(self, x: Point, y: Point, lam: float) -> Point:
        """H(x, y, lam), the one tuple of rows(x, [y], [lam]).  Where there is
        none, each coordinate is evaluated in order through evaluate, which
        raises the typed error of the first whose text raises; where none
        raises, a coordinate is not finite: EvalError("non-finite")."""
        if x.dimension != self.dimension or y.dimension != self.dimension:
            raise DimensionMismatch("convex structure dimension mismatch")
        row = self.interpolants(x.coords, [y.coords], [lam])
        if row and all(map(math.isfinite, row[0])):
            return _checked_point(row[0])
        env = dict(zip(GFunction._var_names(self.dimension), x.coords + y.coords), l=lam)
        for e in self.exprs:
            evaluate(e, env)
        raise EvalError("non-finite", f"H({x}, {y}, {lam!r})")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampled check: a verdict plus a replayable witness.

    A falsified verdict always carries the first witness in deterministic
    scan order together with the two sides of the violated inequality.
    The contraction-class checks also record the coefficients the
    inequality was checked with, beta and n_cap (alpha is stored in beta for
    the plain contraction check); vacuous marks a proximal check that found
    no qualifying quadruples at all.
    """

    check: str
    verdict: str  # "holds-on-sample" | "falsified"
    witness: Optional[Mapping[str, Union[Point, float]]] = None
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    note: str = ""
    beta: Optional[float] = None
    n_cap: Optional[float] = None
    vacuous: bool = False

    @property
    def falsified(self) -> bool:
        return self.verdict == "falsified"

    @property
    def holds(self) -> bool:
        return self.verdict == "holds-on-sample"

    @property
    def margin(self) -> Optional[float]:
        if self.lhs is None or self.rhs is None:
            return None
        return self.lhs - self.rhs


@dataclass(frozen=True)
class SequenceReport:
    """Numeric classification of a sequence prefix against the tail window."""

    verdict: str  # "g-convergent-to-target" | "g-cauchy" | "neither"
    convergent: Optional[bool]
    cauchy: bool
    max_convergence_residual: Optional[float]
    max_cauchy_residual: float
    target: Optional[Point]


@dataclass(frozen=True)
class ProximalCore:
    """Proximity level of a sampled pair (A, B) and the sets realising it.

    d_g is the exact minimum of abs(g) over the sampled product A x B; a_g
    and b_g collect the points whose best partner lands within eps of d_g.
    partners holds, for each member of a_g in order, its partners within eps
    of d_g in B order (B's own points tuple when every point of B is one);
    witnesses pairs each member with the first of them.  g, a and b are the
    gauge and the samples the core was computed from, and eps its band:
    every proximity question asked of the core is asked under them.
    """

    d_g: float
    a_g: SampleSet
    b_g: SampleSet
    partners: tuple[tuple[Point, ...], ...]
    eps: float
    g: GFunction = field(compare=False, repr=False)
    a: SampleSet = field(compare=False, repr=False)
    b: SampleSet = field(compare=False, repr=False)

    @property
    def witnesses(self) -> tuple[tuple[Point, Point], ...]:
        return tuple((x, ys[0]) for x, ys in zip(self.a_g.points, self.partners))

    def mates(self, y: Point, a: Optional[SampleSet] = None) -> tuple[Point, ...]:
        """The points u of A with abs(g(u, y)) within eps of d_g, in A order;
        with a, those of a, a subsample of A: mates_of for the one point y."""
        return next(self.mates_of((y,), a))

    def mates_of(
        self, ys: Iterable[Point], a: Optional[SampleSet] = None
    ) -> Iterator[tuple[Point, ...]]:
        """The mates (see mates) of each point of ys, in order, drawn and
        answered lazily in runs of _LEAF points.

        When a point of a run is a sample point of B and a is not given,
        its mates are read from partners: the core read each row's band
        with the same kernel doubles and the same band test.  The other
        points of the run share one band plan of _runs, made from the
        bound over their bounding box, and each reads its row of abs(g)
        over A through it (_band), from the blocks that can reach the
        band, taking every point of a block the bound puts within eps of
        d_g at both ends without reading it.  Every block the plan leaves
        out or proves is clean, so a row raises at its first offending
        tuple, and only once the answers before it are taken.  So does an
        error in drawing a point of ys: the points drawn before it are
        answered first.
        """
        own = {} if a is not None else self._mates
        a = self.a if a is None else a
        g, d_g, eps, ys = self.g, self.d_g, self.eps, iter(ys)
        while True:
            run, error = [], None
            try:
                for y in islice(ys, _LEAF):
                    run.append(y)
            except Exception as exc:  # raised once the run is answered
                error = exc
            asked = [y.coords for y in run if y.coords not in own]
            if asked:
                axes = list(zip(*asked))
                box = tuple(map(min, axes)), tuple(map(max, axes))
                # a run with a point of another dimension reads A whole, where
                # eval_g raises DimensionMismatch at that point's first tuple
                plan = (_runs(g, a, box, d_g, eps) if all(len(c) == g.dimension for c in asked)
                        else [(0, None, False)])
            for y in run:
                mates = own.get(y.coords)
                yield mates if mates is not None else tuple(
                    _band(g, a, y, plan, d_g, eps, a.points))
            if error is not None:
                raise error
            if len(run) < _LEAF:
                return

    @cached_property
    def _mates(self) -> dict[tuple[float, ...], tuple[Point, ...]]:
        """The inverse of partners, keyed by the coordinates of each point
        of B.  Two first queries racing on one core at most build it twice."""
        inverse = {y: [] for y in self.b.coords}
        for x, ys in zip(self.a_g.points, self.partners):
            for y in ys:
                inverse[y.coords].append(x)
        return {y: tuple(xs) for y, xs in inverse.items()}


_HOLDS = "holds-on-sample"
_FALSIFIED = "falsified"


def _falsified(
    check: str, sides: Callable[[Mapping], tuple[float, float]],
    witness: Mapping[str, Union[Point, float]], note: str = "", **coefficients,
) -> CheckReport:
    """The falsified report of check at witness, with the two sides that
    sides(witness), the check's own sides function, gives there; the
    contraction checks pass their beta and n_cap as coefficients."""
    lhs, rhs = sides(witness)
    return CheckReport(check, _FALSIFIED, witness, lhs, rhs, note, **coefficients)


def falsify_axiom(
    kind: str,
    g: GFunction,
    s: SampleSet,
    tol: ToleranceSet,
    seed: int = 0,
) -> CheckReport:
    """Search the sample for a violation of one metric-like gauge axiom.

    kind "identity": a pair of distinct points with abs(g) at zero level.
    kind "symmetry": a pair where abs(g(x,y)) and abs(g(y,x)) differ by more
    than eps_ineq.  kind "triangle": a pairwise-distinct triple (x, y, z)
    with abs(g(x,z)) > abs(g(x,y)) + abs(g(y,z)) + eps_ineq.  Exact finite
    sets are scanned exhaustively; discretised sets are subsampled under the
    tuple cap (see _capped).
    """
    pts = _capped(s.points, s.mode == "box", 3 if kind == "triangle" else 2, seed)
    coords = [p.coords for p in pts]
    falsified = partial(_falsified, f"{kind}-axiom", partial(axiom_sides, kind, g, tol))
    # a symmetric g reads the pairs (x, y) and the triples (x, y, z) with y,
    # or z, after x in scan order (see GFunction.symmetric)
    half = g.symmetric
    if kind == "identity":
        level = g.kernels.first_level
        for i, x in enumerate(pts):
            before = [] if half else coords[:i]  # the row skips x: points are distinct
            k = level(x.coords, before + coords[i + 1:], tol.eps_zero)
            if k >= 0:
                j = k if k < len(before) else i + 1 + k - len(before)
                return falsified({"x": x, "y": pts[j]}, "distinct points at zero gauge level")
    elif kind == "symmetry":
        # a symmetric g's backward row is its forward row, so a row fails
        # at its first mark: level -inf
        first, bound = ((g.kernels.first_level, -math.inf) if half
                        else (g.kernels.first_symmetry, tol.eps_ineq))
        for i, x in enumerate(pts):
            k = first(x.coords, coords[i + 1:], bound)
            if k >= 0:
                return falsified({"x": x, "y": pts[i + 1 + k]})
    elif kind == "triangle":
        # One abs(g) matrix over the scanned points, each row [*lower, 0.0,
        # *upper]: the 0.0 diagonal is never evaluated, upper is read, and
        # lower is read too unless g is symmetric, when it is the column
        # of the rows above.  For a pair (x, y), z = y then fails only when
        # abs(g(x, y)) is marked, and z = x is skipped: its entry
        # abs(g(y, x)) is not the pair's to evaluate.  zip reads rest, row
        # y from start on, last, once per z, so only a failing z is
        # numbered, from what rest has left.
        matrix, marked = [], g.kernels.marked
        for i, c in enumerate(coords):
            lower = [above[i] for above in matrix] if half else marked(repeat(c), coords[:i])
            matrix.append([*lower, 0.0, *marked(repeat(c), coords[i + 1:])])
        eps = tol.eps_ineq
        for i, x in enumerate(pts):
            start = i + 1 if half else 0
            xz = matrix[i][start:]
            for k, (y, gxy) in enumerate(zip(pts, matrix[i])):
                if k == i:  # y = x: scanned points are distinct
                    continue
                rest = iter(matrix[k][start:])
                for a, b in zip(xz, rest):
                    if not a <= gxy + b + eps:
                        m = len(pts) - 1 - length_hint(rest)
                        if m != i:
                            return falsified({"x": x, "y": y, "z": pts[m]})
    else:
        raise GSpaceError(f"unknown axiom kind {kind!r}")
    return CheckReport(f"{kind}-axiom", _HOLDS)


def axiom_sides(
    kind: str, g: GFunction, tol: ToleranceSet, witness: Mapping[str, Point]
) -> tuple[float, float]:
    """The two sides falsify_axiom compares at a witness."""
    x, y = witness["x"], witness["y"]
    if kind == "identity":
        return abs(eval_g(g, x, y)), tol.eps_zero
    if kind == "symmetry":
        return abs(abs(eval_g(g, x, y)) - abs(eval_g(g, y, x))), tol.eps_ineq
    gxy = abs(eval_g(g, x, y))
    z = witness["z"]
    return abs(eval_g(g, x, z)), gxy + abs(eval_g(g, y, z))


def classify_sequence(
    g: GFunction,
    s: SequencePrefix,
    target: Optional[Point],
    tol: ToleranceSet,
) -> SequenceReport:
    """Classify a prefix using the tail window of length tol.tail_len.

    Convergence to the target means every abs(g(x_n, target)) in the tail is
    at zero level; the Cauchy criterion bounds abs(g(x_n, x_m)) over all tail
    index pairs.  Both maxima are reported.
    """
    if len(s) < tol.tail_len + 1:
        raise GSpaceError(
            f"prefix of length {len(s)} is shorter than tail_len + 1 = "
            f"{tol.tail_len + 1}"
        )
    tail = s.points[-tol.tail_len:]
    max_cauchy = max(max(_gauge_row(g, x, tail)) for x in tail)
    cauchy = max_cauchy <= tol.eps_zero
    convergent: Optional[bool] = None
    max_conv: Optional[float] = None
    if target is not None:
        max_conv = max(_gauge_row(g, tail, target))
        convergent = max_conv <= tol.eps_zero
    if convergent:
        verdict = "g-convergent-to-target"
    elif cauchy:
        verdict = "g-cauchy"
    else:
        verdict = "neither"
    return SequenceReport(verdict, convergent, cauchy, max_conv, max_cauchy, target)


def enumerate_g_limits(
    g: GFunction,
    s: SequencePrefix,
    candidates: SampleSet,
    tol: ToleranceSet,
) -> list[Point]:
    """All candidate points the prefix converges to; more than one witnesses
    non-uniqueness of limits.  Raises as classify_sequence does for each
    candidate in turn, the tail's errors first."""
    classify_sequence(g, s, None, tol)  # the length check and the tail's rows, once
    tail = s.points[-tol.tail_len:]
    return [c for c in candidates.points
            if max(_gauge_row(g, tail, c)) <= tol.eps_zero]


def proximal_core(
    g: GFunction, a: SampleSet, b: SampleSet, tol: ToleranceSet
) -> ProximalCore:
    """Exact minimum of abs(g) over the sampled product, with realising sets.

    Membership in a_g and b_g uses the eps_prox band around d_g; partners
    lists each a_g member's banded partners in list order.  Two passes run
    over the leaves of A (SampleSet.blocks), and the rows of a leaf read B
    through one plan of _runs, made from the interval bound of g over the
    leaf's box against B's blocks.  The first finds d_g through the level
    plan, made at the level the leaf starts from: the level only falls, so
    no block it leaves out lowers it.  The first row has no finite level to
    plan against, so it is read whole and its leaf is planned again after
    it.  The second reads each row's band at d_g through the band plan.  A
    row the first pass reads whole (the first, and every row of a gauge
    without a bound) keeps its values within eps_prox of the level after
    it instead, a superset of its band, and is not read again.  Every block
    a plan leaves out or proves is clean, so the first pass raises at the
    first marked tuple in row-major order, and the second reads nothing the
    first did not prove clean.
    """
    eps, d_g, near, leaves = tol.eps_prox, math.inf, {}, _leaves(a.blocks)
    for *box, first, end, _ in leaves:
        for i in range(first, end):
            if i in (first, 1):
                plan = _runs(g, box, b, d_g)
            for start, stop, _ in plan:
                values = _gauge_row(g, a.points[i], b, slice(start, stop))
                d_g = min(d_g, min(values))
            if plan and plan[0][1] is None:
                keep = [v - d_g <= eps for v in values]
                near[i] = (array("l", compress(count(), keep)),
                           array("d", compress(values, keep)))
    a_pts, partners, b_hit, b_index = [], [], set(), range(len(b.points))
    for *box, first, end, _ in leaves:
        plan = _runs(g, box, b, d_g, eps)
        for i in range(first, end):
            x = a.points[i]
            if i in near:
                keep, values = near.pop(i)  # free each row once read
                hits = list(compress(keep, [v - d_g <= eps for v in values]))
            else:
                hits = _band(g, x, b, plan, d_g, eps, b_index)
            if hits:
                b_hit.update(hits)
                a_pts.append(x)
                partners.append(
                    b.points if len(hits) == len(b.points)
                    else tuple(map(b.points.__getitem__, hits))
                )
    b_pts = [b.points[j] for j in sorted(b_hit)]
    return ProximalCore(
        d_g=d_g,
        a_g=_checked_set(tuple(a_pts), f"{a.name or 'A'}_g"),
        b_g=_checked_set(tuple(b_pts), f"{b.name or 'B'}_g"),
        partners=tuple(partners),
        eps=eps,
        g=g,
        a=a,
        b=b,
    )


def proximal_select(core: ProximalCore, y: Point) -> Point:
    """The sample point of the core's A realising its proximity level
    against y.

    Among the mates of y (ProximalCore.mates) the one with the smallest
    residual wins; exact ties break lexicographically by coordinates, so
    selection is deterministic.  Raises NoProximalMate when the band is
    empty, which signals either an image escaping the realising set or a
    grid too coarse.
    """
    mates = core.mates(y)
    if not mates:
        raise NoProximalMate(
            f"no point of {core.a.name or 'A'} realises the proximity level "
            f"{core.d_g!r} against {y} within {core.eps!r}"
        )
    residuals = [abs(v - core.d_g) for v in _gauge_row(core.g, mates, y)]
    return min(zip(residuals, mates), key=lambda rx: (rx[0], rx[1].coords))[1]


def check_semi_sharp(core: ProximalCore) -> CheckReport:
    """Falsified when some a has two distinct partners at the proximity level;
    the witness is the first member of a_g with two, and its first two."""
    for x, ys in zip(core.a_g.points, core.partners):
        if len(ys) > 1:
            return _falsified(
                "semi-sharp", partial(semi_sharp_sides, core),
                {"a": x, "b1": ys[0], "b2": ys[1]},
                "two distinct partners at the proximity level",
            )
    return CheckReport("semi-sharp", _HOLDS)


def semi_sharp_sides(
    core: ProximalCore, witness: Mapping[str, Point]
) -> tuple[float, float]:
    """abs(g(a, b2)) at a witness, against the proximity level."""
    return abs(eval_g(core.g, witness["a"], witness["b2"])), core.d_g


def _subsample(items: Sequence, m: int, seed: int) -> list:
    """The m of items a subsampled scan reads, in order, or all of them when
    m >= len(items); every caller has m >= 2.  Seed 0 takes evenly spaced
    indices with both ends; other seeds take a reproducible random sample."""
    n = len(items)
    if m >= n:
        return list(items)
    if seed == 0:
        picked = sorted({round(i * (n - 1) / (m - 1)) for i in range(m)})
    else:
        picked = sorted(random.Random(seed).sample(range(n), m))
    return [items[i] for i in picked]


def _axis_budget(sizes: Sequence[int], cap: int) -> list[int]:
    """Per-axis subsample sizes so the product stays within cap."""
    sizes = list(sizes)
    budget = sizes[:]
    while math.prod(budget) > cap:
        i = budget.index(max(budget))
        budget[i] = max(2, int(budget[i] * 0.8))
        if all(b <= 2 for b in budget):
            break
    return budget


# The caps of the subsampled scans.  MAX_TUPLES is the tuple cap: _capped's
# default, and the convex check's budget.  MAX_QUALIFYING_POINTS is the most
# points of a box A whose images properties.qualifying_pairs reads.
MAX_TUPLES = 1_000_000
MAX_QUALIFYING_POINTS = 2000


def _capped(
    items: Sequence, box: bool, arity: int, seed: int, cap: Optional[int] = None
) -> Sequence:
    """The items a scan of arity-tuples over them reads: all of them, unless
    they come from a box sample and make more than cap (default MAX_TUPLES)
    tuples; then max(2, floor(cap ** (1 / arity))) of them, picked by
    _subsample.  An exact set is never cut."""
    cap = MAX_TUPLES if cap is None else cap
    if not box or len(items) ** arity <= cap:
        return items
    return _subsample(items, max(2, int(cap ** (1 / arity))), seed)


def _lambdas(grid: Sequence[float]) -> list[float]:
    """grid as a list, a GSpaceError unless every value lies in [0, 1], the
    range of H's parameter; -0.0 lies in it."""
    if all(0.0 <= lam <= 1.0 for lam in grid):
        return list(grid)
    raise GSpaceError("lambda grid values must lie in [0, 1]")


def check_convex_structure(
    h: ConvexStructure,
    g: GFunction,
    s: SampleSet,
    lambda_grid: Sequence[float],
    tol: ToleranceSet,
    seed: int = 0,
) -> CheckReport:
    """Check both interpolation inequalities of a convex structure on a sample.

    Condition one bounds abs(g(x0, H(x,y,lam))) by the lam-weighted mix of
    abs(g(x0,x)) and abs(g(x0,y)); condition two bounds the gauge between two
    interpolants by the mix of the endpoint gauges.  Tuple scans are capped
    by subsampling each axis deterministically.

    Both conditions hold by construction at lam = 0 and lam = 1 where H
    returns its endpoints there and the endpoint gauges are finite.  One
    pass of H at the two ends proves that for all rows of a condition or
    for none, and every row of the condition then runs over one lambda
    axis: the inner lambdas where the proof holds, all of them where it
    does not.  A row whose right sides are proven finite, from its largest
    endpoint gauges, runs the lean loop (RowKernels.lean_convex).  Both
    give the tuple, and so the report, that a scan of every tuple gives.
    """
    lams = _lambdas(lambda_grid)
    if 0.0 not in lams or 1.0 not in lams:
        raise GSpaceError("lambda grid must include 0 and 1")
    eps = tol.eps_ineq
    falsified = partial(_falsified, "convex-structure", partial(convex_condition_sides, h, g))
    kernels = g.kernels

    def axes(k: int):
        """k point axes and the lambda axis, subsampled to at most MAX_TUPLES
        tuples (the lambda axis keeps 0 and 1)."""
        m = _axis_budget([len(s.points)] * k + [len(lams)], MAX_TUPLES)
        lam_sub = sorted(set(_subsample(lams, m[k], seed)) | {0.0, 1.0})
        return [_subsample(s.points, size, seed) for size in m[:k]], lam_sub

    # H's ends hold for xs x ys when every row of H over (y, lam) gives y
    # at lam = 0 and x at lam = 1 (neither side holds -0.0, so equal tuples
    # hold the same doubles).  A tuple there compares an endpoint gauge, b
    # at lam = 0 and a at lam = 1, the same text on the same coordinates,
    # with 0.0*a + 1.0*b + eps or 1.0*a + 0.0*b + eps, and eps is finite
    # and at least 0: it holds wherever a and b are finite.  Where H raises
    # at an inner lambda of such a row, the inner row is cut at the same
    # (y, lam) as the whole row.
    def ends_hold(xs: list, ys: list, lam_sub: list) -> bool:
        return all(h.rows(x, ys, [lam_sub[0], lam_sub[-1]])
                   == [c for y in ys for c in (y.coords, x.coords)] for x in xs)

    # The first-hit loops take the right side lam * a + (1 - lam) * b of a
    # row over (b, lam) as two rows of terms over the condition's axis:
    # lam * a per lam, cycled over the b, and (1 - lam) * b per (b, lam).
    def mix_terms(bs: list) -> list:
        return [(1.0 - lam) * b for b in bs for lam in axis]

    def first_hit(pairs: str, p, row: list, a: float, top: float, terms: list,
                  key: str, outer: list) -> Optional[dict]:
        """{key: point of outer, "lam": lam} at the first tuple at which the
        loop (first_convex + pairs) over p, row and the terms of a and
        terms fails, or None.  Where none fails, zip ended at the end of
        row: H fails there if row is shorter than terms.  Where a + top +
        eps is finite, with top the largest b, every sum lam * a + (1 -
        lam) * b + eps of the row is, as rounding is monotone (a NaN term
        fails its tuple in either loop): the lean loop gives the same index
        there."""
        loop = "lean_convex" if a + top + eps < math.inf else "first_convex"
        k = getattr(kernels, loop + pairs)(p, row, cycle([lam * a for lam in axis]), terms, eps)
        k = len(row) if k < 0 else k
        if k < len(terms):
            return {key: outer[k // len(axis)], "lam": axis[k % len(axis)]}
        return None

    # condition one: tuples (x0, x, y, lam); rows of H over (y, lam), one
    # list per x, are built once and reused
    (xs0, xs, ys), lam_sub = axes(3)
    axis = lam_sub[1:-1] if ends_hold(xs, ys, lam_sub) else lam_sub
    h_rows: dict[int, list] = {}
    for x0 in xs0:
        gx, gy = _gauge_row(g, x0, xs), _gauge_row(g, x0, ys)
        top, terms = max(gy), mix_terms(gy)
        for i, x in enumerate(xs):
            if i not in h_rows:
                h_rows[i] = h.rows(x, ys, axis)
            hit = first_hit("", x0.coords, h_rows[i], gx[i], top, terms, "y", ys)
            if hit:
                return falsified({"x0": x0, "x": x, **hit}, "condition one")
    del h_rows  # free before condition two builds its rows: a lower peak
    # condition two: tuples (x, y, x0, y0, lam); its ends hold where H's
    # do for xs x ys and xs0 x ys0 and its endpoint gauges hold no mark
    (xs, ys, xs0, ys0), lam_sub = axes(4)
    xs0_coords, ys0_coords = [x0.coords for x0 in xs0], [y0.coords for y0 in ys0]
    gxx0 = [kernels.marked(repeat(x.coords), xs0_coords) for x in xs]
    gyy0 = [kernels.marked(repeat(y.coords), ys0_coords) for y in ys]
    proven = (not math.isnan(sum(map(sum, gxx0 + gyy0)))
              and ends_hold(xs, ys, lam_sub) and ends_hold(xs0, ys0, lam_sub))
    axis = lam_sub[1:-1] if proven else lam_sub
    b_rows = [(max(b), mix_terms(b)) for b in gyy0]
    q_rows: dict[int, list] = {}
    for x, a in zip(xs, gxx0):
        for y, (top, terms) in zip(ys, b_rows):
            p_row = h.rows(x, [y], axis)
            cut = len(p_row) < len(axis)  # H fails in it: read under the first y0 only
            for j, x0 in enumerate(xs0):
                if j not in q_rows:
                    q_rows[j] = h.rows(x0, ys0, axis)
                q_row = q_rows[j][:len(p_row)] if cut else q_rows[j]
                hit = first_hit("_pairs", cycle(p_row), q_row, a[j], top, terms, "y0", ys0)
                if hit:
                    return falsified({"x": x, "y": y, "x0": x0, **hit}, "condition two")
    return CheckReport("convex-structure", _HOLDS)


def convex_condition_sides(
    h: ConvexStructure,
    g: GFunction,
    witness: Mapping[str, Union[Point, float]],
) -> tuple[float, float]:
    """The two sides of a convex-structure condition at a witness."""
    lam = float(witness["lam"])  # type: ignore[arg-type]
    x, y, x0 = witness["x"], witness["y"], witness["x0"]
    if "y0" not in witness:  # condition one
        lhs = abs(eval_g(g, x0, h.apply(x, y, lam)))
        rhs = lam * abs(eval_g(g, x0, x)) + (1 - lam) * abs(eval_g(g, x0, y))
        return lhs, rhs
    y0 = witness["y0"]
    g_x, g_y = abs(eval_g(g, x, x0)), abs(eval_g(g, y, y0))
    lhs = abs(eval_g(g, h.apply(x, y, lam), h.apply(x0, y0, lam)))
    return lhs, lam * g_x + (1 - lam) * g_y


def check_starshaped(
    h: ConvexStructure,
    a: SampleSet,
    r: Point,
    lambda_grid: Sequence[float],
    tol: ToleranceSet,
) -> CheckReport:
    """Holds when H(r, x, lam) stays inside the set for all sampled x, lam,
    membership tested with the band max(1e-9, eps_prox)."""
    band = max(1e-9, tol.eps_prox)
    if not a.contains(r, band):
        raise GSpaceError(f"centre {r} is not a member of {a.name or 'the set'}")
    lams = _lambdas(lambda_grid)
    for x in a.points:  # one row at a time: memory stays at one row of lams
        row = h.rows(r, [x], lams)
        k = next((k for k, c in enumerate(row) if not a._has(c, band)), len(row))
        if k < len(lams):
            # where the row is cut, apply raises at its end
            image = h.apply(r, x, lams[k]) if k == len(row) else _checked_point(row[k])
            return CheckReport(
                "starshaped", _FALSIFIED, {"x": x, "lam": lams[k], "image": image},
                note="interpolant escapes the set",
            )
    return CheckReport("starshaped", _HOLDS)


def check_side_condition(
    core: ProximalCore, r: Point, s: Point, tol: ToleranceSet
) -> CheckReport:
    """Check that abs(g(r,x)) + abs(g(y,s)) sits at twice the inner proximity
    level, within eps_ineq, for every sampled x in b_g, y in a_g.

    That level is d_g itself, bit for bit: a pair at exactly d_g lies in
    a_g x b_g, and no pair of A x B is lower.

    A row x holds whole where its sums at the ends lo and hi of the row of
    abs(g(y, s)) hold: rounding is monotone, so abs(grx + v - target) <= eps
    at v = lo and at v = hi gives it at every v between them.  A row that
    fails that proof, and every row where abs(g(y, s)) has a mark or a_g is
    empty (the ends are then NaN), is scanned for its first violation.
    """
    target = 2.0 * core.d_g
    b_pts, a_pts = core.b_g.points, core.a_g.points
    grx_row = core.g.kernels.marked(repeat(r.coords), core.b_g.coords)
    gys_row = core.g.kernels.marked(core.a_g.coords, repeat(s.coords))
    eps = tol.eps_ineq
    lo = hi = math.nan
    if gys_row and not math.isnan(sum(gys_row)):
        lo, hi = min(gys_row), max(gys_row)
    for i, grx in enumerate(grx_row):
        if abs(grx + lo - target) <= eps and abs(grx + hi - target) <= eps:
            continue
        j = next(
            (j for j, v in enumerate(gys_row) if not abs(grx + v - target) <= eps), -1
        )
        if j >= 0:
            return _falsified("side-condition", partial(side_condition_sides, core, r, s),
                              {"x": b_pts[i], "y": a_pts[j]})
    return CheckReport("side-condition", _HOLDS, note=f"target {target!r}")


def side_condition_sides(
    core: ProximalCore, r: Point, s: Point, witness: Mapping[str, Point]
) -> tuple[float, float]:
    """abs(g(r, x)) + abs(g(y, s)) at a witness, against twice the
    proximity level."""
    g = core.g
    lhs = abs(eval_g(g, r, witness["x"])) + abs(eval_g(g, witness["y"], s))
    return lhs, 2.0 * core.d_g
