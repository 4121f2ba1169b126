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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, cycle, repeat
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .expr import (
    EvalError,
    Expr,
    RowKernels,
    compile_expr,
    compile_point_rows,
    compile_row_kernels,
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


@dataclass(frozen=True)
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
        allowed = self._var_names(dimension)
        unknown = sorted(variables(expr) - set(allowed))
        if unknown:
            raise GSpaceError(
                f"gauge {name!r} references undeclared variables {unknown} "
                f"(dimension {dimension})"
            )
        self.expr = expr
        self.dimension = dimension
        self.name = name
        self._fn = compile_expr(expr, allowed)

    @staticmethod
    def _var_names(d: int) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, d + 1)) + tuple(
            f"u{i}" for i in range(1, d + 1)
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
    g: GFunction, xs: Union[Point, Iterable[Point]], ys: Union[Point, Iterable[Point]]
) -> list[float]:
    """abs(g) over a kernel row that pairs one Point, xs or ys, with each
    point of the other side, a SampleSet or a list of Points, in order.
    Raises eval_g's error at the first tuple the row marks."""

    def side(s):
        if isinstance(s, Point):
            return repeat(s.coords), repeat(s)
        return s.coords if isinstance(s, SampleSet) else [p.coords for p in s], s

    (P, x_pts), (Q, y_pts) = side(xs), side(ys)
    row = g.kernels.marked(P, Q)
    if math.isnan(sum(row)):
        for v, x, y in zip(row, x_pts, y_pts):
            if v != v:
                eval_g(g, x, y)
    return row


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
                if not self._in_box(p, 1e-12):
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
        """Per-axis uniform grid over the box, row-major point order."""
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if isinstance(resolution, int):
            res = tuple(resolution if lo != hi else 1 for lo, hi in box)
        else:
            res = tuple(int(r) for r in resolution)
        if len(res) != len(box):
            raise GSpaceError("resolution rank does not match box rank")
        axes = []
        for (lo, hi), n in zip(box, res):
            if n < 1 or (n == 1 and lo != hi):
                raise GSpaceError(f"bad resolution {n} for axis [{lo}, {hi}]")
            if n == 1:
                axes.append([lo])
            else:
                step = (hi - lo) / (n - 1)
                axes.append([lo + i * step for i in range(n - 1)] + [hi])
        pts = tuple(Point(tuple(c)) for c in itertools.product(*axes))
        return cls(points=pts, box=box, resolution=res, name=name)

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
        if p.dimension != self.dimension:
            return False
        if self.box is not None:
            return self._in_box(p, tol)
        return any(
            all(abs(a - b) <= tol for a, b in zip(p.coords, q.coords))
            for q in self.points
        )

    def _in_box(self, p: Point, tol: float) -> bool:
        assert self.box is not None
        return all(
            lo - tol <= c <= hi + tol for c, (lo, hi) in zip(p.coords, self.box)
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
    dimension: int = 0

    def __post_init__(self):
        exprs = tuple(parse(e) if isinstance(e, str) else e for e in self.exprs)
        d = self.dimension or len(exprs)
        if len(exprs) != d:
            raise GSpaceError("one expression per coordinate is required")
        allowed = GFunction._var_names(d) + ("l",)
        for i, e in enumerate(exprs):
            unknown = sorted(variables(e) - set(allowed))
            if unknown:
                raise GSpaceError(
                    f"convex structure coordinate {i + 1} references {unknown}"
                )
        object.__setattr__(self, "exprs", exprs)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(
            self, "_fns", tuple(compile_expr(e, allowed) for e in exprs)
        )

    @cached_property
    def interpolants(self) -> Callable[[tuple, Sequence[tuple], Sequence[float]], list]:
        """A row loop of H compiled on the first check: interpolants(x.coords,
        ys, lams) lists apply(x, y, lam).coords over y in ys, then lam in
        lams, wherever apply returns.  Where apply raises, the loop raises
        too, or lists a non-finite tuple."""
        d = self.dimension
        names = GFunction._var_names(d)
        return compile_point_rows(self.exprs, names[:d], names[d:], "l")

    def apply(self, x: Point, y: Point, lam: float) -> Point:
        if x.dimension != self.dimension or y.dimension != self.dimension:
            raise DimensionMismatch("convex structure dimension mismatch")
        args = x.coords + y.coords + (lam,)
        coords = tuple(fn(*args) for fn in self._fns)
        if not all(math.isfinite(c) for c in coords):
            raise EvalError("non-finite", f"H({x}, {y}, {lam!r})")
        return Point(coords)


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
    gauge and the samples the core was computed from.
    """

    d_g: float
    a_g: SampleSet
    b_g: SampleSet
    partners: tuple[tuple[Point, ...], ...]
    eps: float
    g: Optional[GFunction] = field(default=None, compare=False, repr=False)
    a: Optional[SampleSet] = field(default=None, compare=False, repr=False)
    b: Optional[SampleSet] = field(default=None, compare=False, repr=False)

    @property
    def witnesses(self) -> tuple[tuple[Point, Point], ...]:
        return tuple((x, ys[0]) for x, ys in zip(self.a_g.points, self.partners))

    def mates(
        self, g: GFunction, a: SampleSet, y: Point, eps: float
    ) -> Optional[tuple[Point, ...]]:
        """The points u of A with abs(g(u, y)) within eps of d_g, in A order,
        read from partners when y is a sample point of B and g, a and eps
        are the core's own; None otherwise, and the caller scans A.

        The core evaluated abs(g) on all of A x B with the same kernel
        doubles and the same band test, so the answer is what a scan of A
        against y would give.
        """
        if g is not self.g or a is not self.a or eps != self.eps:
            return None
        return self._mates.get(y.coords)

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

    def falsified(witness: Mapping[str, Point], note: str = "") -> CheckReport:
        lhs, rhs = axiom_sides(kind, g, tol, witness)
        return CheckReport(
            f"{kind}-axiom", _FALSIFIED, witness, lhs=lhs, rhs=rhs, note=note
        )

    if kind == "identity":
        for i, x in enumerate(pts):
            row = g.kernels.marked(repeat(x.coords), coords[:i] + coords[i + 1:])
            k = next((k for k, v in enumerate(row) if not v > tol.eps_zero), -1)
            if k >= 0:  # the row skips x, as sample points are distinct
                return falsified(
                    {"x": x, "y": pts[k + (k >= i)]},
                    "distinct points at zero gauge level",
                )
    elif kind == "symmetry":
        for i, x in enumerate(pts):
            forward = g.kernels.marked(repeat(x.coords), coords[i + 1:])
            backward = g.kernels.marked(coords[i + 1:], repeat(x.coords))
            k = next(
                (k for k, (a, b) in enumerate(zip(forward, backward))
                 if not abs(a - b) <= tol.eps_ineq),
                -1,
            )
            if k >= 0:
                return falsified({"x": x, "y": pts[i + 1 + k]})
    elif kind == "triangle":
        # One abs(g) matrix over the scanned points, with a 0.0 diagonal that
        # g never sees.  For a pair (x, y), z = y then fails only when
        # abs(g(x, y)) is marked, and z = x is skipped: its entry abs(g(y, x))
        # is not the pair's to evaluate.
        matrix = []
        for i, c in enumerate(coords):
            row = g.kernels.marked(repeat(c), coords[:i] + coords[i + 1:])
            row.insert(i, 0.0)
            matrix.append(row)
        eps = tol.eps_ineq
        for i, x in enumerate(pts):
            for k, y in enumerate(pts):
                if y.coords == x.coords:
                    continue
                gxy = matrix[i][k]
                m = next(
                    (m for m, (a, b) in enumerate(zip(matrix[i], matrix[k]))
                     if not a <= gxy + b + eps and m != i),
                    -1,
                )
                if m >= 0:
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
    non-uniqueness of limits."""
    limits = []
    for c in candidates.points:
        report = classify_sequence(g, s, c, tol)
        if report.convergent:
            limits.append(c)
    return limits


def proximal_core(
    g: GFunction, a: SampleSet, b: SampleSet, tol: ToleranceSet
) -> ProximalCore:
    """Exact minimum of abs(g) over the sampled product, with realising sets.

    Membership in a_g and b_g uses the eps_prox band around d_g; partners
    lists each a_g member's banded partners in list order.
    """
    eps = tol.eps_prox
    d_g = math.inf
    # Per point of A, the partners within eps of its own row minimum: a
    # superset of its band around d_g, which is at most that minimum.  A row
    # with many such partners is kept whole, so this never holds more than
    # the full matrix of values.
    near = []
    for x in a.points:
        row = _gauge_row(g, x, b)
        low = min(row)
        d_g = min(d_g, low)
        keep = [j for j, v in enumerate(row) if v - low <= eps]
        if 4 * len(keep) > len(row):
            near.append((range(len(row)), row))
        else:
            near.append((keep, [row[j] for j in keep]))
    a_pts, partners = [], []
    b_hit = [False] * len(b.points)
    for i, x in enumerate(a.points):
        keep, values = near[i]
        near[i] = None  # free each row once read: the partners replace it
        hits = [j for j, v in zip(keep, values) if abs(v - d_g) <= eps]
        for j in hits:
            b_hit[j] = True
        if hits:
            a_pts.append(x)
            partners.append(
                b.points if len(hits) == len(b.points)
                else tuple(map(b.points.__getitem__, hits))
            )
    b_pts = [y for j, y in enumerate(b.points) if b_hit[j]]
    return ProximalCore(
        d_g=d_g,
        a_g=SampleSet(points=tuple(a_pts), name=f"{a.name or 'A'}_g"),
        b_g=SampleSet(points=tuple(b_pts), name=f"{b.name or 'B'}_g"),
        partners=tuple(partners),
        eps=eps,
        g=g,
        a=a,
        b=b,
    )


def proximal_select(
    g: GFunction,
    a: SampleSet,
    b: Point,
    core: ProximalCore,
    tol: ToleranceSet,
) -> Point:
    """The sample point of A realising the proximity level against b.

    Among points within the eps_prox band the one with the smallest residual
    wins; exact ties break lexicographically by coordinates, so selection is
    deterministic.  Raises NoProximalMate when the band is empty, which
    signals either an image escaping the realising set or a grid too coarse.
    """
    d_g = core.d_g
    residuals = [abs(v - d_g) for v in _gauge_row(g, a, b)]
    low = min(residuals)
    if not low <= tol.eps_prox:
        raise NoProximalMate(
            f"no point of {a.name or 'A'} realises the proximity level "
            f"{core.d_g!r} against {b} within {tol.eps_prox!r}"
        )
    return min(
        (x for x, r in zip(a.points, residuals) if r == low),
        key=lambda x: x.coords,
    )


def check_semi_sharp(g: GFunction, core: ProximalCore) -> CheckReport:
    """Falsified when some a has two distinct partners at the proximity level;
    the witness is the first member of a_g with two, and its first two."""
    for x, ys in zip(core.a_g.points, core.partners):
        if len(ys) > 1:
            witness = {"a": x, "b1": ys[0], "b2": ys[1]}
            lhs, rhs = semi_sharp_sides(g, core, witness)
            return CheckReport(
                "semi-sharp", _FALSIFIED, witness, lhs=lhs, rhs=rhs,
                note="two distinct partners at the proximity level",
            )
    return CheckReport("semi-sharp", _HOLDS)


def semi_sharp_sides(
    g: GFunction, core: ProximalCore, witness: Mapping[str, Point]
) -> tuple[float, float]:
    """abs(g(a, b2)) at a witness, against the proximity level."""
    return abs(eval_g(g, witness["a"], witness["b2"])), core.d_g


def _stride_indices(n: int, m: int, seed: int = 0) -> list[int]:
    """Deterministic subsample of range(n) of size <= m.

    Seed 0 gives evenly spaced indices including both endpoints; other seeds
    give a reproducible random sample.
    """
    if m >= n:
        return list(range(n))
    if m == 1:
        return [0]
    if seed == 0:
        return sorted({round(i * (n - 1) / (m - 1)) for i in range(m)})
    rng = random.Random(seed)
    return sorted(rng.sample(range(n), m))


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


def _subsampled(points: Sequence, m: int, seed: int) -> list:
    return [points[i] for i in _stride_indices(len(points), m, seed)]


# The tuple cap of the subsampled scans: _capped's default, and the convex
# check's budget.
MAX_TUPLES = 1_000_000


def _capped(
    items: Sequence, box: bool, arity: int, seed: int, cap: Optional[int] = None
) -> Sequence:
    """The items a scan of arity-tuples over them reads: all of them, unless
    they come from a box sample and make more than cap (default MAX_TUPLES)
    tuples; then max(2, floor(cap ** (1 / arity))) of them, picked by
    _stride_indices.  An exact set is never cut."""
    cap = MAX_TUPLES if cap is None else cap
    if not box or len(items) ** arity <= cap:
        return items
    return _subsampled(items, max(2, int(cap ** (1 / arity))), seed)


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
    """
    lams = list(lambda_grid)
    if 0.0 not in lams or 1.0 not in lams:
        raise GSpaceError("lambda grid must include 0 and 1")
    pts = s.points

    def axes(k: int):
        """k point axes and the lambda axis, subsampled to at most MAX_TUPLES
        tuples (the lambda axis keeps 0 and 1), then the (lam, 1 - lam) of
        the lambda axis and its length."""
        m = _axis_budget([len(pts)] * k + [len(lams)], MAX_TUPLES)
        lam_sub = sorted(
            set(lams[i] for i in _stride_indices(len(lams), m[k], seed)) | {0.0, 1.0}
        )
        point_axes = [_subsampled(pts, size, seed) for size in m[:k]]
        lm = [(lam, 1.0 - lam) for lam in lam_sub]
        return point_axes, lam_sub, lm, len(lm)

    # condition one: tuples (x0, x, y, lam)
    (xs0, xs, ys), lam_sub, lm, width = axes(3)
    eps = tol.eps_ineq

    def h_row(x: Point, ys: Sequence[Point]) -> tuple[list, list[int]]:
        """Interpolant coordinates over (y, lam) in scan order, and the
        indices at which H raises.  Each of those holds x's coordinates: the
        gauge may see them, but the right side there is a mark, so no
        comparison holds.  A compiled row that raises or is not finite is
        built again through apply, one tuple at a time."""
        try:
            row = h.interpolants(x.coords, [y.coords for y in ys], lam_sub)
            if math.isfinite(sum(chain.from_iterable(row))):
                return row, []
        except (ArithmeticError, ValueError):
            pass
        row, failed = [], []
        for y in ys:
            for lam in lam_sub:
                try:
                    row.append(h.apply(x, y, lam).coords)
                except EvalError:
                    failed.append(len(row))
                    row.append(x.coords)
        return row, failed

    # first_violation takes the right side lam * a + (1 - lam) * b of a row
    # over (b, lam) as its terms: LA, lam * a per lam, and MB, (1 - lam) * b
    # per (b, lam), each with the sum of its terms' magnitudes.
    def lam_terms(a: float) -> tuple[list, float]:
        LA = [lam * a for lam, _ in lm]
        return LA, sum(map(abs, LA))

    def mix_terms(bs: list) -> tuple[list, float]:
        MB = [mix * b for b in bs for _, mix in lm]
        return MB, sum(map(abs, MB))

    def first_over(P: Iterable, Q: Iterable, LA: tuple, MB: tuple, failed: list) -> int:
        """The first index of a row over (b, lam) at which not abs(g) <=
        LA[lam] + MB[b, lam] + eps, or -1; a marked tuple or an index in
        failed stops it.  The fused loop runs while every right side is
        finite, which the two magnitude sums bound, and the marked row takes
        over a row on which it raises."""
        (la, la_size), (mb, mb_size) = LA, MB
        if not failed and math.isfinite(la_size + mb_size + eps):
            try:
                return g.kernels.first_violation(P, Q, la, mb, eps)
            except (ArithmeticError, ValueError):
                pass
        R = [a + b for a, b in zip(cycle(la), mb)]
        for k in failed:
            R[k] = math.nan
        over = (not v <= r + eps for v, r in zip(g.kernels.marked(P, Q), R))
        return next(compress(count(), over), -1)

    def falsified(witness: Mapping[str, Union[Point, float]], note: str) -> CheckReport:
        lhs, rhs = convex_condition_sides(h, g, witness)
        return CheckReport(
            "convex-structure", _FALSIFIED, witness, lhs=lhs, rhs=rhs, note=note
        )

    # Kernel rows run over (y, lam) for condition one and (y0, lam) for
    # condition two; interpolant rows are built once and reused.
    h_rows: dict[int, tuple[list, list[int]]] = {}
    for x0 in xs0:
        gx, gy = _gauge_row(g, x0, xs), mix_terms(_gauge_row(g, x0, ys))
        for i, x in enumerate(xs):
            if i not in h_rows:
                h_rows[i] = h_row(x, ys)
            row, failed = h_rows[i]
            k = first_over(repeat(x0.coords), row, lam_terms(gx[i]), gy, failed)
            if k >= 0:
                y, lam = ys[k // width], lam_sub[k % width]
                return falsified({"x0": x0, "x": x, "y": y, "lam": lam}, "condition one")
    h_rows.clear()  # free before condition two builds its rows: a lower peak
    # condition two: tuples (x, y, x0, y0, lam)
    (xs, ys, xs0, ys0), lam_sub, lm, width = axes(4)
    xs0_coords = [x0.coords for x0 in xs0]
    ys0_coords = [y0.coords for y0 in ys0]
    q_rows: dict[int, tuple[list, list[int]]] = {}
    gyy0_rows = [mix_terms(g.kernels.marked(repeat(y.coords), ys0_coords)) for y in ys]
    for x in xs:
        gxx0 = [lam_terms(a) for a in g.kernels.marked(repeat(x.coords), xs0_coords)]
        for y, gyy0 in zip(ys, gyy0_rows):
            p_row, p_failed = h_row(x, [y])
            p_row *= len(ys0)
            p_failed = [k + width * j for j in range(len(ys0)) for k in p_failed]
            for j, x0 in enumerate(xs0):
                if j not in q_rows:
                    q_rows[j] = h_row(x0, ys0)
                q_row, q_failed = q_rows[j]
                k = first_over(p_row, q_row, gxx0[j], gyy0, p_failed + q_failed)
                if k >= 0:
                    y0, lam = ys0[k // width], lam_sub[k % width]
                    witness = {"x": x, "y": y, "x0": x0, "y0": y0, "lam": lam}
                    return falsified(witness, "condition two")
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
    for x in a.points:
        for lam in lambda_grid:
            image = h.apply(r, x, lam)
            if not a.contains(image, band):
                return CheckReport(
                    "starshaped", _FALSIFIED,
                    {"x": x, "lam": lam, "image": image},
                    note="interpolant escapes the set",
                )
    return CheckReport("starshaped", _HOLDS)


def check_side_condition(
    g: GFunction,
    core: ProximalCore,
    r: Point,
    s: Point,
    tol: ToleranceSet,
) -> CheckReport:
    """Check that abs(g(r,x)) + abs(g(y,s)) sits at twice the inner proximity
    level for every sampled x in b_g, y in a_g."""
    target = side_condition_target(core)
    b_pts, a_pts = core.b_g.points, core.a_g.points
    grx_row = g.kernels.marked(repeat(r.coords), core.b_g.coords)
    gys_row = g.kernels.marked(core.a_g.coords, repeat(s.coords))
    eps = tol.eps_ineq
    for i, grx in enumerate(grx_row):
        j = next(
            (j for j, v in enumerate(gys_row) if not abs(grx + v - target) <= eps), -1
        )
        if j >= 0:
            witness = {"x": b_pts[i], "y": a_pts[j]}
            lhs, rhs = side_condition_sides(g, r, s, target, witness)
            return CheckReport(
                "side-condition", _FALSIFIED, witness, lhs=lhs, rhs=rhs
            )
    return CheckReport("side-condition", _HOLDS, note=f"target {target!r}")


def side_condition_target(core: ProximalCore) -> float:
    """Twice the proximity level of the realising pair (a_g, b_g).

    That level is d_g itself, bit for bit: a pair at exactly d_g lies in
    a_g x b_g, and no pair of A x B is lower.
    """
    return 2.0 * core.d_g


def side_condition_sides(
    g: GFunction,
    r: Point,
    s: Point,
    target: float,
    witness: Mapping[str, Point],
) -> tuple[float, float]:
    """abs(g(r, x)) + abs(g(y, s)) at a witness, against the target level."""
    return abs(eval_g(g, r, witness["x"])) + abs(eval_g(g, witness["y"], s)), target
