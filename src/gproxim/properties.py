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
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Optional, Sequence, Union

from .expr import Expr, compile_expr, parse, variables
from .gspace import (
    GFunction,
    GSpaceError,
    Point,
    ProximalCore,
    SampleSet,
    ToleranceSet,
    _stride_indices,
    eval_g,
)

__all__ = [
    "MapSpec",
    "PropertyReport",
    "check_banach_contraction",
    "estimate_coefficient",
    "check_proximal_inequality",
    "estimate_proximal_coefficient",
    "qualifying_pairs",
    "banach_sides",
    "proximal_sides",
]

_HOLDS = "holds-on-sample"
_FALSIFIED = "falsified"


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
        allowed = tuple(f"x{i}" for i in range(1, d + 1))
        for i, e in enumerate(parsed):
            unknown = sorted(variables(e) - set(allowed))
            if unknown:
                raise GSpaceError(
                    f"map {name!r} coordinate {i + 1} references {unknown}"
                )
        self.exprs = parsed
        self.domain = domain
        self.codomain = codomain
        self.name = name
        self._fns = tuple(compile_expr(e, allowed) for e in parsed)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def apply(self, p: Point) -> Point:
        if p.dimension != self.dimension:
            raise GSpaceError(f"map {self.name!r} applied to wrong dimension")
        coords = tuple(fn(*p.coords) for fn in self._fns)
        if not all(math.isfinite(c) for c in coords):
            raise GSpaceError(f"map {self.name!r} produced non-finite image at {p}")
        return Point(coords)

    def validate_into_codomain(self, tol: float = 1e-9) -> Optional[Point]:
        """First sampled domain point whose image escapes the codomain, if any."""
        for p in self.domain.points:
            if not self.codomain.contains(self.apply(p), tol):
                return p
        return None

    def __repr__(self) -> str:
        body = ", ".join(str(e) for e in self.exprs)
        return f"MapSpec({self.name}=[{body}])"


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of a contraction-class check with a replayable witness.

    beta and n_cap record the coefficients the inequality was checked with
    (alpha is stored in beta for the plain contraction check).  vacuous marks
    a proximal check that found no qualifying quadruples at all.
    """

    check: str
    verdict: str
    witness: Optional[Mapping[str, Point]]
    lhs: Optional[float]
    rhs: Optional[float]
    beta: float
    n_cap: float
    vacuous: bool = False

    @property
    def falsified(self) -> bool:
        return self.verdict == _FALSIFIED

    @property
    def holds(self) -> bool:
        return self.verdict == _HOLDS

    @property
    def margin(self) -> Optional[float]:
        if self.lhs is None or self.rhs is None:
            return None
        return self.lhs - self.rhs


def _pairs(t: MapSpec, max_pairs: int, seed: int):
    """The scanned domain points (grids subsampled to at most max_pairs
    pairs), their images, and both as coordinate tuples."""
    pts = list(t.domain.points)
    if t.domain.mode == "box" and len(pts) ** 2 > max_pairs:
        m = max(2, int(math.isqrt(max_pairs)))
        pts = [pts[i] for i in _stride_indices(len(pts), m, seed)]
    images = [t.apply(p) for p in pts]
    return pts, images, [p.coords for p in pts], [p.coords for p in images]


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


def check_banach_contraction(
    g: GFunction,
    t: MapSpec,
    alpha: float,
    tol: ToleranceSet,
    max_pairs: int = 1_000_000,
    seed: int = 0,
) -> PropertyReport:
    """Falsified when some sampled pair has abs(g(Tx, Ty)) above
    alpha * abs(g(x, y)) by more than eps_ineq."""
    if not 0.0 < alpha < 1.0:
        raise GSpaceError(f"alpha must lie in (0, 1), got {alpha!r}")
    pts, images, coords, image_coords = _pairs(t, max_pairs, seed)
    eps = tol.eps_ineq
    for x, tx in zip(pts, images):
        start = 0
        row = g.kernels.abs_row(repeat(x.coords), coords)
        if row is not None:
            rhs_row = [alpha * v for v in row]
            start = g.kernels.resume_at(repeat(tx.coords), image_coords, rhs_row, eps)
        if start < 0:
            continue
        for y, ty in zip(pts[start:], images[start:]):
            witness = {"x": x, "y": y}
            lhs, rhs = banach_sides(g, t, alpha, witness, tx, ty)
            if lhs > rhs + eps:
                return PropertyReport(
                    "banach-contraction", _FALSIFIED, witness,
                    lhs=lhs, rhs=rhs, beta=alpha, n_cap=0.0,
                )
    return PropertyReport(
        "banach-contraction", _HOLDS, None, None, None, beta=alpha, n_cap=0.0
    )


def estimate_coefficient(
    g: GFunction,
    t: MapSpec,
    tol: ToleranceSet,
    max_pairs: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Tightest contraction coefficient supported by the sample.

    The supremum of abs(g(Tx, Ty)) / abs(g(x, y)) over pairs whose gauge is
    above zero level.  A pair at zero level with a non-zero image gauge makes
    the estimate infinite.  Returns 0.0 when no pair constrains the ratio.
    """
    pts, images, coords, image_coords = _pairs(t, max_pairs, seed)
    zero = tol.eps_zero
    best = 0.0
    for x, tx in zip(pts, images):
        nums = g.kernels.abs_row(repeat(tx.coords), image_coords)
        dens = g.kernels.abs_row(repeat(x.coords), coords)
        if nums is not None and dens is not None:
            at_zero = [num for num, den in zip(nums, dens) if not den > zero]
            if at_zero and max(at_zero) > zero:
                return math.inf
            ratios = [num / den for num, den in zip(nums, dens) if den > zero]
            best = max(best, max(ratios, default=0.0))
            continue
        for ty, y in zip(images, pts):
            # the two sides at alpha = 1 are the ratio's terms
            num, den = banach_sides(g, t, 1.0, {"x": x, "y": y}, tx, ty)
            if den > zero:
                best = max(best, num / den)
            elif num > zero:
                return math.inf
    return best


def qualifying_pairs(
    g: GFunction,
    f: MapSpec,
    a: SampleSet,
    core: ProximalCore,
    tol: ToleranceSet,
    max_points: int = 2000,
    seed: int = 0,
) -> list[tuple[Point, Point]]:
    """Pairs (x, u) of sampled A points with abs(g(u, f(x))) at the proximity
    level; these are the building blocks of the quadruple scans."""
    pts = list(a.points)
    if a.mode == "box" and len(pts) > max_points:
        pts = [pts[i] for i in _stride_indices(len(pts), max_points, seed)]
    images = [(x, f.apply(x)) for x in pts]
    coords = [u.coords for u in pts]
    level, band = core.d_g, tol.eps_prox
    out = []
    for x, fx in images:
        row = g.kernels.abs_row(coords, repeat(fx.coords)) or [
            abs(eval_g(g, u, fx)) for u in pts
        ]
        out += [(x, u) for u, v in zip(pts, row) if abs(v - level) <= band]
    return out


def _proximal_terms(
    g: GFunction, witness: Mapping[str, Point]
) -> tuple[float, float, float]:
    """abs(g(u1, u2)), abs(g(x1, x2)) and abs(g(x2, u1)) at a quadruple,
    evaluated in that order."""
    x1, x2, u1 = witness["x1"], witness["x2"], witness["u1"]
    return (
        abs(eval_g(g, u1, witness["u2"])),
        abs(eval_g(g, x1, x2)),
        abs(eval_g(g, x2, u1)),
    )


def proximal_sides(
    g: GFunction,
    witness: Mapping[str, Point],
    beta: float,
    n_cap: float,
) -> tuple[float, float]:
    """Both sides of the proximal inequality at a witness quadruple."""
    g_uu, g_xx, g_xu = _proximal_terms(g, witness)
    return g_uu, beta * g_xx + n_cap * g_xu


def _quadruples(
    g: GFunction,
    f: MapSpec,
    a: SampleSet,
    core: ProximalCore,
    tol: ToleranceSet,
    max_quadruples: int,
    seed: int,
):
    """Witness quadruples (x1, x2, u1, u2) over the qualifying pairs, in scan
    order; exact sets are enumerated whole, grids under the quadruple cap."""
    pairs = qualifying_pairs(g, f, a, core, tol, seed=seed)
    if a.mode == "box" and len(pairs) ** 2 > max_quadruples:
        m = max(2, int(math.isqrt(max_quadruples)))
        pairs = [pairs[i] for i in _stride_indices(len(pairs), m, seed)]
    for x1, u1 in pairs:
        for x2, u2 in pairs:
            yield {"x1": x1, "x2": x2, "u1": u1, "u2": u2}


def check_proximal_inequality(
    g: GFunction,
    f: MapSpec,
    a: SampleSet,
    beta: float,
    n_cap: float,
    core: ProximalCore,
    tol: ToleranceSet,
    max_quadruples: int = 1_000_000,
    seed: int = 0,
) -> PropertyReport:
    """Check the proximal contraction inequality over qualifying quadruples.

    Quadruples (x1, x2, u1, u2) from A with both abs(g(u_i, f(x_i))) at the
    proximity level must satisfy abs(g(u1, u2)) <= beta * abs(g(x1, x2)) +
    n_cap * abs(g(x2, u1)).  beta below 1 is the weak-contraction mode and
    beta equal to 1 the non-expansive mode; the two definitions differ only
    in that coefficient, so they share this code path.  Finding no qualifying
    quadruple at all is reported as a vacuous hold, never silently.
    """
    if not 0.0 < beta <= 1.0:
        raise GSpaceError(f"beta must lie in (0, 1], got {beta!r}")
    if n_cap < 0.0:
        raise GSpaceError(f"N must be non-negative, got {n_cap!r}")
    check_name = "proximal-berinde" if beta == 1.0 else "proximal-weak"
    vacuous = True
    for witness in _quadruples(g, f, a, core, tol, max_quadruples, seed):
        vacuous = False
        lhs, rhs = proximal_sides(g, witness, beta, n_cap)
        if lhs > rhs + tol.eps_ineq:
            return PropertyReport(
                check_name, _FALSIFIED, witness,
                lhs=lhs, rhs=rhs, beta=beta, n_cap=n_cap,
            )
    return PropertyReport(
        check_name, _HOLDS, None, None, None,
        beta=beta, n_cap=n_cap, vacuous=vacuous,
    )


def estimate_proximal_coefficient(
    g: GFunction,
    f: MapSpec,
    a: SampleSet,
    n_cap: float,
    core: ProximalCore,
    tol: ToleranceSet,
    max_quadruples: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Tightest beta supported by the qualifying quadruples, given N.

    The supremum of (abs(g(u1, u2)) - N * abs(g(x2, u1))) / abs(g(x1, x2))
    over quadruples whose denominator is above zero level; infinite when a
    zero-level denominator meets a positive numerator.  Returns 0.0 when no
    quadruple constrains the ratio (including the vacuous case).
    """
    best = 0.0
    for witness in _quadruples(g, f, a, core, tol, max_quadruples, seed):
        g_uu, den, g_xu = _proximal_terms(g, witness)
        num = g_uu - n_cap * g_xu
        if den > tol.eps_zero:
            best = max(best, num / den)
        elif num > tol.eps_zero:
            return math.inf
    return best
