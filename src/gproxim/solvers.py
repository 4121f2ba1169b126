"""Constructive schemes: contraction iteration, its power variant, proximity
iteration for non-self maps, and the staged interpolation scheme.  The
staged scheme runs only its stages; its hypotheses are checked by the
caller (the command line runs them as verify specs, see cli._BATTERY).

Each run produces a Trace: the visited points, per-step gauge residuals, the
geometric a-priori bounds used as a stopping certificate, and a final-point
certificate residual.  Stopping combines the a-priori tail bound with the
step residual, whichever triggers first.  Runs are single threaded and
deterministic; independent runs may execute concurrently.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

from .expr import compile_iteration
from .gspace import (
    CheckReport,
    ConvexStructure,
    GFunction,
    GSpaceError,
    NoProximalMate,
    Point,
    ProximalCore,
    SampleSet,
    ToleranceSet,
    _checked_point,
    _gauge_row,
    eval_g,
    proximal_select,
)
from .properties import MapSpec, _check_alpha, check_proximal_inequality

__all__ = [
    "Trace",
    "Schedule",
    "IteratedMap",
    "StageMap",
    "StageReport",
    "BatteryItem",
    "BerindeResult",
    "DomainEscape",
    "picard",
    "power_fixed_point",
    "proximal_iterate",
    "berinde_scheme",
    "write_trace_csv",
]

DEFAULT_MAX_ITER = 10_000
_MAX = sys.float_info.max


class DomainEscape(GSpaceError):
    """An iterate left the sampled domain."""


@dataclass
class Trace:
    """Record of one solver run.

    step_residuals[k] is abs(g(p_k, p_{k+1})).  proximity_residuals[k] is the
    certificate residual at p_k: abs(g(p_k, U(p_k))) for self maps, and the
    distance of abs(g(p_k, f(p_k))) from the proximity level for non-self
    maps.  apriori_bounds[k] is the geometric tail bound from p_k.
    """

    points: list[Point]
    step_residuals: list[float]
    proximity_residuals: list[float]
    apriori_bounds: list[float]
    verdict: str  # "converged" | "max_iter" | "no_proximal_mate" | "post_check_failed"
    final: Point
    alpha: Optional[float] = None
    contraction_verified: bool = False
    certificate_residual: Optional[float] = None

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


def write_trace_csv(trace: Trace, path) -> None:
    """Write the trace as CSV: step, coordinates, step_residual,
    proximity_residual, apriori_bound."""
    d = trace.points[0].dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step"]
            + [f"x{i}" for i in range(1, d + 1)]
            + ["step_residual", "proximity_residual", "apriori_bound"]
        )
        columns = (trace.step_residuals, trace.proximity_residuals, trace.apriori_bounds)
        for k, p in enumerate(trace.points):
            writer.writerow(
                [k] + [repr(c) for c in p.coords]
                + [repr(col[k]) if k < len(col) else "" for col in columns]
            )


@dataclass(frozen=True)
class Schedule:
    """Stage parameters a_1..a_K in (0, 1), non-increasing, tending to zero."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise GSpaceError("schedule needs at least one stage")
        prev = 1.0
        for v in self.values:
            if not 0.0 < v < 1.0:
                raise GSpaceError(f"schedule value {v!r} outside (0, 1)")
            if v > prev:
                raise GSpaceError("schedule must be non-increasing")
            prev = v

    @property
    def stages(self) -> int:
        return len(self.values)

    @classmethod
    def harmonic(cls, stages: int) -> "Schedule":
        """The default rule a_n = 1 / (n + 1)."""
        return cls(tuple(1.0 / (n + 1) for n in range(1, stages + 1)))


@dataclass(frozen=True)
class IteratedMap:
    """The n-fold composition of a self map, applied functionally."""

    base: MapSpec
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise GSpaceError("power must be at least 1")

    @property
    def domain(self) -> SampleSet:
        return self.base.domain

    @property
    def codomain(self) -> SampleSet:
        return self.base.codomain

    def apply(self, p: Point) -> Point:
        for _ in range(self.power):
            p = self.base.apply(p)
        return p


@dataclass(frozen=True)
class StageMap:
    """One stage of the interpolation scheme: x maps to H(s, f(x), a_n)."""

    h: ConvexStructure
    s: Point
    f: MapSpec
    a_n: float

    @property
    def domain(self) -> SampleSet:
        return self.f.domain

    @property
    def codomain(self) -> SampleSet:
        return self.f.codomain

    @property
    def name(self) -> str:
        return f"H(s,{self.f.name},{self.a_n!r})"

    def apply(self, p: Point) -> Point:
        return self.h.apply(self.s, self.f.apply(p), self.a_n)


MapLike = Union[MapSpec, IteratedMap, StageMap]


def _stepper(g: GFunction, u: MapLike, eps: float) -> Callable[..., tuple[bool, str]]:
    """The compiled steps of picard on u (expr.compile_iteration), its domain
    test and image bound: a MapSpec, or an IteratedMap of one, runs its
    texts; any other map gives its image through apply.  A box domain's
    bounds are lo - eps and hi + eps, as SampleSet._has tests them, each
    kept finite, so that they also test that the image is."""
    d = g.dimension
    names = GFunction._var_names(d)
    base, power = (u.base, u.power) if isinstance(u, IteratedMap) else (u, 1)
    exprs = base.exprs if isinstance(base, MapSpec) else None
    box = u.domain.box
    steps = compile_iteration(g.expr, names[:d], names[d:], exprs, power, box is not None)
    if box is None:
        test = partial(u.domain._has, tol=eps)
    else:
        test = (tuple(max(lo - eps, -_MAX) for lo, _ in box),
                tuple(min(hi + eps, _MAX) for _, hi in box))
    image = None if exprs else (lambda c: u.apply(_checked_point(c)).coords)
    return partial(steps, test, image)


def picard(
    g: GFunction,
    u: MapLike,
    p0: Point,
    alpha: float,
    tol: ToleranceSet,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Trace:
    """Iterate p_{k+1} = U(p_k) until the geometric tail bound or the step
    residual falls below zero level.

    The tail bound after k + 1 steps is alpha^(k+1) / (1 - alpha) times the
    first step residual, which bounds every remaining gauge distance when U
    contracts at rate alpha.  A run the bound ends converges only when every
    step met that rate (step_res[k+1] <= alpha * step_res[k] + eps_ineq) and
    the certificate residual abs(g(p, U(p))) at the final point is at zero
    level; otherwise alpha was wrong and the verdict is "post_check_failed".
    Visited points are checked against the domain sample; an escaping
    iterate raises DomainEscape.

    The steps run in one compiled loop (see _stepper).  At the first step
    that raises, is not finite or leaves the domain, the scalar calls
    (U.apply, the domain's contains, eval_g) run that step again and raise
    its error.
    """
    _check_alpha(alpha)
    if not u.domain.contains(p0, tol.eps_prox):
        raise DomainEscape(f"start point {p0} outside the sampled domain")
    images: list[tuple[float, ...]] = []
    step_res: list[float] = []
    if g.dimension == p0.dimension:
        steps = _stepper(g, u, tol.eps_prox)
        verified, how = steps(p0.coords, max_iter, alpha, tol.eps_ineq, tol.eps_zero,
                              images, step_res)
    else:  # eval_g raises at the first step, after U and the domain test
        verified, how = True, "raised" if max_iter > 0 else "max_iter"
    points = [p0, *map(_checked_point, images)]
    if how == "raised":
        p, k = points[-1], len(images)
        q = u.apply(p)
        if not u.domain.contains(q, tol.eps_prox):
            raise DomainEscape(f"iterate {q} left the sampled domain at step {k + 1}")
        eval_g(g, p, q)
        raise GSpaceError(f"step {k + 1} stopped the compiled loop, not the scalar calls")
    r0 = step_res[0] if step_res else 0.0
    bounds = [alpha ** k / (1.0 - alpha) * r0 for k in range(len(points))]
    # U(p_k) is p_(k+1), so only the last point needs its certificate residual
    prox = step_res + [abs(eval_g(g, points[-1], u.apply(points[-1])))]
    verdict = "converged" if how == "converged" else "max_iter"
    if how == "bound":
        backed = verified and prox[-1] <= tol.eps_zero
        verdict = "converged" if backed else "post_check_failed"
    return Trace(
        points=points,
        step_residuals=step_res,
        proximity_residuals=prox,
        apriori_bounds=bounds,
        verdict=verdict,
        final=points[-1],
        alpha=alpha,
        contraction_verified=verified,
        certificate_residual=prox[-1],
    )


def power_fixed_point(
    g: GFunction,
    u: MapSpec,
    n0: int,
    p0: Point,
    alpha: float,
    tol: ToleranceSet,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Trace:
    """Run the contraction iteration on the n0-fold composition of U, then
    certify the result against U itself.

    The composed map may contract even when U does not.  After convergence
    the base-map residual abs(g(U(final), final)) is stored as the
    certificate; exceeding ten times zero level downgrades the verdict to
    "post_check_failed".  n0 = 1 reduces exactly to the plain iteration.
    """
    if n0 < 1:
        raise GSpaceError(f"n0 must be at least 1, got {n0}")
    composed = IteratedMap(u, n0) if n0 > 1 else u
    trace = picard(g, composed, p0, alpha, tol, max_iter)
    base_res = abs(eval_g(g, u.apply(trace.final), trace.final))
    trace.certificate_residual = base_res
    if trace.verdict == "converged" and base_res > 10.0 * tol.eps_zero:
        trace.verdict = "post_check_failed"
    return trace


def _prox_residual(core: ProximalCore, p: Point, fp: Point) -> float:
    """The distance of abs(g(p, f(p))) from the core's level, fp being f(p)."""
    return abs(abs(eval_g(core.g, p, fp)) - core.d_g)


def proximal_iterate(
    f: MapLike,
    core: ProximalCore,
    p0: Point,
    tol: ToleranceSet,
    max_iter: int = DEFAULT_MAX_ITER,
    check_image: bool = True,
) -> Trace:
    """Iterate the proximity selection p_{k+1} realising the core's level
    against f(p_k), until both the step residual and the proximity residual
    vanish.

    The start point must realise the proximity level against the core's B
    itself, and (by default) every realising point must have a selectable
    image, mirroring the requirement that f maps the realising set into its
    partner: the images are asked in runs (ProximalCore.mates_of), and the
    first without a mate raises NoProximalMate before any later image's
    error.  A selection failing mid-run ends the trace with verdict
    "no_proximal_mate".  Each visited point is mapped once: its image gives
    its proximity residual and then the next selection.
    """
    g, eps = core.g, core.eps
    best0 = min(abs(v - core.d_g) for v in _gauge_row(g, p0, core.b))
    if best0 > eps:
        raise GSpaceError(
            f"start point {p0} does not realise the proximity level "
            f"(residual {best0!r})"
        )
    if check_image:
        realising = core.a_g.points
        for x, mates in zip(realising, core.mates_of(map(f.apply, realising))):
            if not mates:
                raise NoProximalMate(
                    f"image of realising point {x} has no proximity mate; "
                    f"the map does not send the realising set into its partner"
                )
    points = [p0]
    step_res: list[float] = []
    fp = f.apply(p0)
    prox_res = [_prox_residual(core, p0, fp)]
    verdict = "max_iter"
    for _ in range(max_iter):
        p = points[-1]
        try:
            q = proximal_select(core, fp)
        except NoProximalMate:
            verdict = "no_proximal_mate"
            break
        r = abs(eval_g(g, p, q))
        points.append(q)
        step_res.append(r)
        fp = f.apply(q)
        prox_res.append(_prox_residual(core, q, fp))
        if r <= tol.eps_zero and prox_res[-1] <= eps:
            verdict = "converged"
            break
    bounds = [math.nan] * len(points)  # no verified rate for non-self maps
    return Trace(
        points=points,
        step_residuals=step_res,
        proximity_residuals=prox_res,
        apriori_bounds=bounds,
        verdict=verdict,
        final=points[-1],
        certificate_residual=prox_res[-1],
    )


@dataclass(frozen=True)
class BatteryItem:
    """One hypothesis check of the staged scheme; failures warn, not abort."""

    name: str
    passed: bool
    vacuous: bool = False
    note: str = ""
    report: Optional[CheckReport] = None


@dataclass
class StageReport:
    stage: int
    a_n: float
    beta_n: float
    check: CheckReport
    trace: Trace
    output: Point
    residual: float  # proximity residual of the stage output under the base map


@dataclass
class BerindeResult:
    """The staged scheme's outcome; its caller fills battery."""

    final: Point
    residual: float
    verdict: str
    stages: list[StageReport]
    trace: Trace
    battery: list[BatteryItem] = field(default_factory=list)

    @property
    def hypotheses_ok(self) -> bool:
        return all(item.passed for item in self.battery)


def berinde_scheme(
    f: MapSpec,
    core: ProximalCore,
    h: ConvexStructure,
    s: Point,
    sched: Schedule,
    tol: ToleranceSet,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> BerindeResult:
    """Staged approximation for a non-expansive proximal map.

    Stage n builds the interpolated map x -> H(s, f(x), a_n), verifies it is
    a proximal weak contraction at coefficient beta_n = 1 - a_n with N = 0,
    and runs the proximity iteration from the previous stage's output (stage
    one starts at the first realising point of core, the proximity core of
    the gauge and the sets that every stage is asked under).  The final
    answer is the stage output with the smallest proximity residual under
    the original map.  The scheme's hypotheses are not checked here: the
    result's battery is left empty for the caller.
    """
    stages: list[StageReport] = []
    current = core.a_g.points[0]
    for n, a_n in enumerate(sched.values, start=1):
        stage_map = StageMap(h, s, f, a_n)
        beta_n = 1.0 - a_n
        check = check_proximal_inequality(stage_map, beta_n, 0.0, core, tol, seed=seed)
        trace = proximal_iterate(
            stage_map, core, current, tol, max_iter, check_image=False
        )
        current = trace.final
        residual = _prox_residual(core, current, f.apply(current))
        stages.append(
            StageReport(
                stage=n, a_n=a_n, beta_n=beta_n, check=check,
                trace=trace, output=current, residual=residual,
            )
        )
    best = min(stages, key=lambda st: (st.residual, st.stage))
    outputs = [st.output for st in stages]
    summary = Trace(
        points=outputs,
        step_residuals=[
            abs(eval_g(core.g, p, q)) for p, q in zip(outputs, outputs[1:])
        ],
        proximity_residuals=[st.residual for st in stages],
        apriori_bounds=[math.nan] * len(outputs),
        verdict="converged"
        if best.residual <= core.eps + tol.eps_zero
        else "max_iter",
        final=best.output,
        certificate_residual=best.residual,
    )
    return BerindeResult(
        final=best.output,
        residual=best.residual,
        verdict=summary.verdict,
        stages=stages,
        trace=summary,
    )
