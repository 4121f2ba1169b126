import csv
import random

import pytest

from conftest import reflection_doc, solve_berinde, write_config
from gproxim.expr import EvalError
from gproxim.gspace import (
    ConvexStructure,
    DimensionMismatch,
    GFunction,
    GSpaceError,
    NoProximalMate,
    Point,
    SampleSet,
    ToleranceSet,
    eval_g,
    proximal_core,
)
from gproxim.properties import MapSpec, _check_alpha, check_proximal_inequality
from gproxim.solvers import (
    DEFAULT_MAX_ITER,
    DomainEscape,
    IteratedMap,
    Schedule,
    StageMap,
    berinde_scheme,
    picard,
    power_fixed_point,
    proximal_iterate,
    Trace,
    write_trace_csv,
)

TOL = ToleranceSet()


def P(*coords):
    return Point(tuple(float(c) for c in coords))


@pytest.fixture
def halving():
    g = GFunction("x1^2 - u1^2", 1)
    x = SampleSet.grid([(0, 1)], 201, name="X")
    t = MapSpec(["x1/2"], x, x, name="T")
    return g, t


class TestPicard:
    def test_halving_reaches_zero_within_sixteen_steps(self, halving):
        g, t = halving
        trace = picard(g, t, P(1), 0.25, TOL)
        assert trace.converged
        assert trace.steps <= 16
        assert abs(eval_g(g, trace.final, P(0))) <= 1e-9

    @pytest.mark.parametrize("power", [1, 2])
    def test_proximity_residuals_are_abs_g_of_each_point_and_its_image(
        self, halving, power
    ):
        g, t = halving
        u = IteratedMap(t, power) if power > 1 else t
        for max_iter in (0, 3, 100):
            trace = picard(g, u, P(1), 0.25, TOL, max_iter)
            want = [abs(eval_g(g, p, u.apply(p))) for p in trace.points]
            assert [r.hex() for r in trace.proximity_residuals] == [
                r.hex() for r in want
            ]

    def test_geometric_decay(self, halving):
        g, t = halving
        trace = picard(g, t, P(1), 0.25, TOL)
        assert trace.contraction_verified
        for k in range(len(trace.step_residuals) - 1):
            assert (
                trace.step_residuals[k + 1]
                <= 0.25 * trace.step_residuals[k] + 1e-12
            )

    def test_apriori_bound_soundness(self, halving):
        # every recorded pair distance is bounded by the tail bound at the
        # earlier index, with the geometric tail summed to its limit
        g, t = halving
        trace = picard(g, t, P(1), 0.25, TOL)
        pts = trace.points
        for n in range(len(pts)):
            for m in range(n + 1, len(pts)):
                assert (
                    abs(eval_g(g, pts[n], pts[m]))
                    <= trace.apriori_bounds[n] + TOL.eps_ineq
                )

    def test_fixed_point_certificate(self, halving):
        g, t = halving
        trace = picard(g, t, P(1), 0.25, TOL)
        assert trace.certificate_residual <= 10 * TOL.eps_zero
        assert trace.certificate_residual == abs(
            eval_g(g, trace.final, t.apply(trace.final))
        )

    def test_constant_map_lands_in_one_application(self):
        g = GFunction("x1 - u1", 1)
        x = SampleSet.grid([(0, 1)], 11, name="X")
        c = MapSpec(["0.25"], x, x, name="C")
        trace = picard(g, c, P(1), 0.5, TOL)
        assert trace.converged
        assert trace.points[1] == P(0.25)  # reached after one application
        assert trace.final == P(0.25)
        assert trace.steps <= 2

    def test_projection_gauge_has_many_fixed_points(self):
        g = GFunction("x2 - u2", 2)
        x = SampleSet.grid([(-10, 10), (-10, 10)], [21, 21], name="X")
        t = MapSpec(["x1", "x2/2"], x, x, name="T")
        finals = []
        for seed in ((3, 1), (7, 1)):
            trace = picard(g, t, P(*seed), 0.5, TOL)
            assert trace.converged
            assert trace.final.coords[0] == seed[0]
            assert abs(trace.final.coords[1]) <= 1e-9
            finals.append(trace.final)
        assert finals[0].coords != finals[1].coords
        # yet the gauge cannot tell the two fixed points apart
        assert abs(eval_g(g, finals[0], finals[1])) <= 10 * TOL.eps_zero

    def test_domain_escape(self):
        g = GFunction("x1 - u1", 1)
        x = SampleSet.grid([(0, 1)], 11, name="X")
        t = MapSpec(["x1 + 0.5"], x, x, name="T")
        with pytest.raises(DomainEscape):
            picard(g, t, P(0.9), 0.5, TOL)

    def test_max_iter_verdict(self, halving):
        g, t = halving
        trace = picard(g, t, P(1), 0.25, TOL, max_iter=3)
        assert trace.verdict == "max_iter"
        assert trace.steps == 3

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.2])
    def test_understated_alpha_never_certifies_a_point_that_is_not_fixed(
        self, halving, alpha
    ):
        # the tail bound at a too small alpha falls below zero level long
        # before the iterates reach the fixed point 0; the steps contradict
        # the rate, so the bound must not end the run as converged
        g, t = halving
        trace = picard(g, t, P(1), alpha, TOL)
        assert not trace.contraction_verified
        assert trace.verdict == "post_check_failed"
        assert trace.certificate_residual > TOL.eps_zero

    def test_bound_needs_the_rate_even_where_the_certificate_vanishes(self):
        # the second step lands on the fixed point 0 but is as long as the
        # first, which contradicts alpha: the bound backs no verdict then
        g = GFunction("x1 - u1", 1)
        x = SampleSet.grid([(0, 1)], 3, name="X")
        t = MapSpec(["max(x1 - 0.5, 0)"], x, x, name="T")
        trace = picard(g, t, P(1), 1e-5, TOL)
        assert trace.steps == 2 and trace.final == P(0)
        assert trace.certificate_residual == 0.0
        assert not trace.contraction_verified
        assert trace.verdict == "post_check_failed"

    def test_bound_needs_the_certificate_even_where_the_rate_held(self):
        # three steps shrink at the rate 1e-3, so the tail bound falls below
        # zero level, but the map then jumps away: the last point is not fixed
        pts = [1.0, 0.5, 0.4995, 0.4995 - 4e-7, 0.0]
        images = dict(zip(pts, pts[1:] + [0.0]))

        class Jump:
            domain = SampleSet.from_points(pts, name="X")

            def apply(self, p):
                return P(images[p.coords[0]])

        trace = picard(GFunction("x1 - u1", 1), Jump(), P(1), 1e-3, TOL)
        assert trace.steps == 3 and trace.contraction_verified
        assert trace.certificate_residual > TOL.eps_zero
        assert trace.verdict == "post_check_failed"

    def test_alpha_must_be_in_unit_interval(self, halving):
        g, t = halving
        with pytest.raises(GSpaceError):
            picard(g, t, P(1), 1.0, TOL)


class TestPowerFixedPoint:
    def test_power_one_is_plain_iteration(self, halving):
        g, t = halving
        plain = picard(g, t, P(1), 0.25, TOL)
        powered = power_fixed_point(g, t, 1, P(1), 0.25, TOL)
        assert powered.points == plain.points
        assert powered.verdict == "converged"

    def test_sign_flipping_halving(self):
        # U(x) = -x/2 alternates, but U^2(x) = x/4 contracts
        g = GFunction("x1 - u1", 1)
        x = SampleSet.grid([(-1, 1)], 201, name="X")
        u = MapSpec(["-x1/2"], x, x, name="U")
        trace = power_fixed_point(g, u, 2, P(1), 0.25, TOL)
        assert trace.converged
        assert abs(trace.final.coords[0]) <= 1e-9
        assert trace.certificate_residual <= 10 * TOL.eps_zero

    def test_iterated_map_composes(self):
        x = SampleSet.grid([(-1, 1)], 5, name="X")
        u = MapSpec(["-x1/2"], x, x, name="U")
        assert IteratedMap(u, 2).apply(P(1)) == P(0.25)

    def test_understated_rate_fails_the_base_map_check(self):
        # claiming a far smaller rate stops the composed iteration long
        # before the fixed point, and the base-map certificate catches it
        g = GFunction("x1 - u1", 1)
        x = SampleSet.grid([(-1, 1)], 201, name="X")
        u = MapSpec(["-x1/2"], x, x, name="U")
        trace = power_fixed_point(g, u, 2, P(1), 1e-6, TOL)
        assert trace.verdict == "post_check_failed"
        assert trace.certificate_residual > 10 * TOL.eps_zero

    def test_eventually_constant_map(self):
        # on {0, 1, 2} the shift-down map is not constant but its square is;
        # exhaustive check, then the powered run finds the fixed point of U
        g = GFunction("x1 - u1", 1)
        pts = SampleSet.from_points([0.0, 1.0, 2.0], name="X")
        u = MapSpec(["max(x1 - 1, 0)"], pts, pts, name="U")
        images = {p.coords[0]: u.apply(p).coords[0] for p in pts}
        assert len(set(images.values())) > 1
        squared = {c: images[images[c]] for c in images}
        assert set(squared.values()) == {0.0}
        trace = power_fixed_point(g, u, 2, P(2), 0.5, TOL)
        assert trace.converged
        assert trace.final == P(0)
        assert trace.certificate_residual == 0.0


# The scalar iteration that picard and power_fixed_point ran before their
# steps were compiled: the reference they must match bit for bit.


def reference_picard(g, u, p0, alpha, tol, max_iter=DEFAULT_MAX_ITER):
    _check_alpha(alpha)
    if not u.domain.contains(p0, tol.eps_prox):
        raise DomainEscape(f"start point {p0} outside the sampled domain")
    points = [p0]
    step_res = []
    verdict = "max_iter"
    verified = True
    on_bound = False
    for k in range(max_iter):
        p = points[-1]
        q = u.apply(p)
        if not u.domain.contains(q, tol.eps_prox):
            raise DomainEscape(f"iterate {q} left the sampled domain at step {k + 1}")
        r = abs(eval_g(g, p, q))
        if step_res:
            verified = verified and r <= alpha * step_res[-1] + tol.eps_ineq
        points.append(q)
        step_res.append(r)
        if r < tol.eps_zero:
            verdict = "converged"
            break
        if alpha ** (k + 1) / (1.0 - alpha) * step_res[0] < tol.eps_zero:
            on_bound = True
            break
    r0 = step_res[0] if step_res else 0.0
    bounds = [alpha ** k / (1.0 - alpha) * r0 for k in range(len(points))]
    prox = step_res + [abs(eval_g(g, points[-1], u.apply(points[-1])))]
    if on_bound:
        backed = verified and prox[-1] <= tol.eps_zero
        verdict = "converged" if backed else "post_check_failed"
    return Trace(
        points=points, step_residuals=step_res, proximity_residuals=prox,
        apriori_bounds=bounds, verdict=verdict, final=points[-1], alpha=alpha,
        contraction_verified=verified, certificate_residual=prox[-1],
    )


def reference_power(g, u, n0, p0, alpha, tol, max_iter=DEFAULT_MAX_ITER):
    composed = IteratedMap(u, n0) if n0 > 1 else u
    trace = reference_picard(g, composed, p0, alpha, tol, max_iter)
    base_res = abs(eval_g(g, u.apply(trace.final), trace.final))
    trace.certificate_residual = base_res
    if trace.verdict == "converged" and base_res > 10.0 * tol.eps_zero:
        trace.verdict = "post_check_failed"
    return trace


def outcome(run):
    """Every field of the trace run() returns, each double as its hex
    string, or under "error" the type and message of the error it raises."""
    try:
        trace = run()
    except (GSpaceError, EvalError) as exc:
        return {"error": (type(exc), str(exc))}

    def bits(xs):
        return [x.hex() for x in xs]

    return {
        "points": [bits(p.coords) for p in trace.points],
        "step_residuals": bits(trace.step_residuals),
        "proximity_residuals": bits(trace.proximity_residuals),
        "apriori_bounds": bits(trace.apriori_bounds),
        "verdict": trace.verdict,
        "final": bits(trace.final.coords),
        "alpha": trace.alpha,
        "contraction_verified": trace.contraction_verified,
        "certificate_residual": trace.certificate_residual.hex(),
    }


def same_runs(g, u, n0, p0, alpha, max_iter, tol=TOL):
    """The outcome of power_fixed_point, and of picard where n0 is 1,
    checked against the reference; returns power's."""
    want = outcome(lambda: reference_power(g, u, n0, p0, alpha, tol, max_iter))
    assert outcome(lambda: power_fixed_point(g, u, n0, p0, alpha, tol, max_iter)) == want
    if n0 == 1:
        assert outcome(lambda: picard(g, u, p0, alpha, tol, max_iter)) == outcome(
            lambda: reference_picard(g, u, p0, alpha, tol, max_iter))
    return want


class Wrapped:
    """A map with only apply and domain, which the loop calls for its image."""

    def __init__(self, t):
        self.apply, self.domain = t.apply, t.domain


def _num(v):
    return f"({v!r})"


def random_case(rng):
    """A random affine map of R^d with min and max terms, d from 1 to 4,
    whose images of [-2, 2]^d stay inside it, a gauge over R^d, and a
    start point, rate and step cap."""
    d = rng.randint(1, 4)
    xs = [f"x{i}" for i in range(1, d + 1)]

    def affine(i):
        a, b = rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)
        j = rng.randrange(d)
        a *= 1 - abs(b) / 0.6  # abs(a) + abs(b) <= 0.6
        return f"{_num(a)}*{xs[i]} + {_num(b)}*{xs[j]} + {_num(rng.uniform(-0.5, 0.5))}"

    exprs = []
    for i in range(d):
        kind = rng.choice(["affine", "min", "max"])
        exprs.append(affine(i) if kind == "affine" else f"{kind}({affine(i)}, {affine(i)})")
    diffs = [f"(x{i}-u{i})" for i in range(1, d + 1)]
    g = rng.choice([
        " + ".join(f"abs{c}" for c in diffs),
        " + ".join(f"{c}^2" for c in diffs),
        "x1^2 - u1^2",
        f"x{d} - u{d}",
        "max(" * (d - 1) + "abs(x1-u1)" + "".join(f", abs{c})" for c in diffs[1:]),
    ])
    p0 = tuple(round(rng.uniform(-2, 2), 3) for _ in range(d))
    alpha = rng.choice([1e-3, 0.3, 0.6, 0.75, 0.9, 0.99, rng.uniform(0.01, 0.99)])
    return d, exprs, GFunction(g, d), p0, alpha, rng.choice([0, 1, 2, 7, 60])


class TestCompiledSteps:
    """picard and power_fixed_point against the scalar reference, field for
    field and bit for bit, and error for error where a step fails."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_maps_over_a_box(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            d, exprs, g, p0, alpha, max_iter = random_case(rng)
            x = SampleSet.grid([(-2, 2)] * d, 2, name="X")
            t = MapSpec(exprs, x, x, name="T")
            u = Wrapped(t) if rng.random() < 0.2 else t
            same_runs(g, u, rng.randint(1, 3), Point(p0), alpha, max_iter)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_maps_over_an_exact_set(self, seed):
        # the set lists the start point and its images, up to a cut that
        # an iterate may escape at
        rng = random.Random(1000 + seed)
        for _ in range(4):
            d, exprs, g, p0, alpha, max_iter = random_case(rng)
            n0 = rng.randint(1, 3)
            box = SampleSet.grid([(-2, 2)] * d, 2, name="X")
            orbit, p = [Point(p0)], Point(p0)
            for _ in range(n0 * (max_iter + 2)):
                p = MapSpec(exprs, box, box).apply(p)
                orbit.append(p)
            cut = len(orbit) if rng.random() < 0.7 else rng.randint(1, len(orbit))
            x = SampleSet.from_points(dict.fromkeys(orbit[:cut]), name="X")
            same_runs(g, MapSpec(exprs, x, x, name="T"), n0, Point(p0), alpha, max_iter)

    halving = SampleSet.grid([(0, 1)], 2, name="X")
    spike = "max(0, 1 - 1e20*abs(x1 - {c})) * 1e308 * 1e308"  # inf at x1 = c, else 0

    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_a_step_at_the_rate_with_no_slack_is_verified(self, n0):
        # halving under the gauge x1 - u1 meets alpha = 1/2 with equality
        t = MapSpec(["x1/2"], self.halving, self.halving, name="T")
        tol = ToleranceSet(eps_ineq=0.0)
        want = same_runs(GFunction("x1 - u1", 1), t, n0, P(1), 0.5 ** n0, 100, tol)
        assert want["contraction_verified"] and want["verdict"] == "converged"

    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_a_negative_zero_image_is_stored_as_zero(self, n0):
        x = SampleSet.grid([(-1, 1)], 2, name="X")
        t = MapSpec(["-max(x1 - 0.5, 0)"], x, x, name="T")  # -0.5, then -0.0
        want = same_runs(GFunction("x1 - u1", 1), t, n0, P(1), 0.5, 100)
        assert want["final"] == [(0.0).hex()]

    @pytest.mark.parametrize("map_", [
        "min(x1 + 0.25, 1.0000000005)", "min(x1 + 0.25, 1.0000000015)",
        "max(x1 - 0.25, -0.0000000005)", "max(x1 - 0.25, -0.0000000015)",
    ])
    def test_the_box_test_is_the_sets_own(self, map_):
        # under eps_prox 1e-9 an image 5e-10 past an end of the box is in
        # it, and one 1.5e-9 past escapes
        t = MapSpec([map_], self.halving, self.halving, name="T")
        for n0 in (1, 2):
            want = same_runs(GFunction("x1 - u1", 1), t, n0, P(0.5), 0.5, 100)
            assert ("error" in want) == map_.endswith("15)")

    # Each failure comes after the first step under every power n0: the
    # halving maps visit each 2^-j, the power's runs those j that n0 divides,
    # and 2^-6 is one of them.  In the last case U(1/4) is inf and U(inf) is
    # 0.45, so from 1/2 the second pass of U^2 or U^3 is not finite while
    # the last pass is.
    @pytest.mark.parametrize("n0", [1, 2, 3])
    @pytest.mark.parametrize("map_, gauge, p0, error", [
        ("2*x1", "x1 - u1", 0.1, DomainEscape),
        ("x1/2 + 0*(1/(x1 - 0.125))", "x1 - u1", 1.0, EvalError),
        ("x1/2 + 0*sqrt(x1 - 0.1)", "x1 - u1", 1.0, EvalError),
        ("x1/2", f"x1 - u1 + (x1 - u1) * ({spike.format(c=2 ** -6)})", 1.0, EvalError),
        ("x1/2", f"(x1 - u1) * 2^(max(0, 1 - 1e20*abs(x1 - {2 ** -6})) * 1e4)", 1.0, EvalError),
        (f"x1/2 + {spike.format(c=0.125)}", "x1 - u1", 1.0, GSpaceError),
        (f"min(x1, 0.9)/2 + {spike.format(c=0.25)}", "x1 - u1", 0.5, GSpaceError),
    ], ids=["escape", "division-by-zero", "sqrt-of-negative", "gauge-inf", "gauge-overflow",
            "image-inf", "image-inf-then-finite"])
    def test_a_planted_failure_raises_the_scalar_error(self, map_, gauge, p0, error, n0):
        # also as the second coordinate of a 2-D map, the first halving
        x2 = SampleSet.grid([(0, 1), (0, 1)], 2, name="X")
        for maps, g, start in (
            (MapSpec([map_], self.halving, self.halving, name="T"), GFunction(gauge, 1), P(p0)),
            (MapSpec(["x1/2", map_.replace("x1", "x2")], x2, x2, name="T"),
             GFunction(gauge.replace("x1", "x2").replace("u1", "u2"), 2), P(1, p0)),
        ):
            for u in (maps, Wrapped(maps)):
                kind, message = same_runs(g, u, n0, start, 0.5, 100)["error"]
                assert issubclass(kind, error), message

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_a_slow_contraction_runs_every_step(self, d):
        # the rate 63/64 takes about a thousand steps to zero level
        x = SampleSet.grid([(0, 2)] * d, 2, name="X")
        t = MapSpec([f"0.984375*x{i} + 0.00390625" for i in range(1, d + 1)], x, x, name="T")
        g = GFunction(" + ".join(f"abs(x{i}-u{i})" for i in range(1, d + 1)), d)
        for n0 in (1, 2):
            want = same_runs(g, t, n0, P(*[2.0] * d), 0.984375 ** n0, DEFAULT_MAX_ITER)
            assert want["verdict"] == "converged" and len(want["points"]) > 500 // n0

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_a_gauge_of_another_dimension_raises_at_the_first_step(self, max_iter):
        t = MapSpec(["x1/2"], self.halving, self.halving, name="T")
        g = GFunction("x1 - u1 + x2", 2)
        for n0 in (1, 2):
            kind, _ = same_runs(g, t, n0, P(1), 0.5, max_iter)["error"]
            assert kind is DimensionMismatch


@pytest.fixture
def touching_segments():
    g = GFunction("x2 - u2", 2)
    a = SampleSet.grid([(1, 1), (-1, 0)], [1, 41], name="A")
    b = SampleSet.grid([(1, 1), (0, 1)], [1, 41], name="B")
    f = MapSpec(["x1", "-x2/2"], a, b, name="f")
    tol = ToleranceSet(eps_prox=0.0125)
    return g, f, a, b, tol


@pytest.fixture
def dyadic_segments():
    pts_a = [(0.0, 2.0 ** -k) for k in range(26)] + [(0.0, 0.0)]
    pts_b = [(1.0, 2.0 ** -k) for k in range(26)] + [(1.0, 0.0)]
    g = GFunction("sqrt((x1 - u1)^2 + (x2 - u2)^2)", 2)
    a = SampleSet.from_points(pts_a, name="A")
    b = SampleSet.from_points(pts_b, name="B")
    f = MapSpec(["x1 + 1", "x2/2"], a, b, name="f")
    tol = ToleranceSet(eps_prox=1e-9, eps_zero=1e-6)
    return g, f, a, b, tol


class TestProximalIterate:
    def test_touching_segments_one_step(self, touching_segments):
        g, f, a, b, tol = touching_segments
        core = proximal_core(g, a, b, tol)
        trace = proximal_iterate(f, core, P(1, 0), tol)
        assert trace.converged and trace.steps == 1
        assert trace.final == P(1, 0)
        assert trace.certificate_residual == 0.0

    def test_parallel_segments_match_geometric_oracle(self, dyadic_segments):
        g, f, a, b, tol = dyadic_segments
        core = proximal_core(g, a, b, tol)
        trace = proximal_iterate(f, core, P(0, 1), tol)
        assert trace.converged and trace.steps <= 25
        for k, p in enumerate(trace.points):
            assert abs(p.coords[0] - 0.0) <= 1e-12
            assert abs(p.coords[1] - 2.0 ** -k) <= 1e-12
        assert trace.certificate_residual <= tol.eps_prox + tol.eps_zero

    def test_best_proximity_certificate(self, dyadic_segments):
        g, f, a, b, tol = dyadic_segments
        core = proximal_core(g, a, b, tol)
        trace = proximal_iterate(f, core, P(0, 1), tol)
        direct = abs(abs(eval_g(g, trace.final, f.apply(trace.final))) - core.d_g)
        assert trace.certificate_residual == direct

    def test_start_point_must_realise_the_level(self, dyadic_segments):
        g, f, a, b, tol = dyadic_segments
        bad = ToleranceSet(eps_prox=1e-15, eps_zero=1e-6)
        core = proximal_core(g, a, b, bad)
        with pytest.raises(GSpaceError):
            proximal_iterate(f, core, P(0.5, 0.5), bad)

    def test_image_escape_raises_before_stepping(self, dyadic_segments):
        g, _, a, b, tol = dyadic_segments
        shifted = MapSpec(["x1 + 1", "x2/2 + 0.3"], a, b, name="bad")
        core = proximal_core(g, a, b, tol)
        with pytest.raises(NoProximalMate):
            proximal_iterate(shifted, core, P(0, 1), tol)

    def test_mid_run_failure_yields_verdict(self, dyadic_segments):
        g, _, a, b, tol = dyadic_segments
        shifted = MapSpec(["x1 + 1", "x2/2 + 0.3"], a, b, name="bad")
        core = proximal_core(g, a, b, tol)
        trace = proximal_iterate(
            shifted, core, P(0, 1), tol, check_image=False
        )
        assert trace.verdict == "no_proximal_mate"
        assert trace.points == [P(0, 1)]

    def test_each_visited_point_is_mapped_once(self, dyadic_segments, monkeypatch):
        # a point's image gives its proximity residual, then the next selection
        g, f, a, b, tol = dyadic_segments
        core = proximal_core(g, a, b, tol)
        mapped, real = [], MapSpec.apply
        monkeypatch.setattr(MapSpec, "apply", lambda t, p: mapped.append(p) or real(t, p))
        trace = proximal_iterate(f, core, P(0, 1), tol, check_image=False)
        assert trace.converged and trace.steps == 20
        assert mapped == trace.points
        mapped.clear()
        trace = proximal_iterate(f, core, P(0, 1), tol)  # the image pre-pass first
        assert mapped == list(core.a_g.points) + trace.points

    def test_uniqueness_under_strict_coefficient_budget(self):
        # quarter map on a dyadic segment: the contraction check holds with
        # 1 - beta - N = 3/4 > 0, so distinct seeds end at gauge distance zero
        g = GFunction("x2^2 - u2^2", 2)
        pts_a = [(0.0, 2.0 ** -k) for k in range(14)] + [(0.0, 0.0)]
        pts_b = [(1.0, 2.0 ** -k) for k in range(14)] + [(1.0, 0.0)]
        a = SampleSet.from_points(pts_a, name="A")
        b = SampleSet.from_points(pts_b, name="B")
        f = MapSpec(["x1 + 1", "x2/4"], a, b, name="f")
        tol = ToleranceSet(eps_prox=5e-9)
        core = proximal_core(g, a, b, tol)
        rep = check_proximal_inequality(f, 0.25, 0.0, core, tol)
        assert rep.holds and not rep.vacuous
        assert 1.0 - 0.25 - 0.0 > 0.0
        finals = [
            proximal_iterate(f, core, P(0, seed), tol).final
            for seed in (1.0, 0.5)
        ]
        assert abs(eval_g(g, finals[0], finals[1])) <= 10 * tol.eps_zero


class TestSchedule:
    def test_harmonic(self):
        sched = Schedule.harmonic(3)
        assert sched.values == (0.5, 1 / 3, 0.25)

    def test_values_must_decrease_within_unit_interval(self):
        with pytest.raises(GSpaceError):
            Schedule((0.5, 0.7))
        with pytest.raises(GSpaceError):
            Schedule((1.0,))
        with pytest.raises(GSpaceError):
            Schedule(())


LINEAR_H = ConvexStructure(("l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"))


@pytest.fixture
def reflection():
    g = GFunction("x2 - u2", 2)
    a = SampleSet.grid([(0, 0), (-1, 0)], [1, 51], name="A")
    b = SampleSet.grid([(0, 0), (0, 1)], [1, 51], name="B")
    f = MapSpec(["x1", "-x2"], a, b, name="f")
    tol = ToleranceSet(eps_prox=0.01)
    return g, f, a, b, tol


class TestBerindeScheme:
    # The stages run here; the hypothesis battery is the command line's, so
    # its assertions run solve on the reflection fixture at resolution 11.

    def test_reflection_converges_to_origin(self, reflection, tmp_path):
        g, f, a, b, tol = reflection
        core = proximal_core(g, a, b, tol)
        res = berinde_scheme(
            f, core, LINEAR_H, P(0, 0), Schedule.harmonic(10), tol
        )
        assert res.final == P(0, 0)
        assert res.residual <= 1e-9
        assert res.verdict == "converged"
        assert res.battery == []  # the caller runs the hypotheses
        for st in res.stages:
            assert st.beta_n == 1.0 - st.a_n
            assert st.check.holds and not st.check.vacuous
        assert solve_berinde(write_config(tmp_path, reflection_doc())).hypotheses_ok

    def test_stage_map_composition(self, reflection):
        _, f, _, _, _ = reflection
        stage = StageMap(LINEAR_H, P(0, 0), f, 0.5)
        # x maps to the midpoint of the centre and the reflected image
        assert stage.apply(P(0, -0.8)) == P(0, 0.4)

    def test_weak_contraction_input_is_left_unmoved(self, touching_segments):
        # a map that already contracts: stage one returns the plain answer
        # and later stages do not move it
        g, f, a, b, tol = touching_segments
        core = proximal_core(g, a, b, tol)
        plain = proximal_iterate(f, core, core.a_g.points[0], tol)
        res = berinde_scheme(
            f, core, LINEAR_H, P(1, 0), Schedule.harmonic(4), tol
        )
        assert res.stages[0].output == plain.final
        assert all(st.output == plain.final for st in res.stages)
        assert res.final == plain.final

    def test_single_stage_constant_map(self, reflection):
        g, _, a, b, tol = reflection
        const = MapSpec(["0", "0"], a, b, name="const")
        core = proximal_core(g, a, b, tol)
        res = berinde_scheme(
            const, core, LINEAR_H, P(0, 0), Schedule((0.5,)), tol
        )
        assert len(res.stages) == 1
        assert res.final == P(0, 0)  # the unique partner of the centre

    def test_skip_side_condition_flag(self, tmp_path):
        config = write_config(tmp_path, reflection_doc())
        res = solve_berinde(config, "--stages", "2", "--skip-side-condition")
        side = [item for item in res.battery if item.name == "side-condition"]
        assert side[0].passed and side[0].note == "skipped on request"

    def test_failed_hypothesis_warns_but_runs(self, tmp_path):
        # an off-level centre breaks the battery yet the stages still run
        doc = reflection_doc()
        doc["convex"].update(r=[0, -1], s=[0, 1])
        res = solve_berinde(write_config(tmp_path, doc), "--stages", "2")
        assert not res.hypotheses_ok
        assert len(res.stages) == 2


class TestTraceCsv:
    def test_columns_and_values_roundtrip(self, halving, tmp_path):
        g, t = halving
        trace = picard(g, t, P(1), 0.25, TOL)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "step", "x1", "step_residual", "proximity_residual", "apriori_bound"
        ]
        assert len(rows) == len(trace.points) + 1
        assert float(rows[1][1]) == 1.0
        assert float(rows[1][2]) == trace.step_residuals[0]
        assert rows[-1][2] == ""  # no step residual at the final point
        assert float(rows[-1][4]) == trace.apriori_bounds[-1]
