import csv

import pytest

from conftest import reflection_doc, solve_berinde, write_config
from gproxim.gspace import (
    ConvexStructure,
    GFunction,
    GSpaceError,
    NoProximalMate,
    Point,
    SampleSet,
    ToleranceSet,
    eval_g,
    proximal_core,
)
from gproxim.properties import MapSpec, check_proximal_inequality
from gproxim.solvers import (
    DomainEscape,
    IteratedMap,
    Schedule,
    StageMap,
    berinde_scheme,
    picard,
    power_fixed_point,
    proximal_iterate,
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
