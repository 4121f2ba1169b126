import math

import pytest

from gproxim.gspace import (
    GFunction,
    GSpaceError,
    Point,
    SampleSet,
    ToleranceSet,
    eval_g,
    proximal_core,
)
from gproxim.properties import (
    MapSpec,
    check_banach_contraction,
    check_proximal_inequality,
    estimate_coefficient,
    estimate_proximal_coefficient,
    proximal_sides,
    qualifying_pairs,
)

TOL = ToleranceSet()


def P(*coords):
    return Point(tuple(float(c) for c in coords))


@pytest.fixture
def min_gauge_instance():
    g = GFunction("min(x2,u2)", 2)
    h = GFunction("x1*u1", 2)
    a = SampleSet.grid([(0.5, 1), (0, 1)], [11, 11], name="A")
    b = SampleSet.grid([(1, 2), (0, 1)], [11, 11], name="B")
    t = MapSpec(["2*x1", "x2/2"], a, b, name="T")
    return g, h, t


class TestMapSpec:
    def test_apply(self, min_gauge_instance):
        _, _, t = min_gauge_instance
        assert t.apply(P(0.5, 1.0)) == P(1.0, 0.5)

    def test_wrong_arity_rejected(self):
        a = SampleSet.grid([(0, 1), (0, 1)], [3, 3])
        with pytest.raises(GSpaceError):
            MapSpec(["x1"], a, a)

    def test_second_point_variables_rejected(self):
        a = SampleSet.grid([(0, 1)], 3)
        with pytest.raises(GSpaceError):
            MapSpec(["u1"], a, a)

    def test_an_image_at_minus_zero_is_a_positive_zero(self):
        a = SampleSet.grid([(0, 1)], 3)
        (c,) = MapSpec(["-x1"], a, a).apply(P(0)).coords
        assert repr(c) == "0.0" and math.copysign(1.0, c) == 1.0

    def test_a_finite_image_whose_coordinate_sum_overflows_is_accepted(self):
        a = SampleSet.from_points([(1e308, 1e308)])
        assert MapSpec(["x1", "x2"], a, a).apply(P(1e308, 1e308)).coords == (1e308, 1e308)

    @pytest.mark.parametrize("exprs, at", [
        (["x1*1e308*10"], (1,)),
        (["x1*1e308*10 - x1*1e308*10"], (1,)),
        (["x1", "x2*1e308*10"], (1, 1)),
        (["(x2*1e308*10) - (x2*1e308*10)", "x2"], (1, 1)),
    ], ids=["inf", "nan", "inf-second", "nan-first"])
    def test_a_non_finite_image_keeps_its_message(self, exprs, at):
        a = SampleSet.from_points([at])
        point = ", ".join(repr(float(c)) for c in at)
        with pytest.raises(GSpaceError) as err:
            MapSpec(exprs, a, a).apply(P(*at))
        assert str(err.value) == f"map 'T' produced non-finite image at ({point})"


class TestBanach:
    def test_min_gauge_holds_at_half(self, min_gauge_instance):
        g, _, t = min_gauge_instance
        assert check_banach_contraction(g, t, 0.5, TOL).holds

    def test_product_gauge_falsified(self, min_gauge_instance):
        _, h, t = min_gauge_instance
        rep = check_banach_contraction(h, t, 0.9, TOL)
        assert rep.falsified
        assert rep.lhs > rep.rhs + TOL.eps_ineq

    def test_named_pair_violates_product_gauge(self, min_gauge_instance):
        _, h, t = min_gauge_instance
        x, y = P(0.5, 0), P(1, 0)
        assert abs(eval_g(h, t.apply(x), t.apply(y))) == 2.0
        assert 0.9 * abs(eval_g(h, x, y)) == 0.45

    def test_constant_map_holds_for_any_alpha(self):
        g = GFunction("x1 - u1", 1)
        a = SampleSet.grid([(0, 1)], 11, name="A")
        t = MapSpec(["0.5"], a, a, name="C")
        for alpha in (0.1, 0.5, 0.9):
            assert check_banach_contraction(g, t, alpha, TOL).holds

    def test_alpha_range_enforced(self, min_gauge_instance):
        g, _, t = min_gauge_instance
        with pytest.raises(GSpaceError):
            check_banach_contraction(g, t, 1.0, TOL)

    def test_monotone_in_alpha(self, min_gauge_instance):
        g, _, t = min_gauge_instance
        assert check_banach_contraction(g, t, 0.5, TOL).holds
        for alpha in (0.6, 0.75, 0.99):
            assert check_banach_contraction(g, t, alpha, TOL).holds


class TestEstimate:
    def test_halving_map_on_square_difference(self):
        g = GFunction("x1^2 - u1^2", 1)
        x = SampleSet.grid([(0, 1)], 201, name="X")
        t = MapSpec(["x1/2"], x, x, name="T")
        assert estimate_coefficient(g, t, TOL) == 0.25

    def test_identity_map_gives_one(self):
        g = GFunction("x1 - u1", 1)
        x = SampleSet.grid([(0, 1)], 11, name="X")
        t = MapSpec(["x1"], x, x, name="I")
        assert estimate_coefficient(g, t, TOL) == 1.0

    def test_zero_collapsing_gauge_forces_infinity(self):
        # distinct points at zero gauge level whose images separate
        g = GFunction("x1*u1", 1)
        x = SampleSet.from_points([0.0, 1.0], name="X")
        t = MapSpec(["x1 + 1"], x, x, name="T")
        # g(0, 1) = 0 but g(T0, T1) = 2
        assert estimate_coefficient(g, t, TOL) == math.inf

    def test_estimate_consistent_with_check(self):
        g = GFunction("x1^2 - u1^2", 1)
        x = SampleSet.grid([(0, 1)], 51, name="X")
        t = MapSpec(["x1/2"], x, x, name="T")
        est = estimate_coefficient(g, t, TOL)
        assert est < 1.0
        assert check_banach_contraction(g, t, est + 1e-9, TOL).holds

    def test_expanding_map_estimate_above_one_and_check_falsified(self):
        g = GFunction("x1 - u1", 1)
        x = SampleSet.grid([(0, 1)], 11, name="X")
        t = MapSpec(["2*x1"], x, SampleSet.grid([(0, 2)], 11), name="T")
        assert estimate_coefficient(g, t, TOL) >= 1.0
        assert check_banach_contraction(g, t, 0.9, TOL).falsified


@pytest.fixture
def quarter_instance():
    g = GFunction("x2^2 - u2^2", 2)
    h = GFunction("min(x2,u2)", 2)
    a = SampleSet.grid([(0, 0), (-1, 1)], [1, 201], name="A")
    b = SampleSet.grid([(1, 1), (-1, 1)], [1, 201], name="B")
    t = MapSpec(["1", "x2/4"], a, b, name="T")
    return g, h, a, b, t


@pytest.fixture
def finite_instance():
    g = GFunction("x1^2 - u1^2", 1)
    d = GFunction("abs(x1 - u1)", 1)
    a = SampleSet.from_points([0, 1, 2, 3, 5], name="A")
    b = SampleSet.from_points([-1, -2, -3, 4], name="B")
    f = MapSpec(
        ["4 - 15/4*x1 - 29/8*x1^2 + 11/4*x1^3 - 3/8*x1^4"], a, b, name="f"
    )
    return g, d, a, b, f


class TestProximalInequality:
    def test_quarter_gauge_holds(self, quarter_instance):
        g, _, a, b, t = quarter_instance
        core = proximal_core(g, a, b, TOL)
        rep = check_proximal_inequality(t, 0.0625, 0.0, core, TOL)
        assert rep.holds and not rep.vacuous

    def test_quarter_min_gauge_falsified(self, quarter_instance):
        _, h, a, b, t = quarter_instance
        core = proximal_core(h, a, b, TOL)
        rep = check_proximal_inequality(t, 0.9, 1.0, core, TOL)
        assert rep.falsified
        lhs, rhs = proximal_sides(h, rep.witness, 0.9, 1.0)
        assert (lhs, rhs) == (rep.lhs, rep.rhs)

    def test_quarter_named_quadruple(self, quarter_instance):
        _, h, _, _, _ = quarter_instance
        wit = {"x1": P(0, 0), "x2": P(0, 0), "u1": P(0, 0.5), "u2": P(0, 0.25)}
        assert proximal_sides(h, wit, 0.9, 1.0) == (0.25, 0.0)

    def test_finite_sets_hold_under_square_gauge(self, finite_instance):
        g, _, a, b, f = finite_instance
        core = proximal_core(g, a, b, TOL)
        rep = check_proximal_inequality(f, 0.5, 1.0, core, TOL)
        assert rep.holds and not rep.vacuous

    def test_finite_sets_falsified_under_metric_with_margin_half(
        self, finite_instance
    ):
        _, d, a, b, f = finite_instance
        core = proximal_core(d, a, b, TOL)
        assert core.d_g == 1.0
        rep = check_proximal_inequality(f, 0.5, 1.0, core, TOL)
        assert rep.falsified
        assert rep.margin == 0.5
        named = {"u1": P(5), "x1": P(0), "u2": P(0), "x2": P(1)}
        assert proximal_sides(d, named, 0.5, 1.0) == (5.0, 4.5)

    def test_exhaustive_enumeration_matches_brute_force(self, finite_instance):
        g, _, a, b, f = finite_instance
        core = proximal_core(g, a, b, TOL)
        rep = check_proximal_inequality(f, 0.5, 1.0, core, TOL)

        def qualifies(u, x):
            return abs(abs(eval_g(g, u, f.apply(x))) - core.d_g) <= TOL.eps_prox

        brute_falsified = any(
            abs(eval_g(g, u1, u2))
            > 0.5 * abs(eval_g(g, x1, x2)) + abs(eval_g(g, x2, u1)) + TOL.eps_ineq
            for x1 in a for x2 in a for u1 in a for u2 in a
            if qualifies(u1, x1) and qualifies(u2, x2)
        )
        assert rep.falsified == brute_falsified == False  # noqa: E712

    def test_monotone_in_beta_and_n(self, finite_instance):
        g, _, a, b, f = finite_instance
        core = proximal_core(g, a, b, TOL)
        assert check_proximal_inequality(f, 0.5, 1.0, core, TOL).holds
        for beta, n_cap in [(0.6, 1.0), (0.5, 2.0), (1.0, 3.0)]:
            assert check_proximal_inequality(
                f, beta, n_cap, core, TOL
            ).holds

    def test_vacuous_outcome_is_flagged(self):
        g = GFunction("x1 - u1", 1)
        a = SampleSet.from_points([0.0, 1.0], name="A")
        b = SampleSet.from_points([5.0, 6.0], name="B")
        f = MapSpec(["x1 + 5.5"], a, b, name="f")
        core = proximal_core(g, a, b, TOL)
        rep = check_proximal_inequality(f, 0.5, 0.0, core, TOL)
        assert rep.holds and rep.vacuous

    def test_beta_range_enforced(self, finite_instance):
        g, _, a, b, f = finite_instance
        core = proximal_core(g, a, b, TOL)
        with pytest.raises(GSpaceError):
            check_proximal_inequality(f, 1.5, 0.0, core, TOL)
        with pytest.raises(GSpaceError):
            check_proximal_inequality(f, 0.5, -1.0, core, TOL)

    def test_berinde_mode_is_beta_one(self, finite_instance):
        g, _, a, b, f = finite_instance
        core = proximal_core(g, a, b, TOL)
        rep = check_proximal_inequality(f, 1.0, 1.0, core, TOL)
        assert rep.check == "proximal-berinde" and rep.holds


class TestProximalEstimate:
    def test_quarter_coefficient(self, quarter_instance):
        g, _, a, b, t = quarter_instance
        core = proximal_core(g, a, b, TOL)
        est = estimate_proximal_coefficient(t, 0.0, core, TOL)
        assert abs(est - 0.0625) <= 1e-9

    def test_qualifying_pairs_structure(self, finite_instance):
        g, _, a, b, f = finite_instance
        core = proximal_core(g, a, b, TOL)
        pairs = qualifying_pairs(f, core)
        # images of 1 and 2 keep their square: their mates are themselves
        assert (P(1), P(1)) in pairs and (P(2), P(2)) in pairs
        assert all(
            abs(abs(eval_g(g, u, f.apply(x))) - core.d_g) <= TOL.eps_prox
            for x, u in pairs
        )
