import itertools
import math
import random

import pytest

from gproxim.expr import EvalError
from gproxim.gspace import (
    ConvexStructure,
    DimensionMismatch,
    GFunction,
    GSpaceError,
    NoProximalMate,
    Point,
    SampleSet,
    SequencePrefix,
    ToleranceSet,
    check_convex_structure,
    check_semi_sharp,
    check_starshaped,
    check_side_condition,
    classify_sequence,
    enumerate_g_limits,
    eval_g,
    falsify_axiom,
    proximal_core,
    proximal_select,
)

TOL = ToleranceSet()


def P(*coords):
    return Point(tuple(float(c) for c in coords))


class TestPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(GSpaceError):
            Point((math.inf,))

    def test_normalises_negative_zero(self):
        assert Point((-0.0,)).coords == (0.0,)

    def test_label_does_not_affect_equality(self):
        assert Point((1.0,), label="east") == Point((1.0,))


class TestEvalG:
    def test_square_difference(self):
        g = GFunction("x1^2 - u1^2", 1)
        assert eval_g(g, P(1), P(2)) == -3.0

    def test_diagonal_of_antisymmetric_form(self):
        g = GFunction("x1 - u1", 1)
        assert eval_g(g, P(0.7), P(0.7)) == 0.0

    def test_zero_gauge_between_distinct_points(self):
        g = GFunction("x1*u1", 2)
        assert eval_g(g, P(1, 0), P(0, 1)) == 0.0

    def test_dimension_mismatch(self):
        g = GFunction("x1 - u1", 1)
        with pytest.raises(DimensionMismatch):
            eval_g(g, P(1, 2), P(0, 0))

    def test_non_finite_result(self):
        g = GFunction("x1 / u1", 1)
        with pytest.raises(EvalError):
            eval_g(g, P(1), P(0))

    def test_undeclared_variable_rejected_at_construction(self):
        with pytest.raises(GSpaceError):
            GFunction("x1 - u2", 1)

    def test_symmetric_is_derived_from_the_expression_and_never_set(self):
        assert GFunction("x2 - u2", 2).symmetric
        assert not GFunction("min(x2,u2)", 2).symmetric
        g = GFunction("x1*u1", 1)
        with pytest.raises(AttributeError):
            g.symmetric = False
        assert g.symmetric


class TestSampleSet:
    def test_duplicate_points_rejected(self):
        with pytest.raises(GSpaceError):
            SampleSet.from_points([1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(GSpaceError):
            SampleSet(points=())

    def test_grid_contains_endpoints_and_counts(self):
        s = SampleSet.grid([(0, 1)], 11)
        assert len(s) == 11
        assert s.points[0] == P(0) and s.points[-1] == P(1)
        assert s.grid_step() == pytest.approx(0.1)

    def test_degenerate_axis(self):
        s = SampleSet.grid([(1, 1), (-1, 0)], [1, 5])
        assert len(s) == 5
        assert all(p.coords[0] == 1.0 for p in s)

    def test_box_membership_with_tolerance(self):
        s = SampleSet.grid([(0, 1)], 5)
        assert s.contains(P(0.37))
        assert s.contains(P(1.0 + 1e-12))
        assert not s.contains(P(1.1))

    def test_exact_membership(self):
        s = SampleSet.from_points([0.0, 0.5])
        assert s.contains(P(0.5))
        assert not s.contains(P(0.25))

    def test_union_deduplicates(self):
        a = SampleSet.from_points([0.0, 1.0])
        b = SampleSet.from_points([1.0, 2.0])
        assert [p.coords[0] for p in a.union(b)] == [0.0, 1.0, 2.0]


def reference_grid(box, resolution, name=""):
    """SampleSet.grid written out apart from gspace's per-axis checks: the
    same evenly spaced axes, every point built through Point(...) and the
    set through the constructor, whose checks run point by point."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if isinstance(resolution, int):
        resolution = [resolution if lo != hi else 1 for lo, hi in box]
    axes = []
    for (lo, hi), n in zip(box, resolution):
        if n < 1 or (n == 1 and lo != hi):
            raise GSpaceError(f"bad resolution {n} for axis [{lo}, {hi}]")
        step = (hi - lo) / max(n - 1, 1)
        axes.append([lo + i * step for i in range(n - 1)] + [hi] if n > 1 else [lo])
    points = tuple(Point(c) for c in itertools.product(*axes))
    return SampleSet(points=points, box=box, resolution=tuple(resolution), name=name)


# bounds for the grid cases: signed zeros, subnormals, a step that underflows
# between neighbours, spans beyond the largest double, doubles one ulp apart
GRID_BOUNDS = (
    0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 3.0, 5e-324, -5e-324, 1e-323, 1e-320,
    2.2250738585072014e-308, 1e-300, 1e300, 1e307, -1e307, 1e308, -1e308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0 + 2.0 ** -52, 1e16, 1e16 + 2,
)

GRID_CASES = [
    ([(0, 1)], 11),
    ([(1, 1), (-1, 0)], [1, 5]),
    ([(-0.0, 1.0)], 3),
    ([(-1.0, -0.0)], 3),
    ([(-0.0, -0.0)], 4),
    ([(-0.0, -0.0), (0, 1)], [3, 2]),
    ([(0, 1e-320)], 5),
    ([(5e-324, 2e-323)], 4),
    ([(0, 5e-324)], 3),
    ([(0, 1e-323)], 5),
    ([(-1e308, 1e308)], 3),
    ([(0, 1), (-1e308, 1e308)], [2, 3]),
    ([(-1.7976931348623157e308, 1.7976931348623157e308)], 2),
    ([(-1e307, 1e307)], 3),
    ([(0, 1), (-0.0, 0.0), (-1, 1), (2, 3)], [2, 1, 3, 2]),
    ([(1, 0)], 3),
    ([(0, 1)], [1]),
    ([(math.nan, 1.0)], 3),
    ([(math.inf, math.inf)], 3),
]


def _random_grid_case(rng: random.Random):
    """A box of 1 to 4 axes and a resolution of at most 4 per axis, an int
    or a list; some axes degenerate, a few reversed."""
    box, res = [], []
    for _ in range(rng.randint(1, 4)):
        lo, hi = sorted(rng.sample(GRID_BOUNDS, 2))
        if rng.random() < 0.2:
            hi = rng.choice([lo, -lo])
        elif rng.random() < 0.1:
            lo, hi = hi, lo
        box.append((lo, hi))
        res.append(1 if lo == hi and rng.random() < 0.5 else rng.randint(2, 4))
    return box, rng.randint(1, 4) if rng.random() < 0.3 else res


def _grid_outcome(build, box, resolution):
    """Every coordinate's repr (which tells -0.0 from 0.0), coords, blocks,
    grid_step and the set's other fields, or the error's text."""
    try:
        s = build(box, resolution, name="A")
    except GSpaceError as exc:
        return "error", type(exc).__name__, str(exc)
    return ([[repr(c) for c in p.coords] for p in s.points], s.coords, s.blocks,
            repr(s.grid_step()), s.box, s.resolution, s.name, s.mode)


def test_a_grid_checked_per_axis_is_the_grid_checked_per_point():
    rng = random.Random(7)
    cases = GRID_CASES + [_random_grid_case(rng) for _ in range(400)]
    kinds = set()
    for box, resolution in cases:
        got = _grid_outcome(SampleSet.grid, box, resolution)
        assert got == _grid_outcome(reference_grid, box, resolution), (box, resolution)
        kinds.add(got[2].split(" ")[0] if got[0] == "error" else "ok")
    # the cases draw grids and every error of a grid: "grid point ... outside
    # box", "duplicate point", "non-finite coordinates", "bad resolution"
    assert kinds == {"ok", "grid", "duplicate", "non-finite", "bad"}


class TestFalsifyAxiom:
    def test_identity_falsified_on_projection_gauge(self):
        g = GFunction("x2 - u2", 2)
        s = SampleSet.from_points([(1, 2), (4, 2)])
        rep = falsify_axiom("identity", g, s, TOL)
        assert rep.falsified
        assert rep.witness["x"] == P(1, 2) and rep.witness["y"] == P(4, 2)
        assert rep.lhs == 0.0

    def test_triangle_falsified_on_product_gauge(self):
        g = GFunction("x1*u1", 2)
        s = SampleSet.from_points([(1, 0), (0, 0), (4, 0)])
        rep = falsify_axiom("triangle", g, s, TOL)
        assert rep.falsified
        assert rep.witness["x"] == P(1, 0)
        assert rep.witness["y"] == P(0, 0)
        assert rep.witness["z"] == P(4, 0)
        assert rep.lhs == 4.0 and rep.rhs == 0.0

    def test_symmetry_holds_for_square_difference(self):
        g = GFunction("x1^2 - u1^2", 1)
        s = SampleSet.from_points([0.0, 0.5, 1.0, 2.0])
        assert falsify_axiom("symmetry", g, s, TOL).holds

    def test_symmetry_falsified_for_shifted_gauge(self):
        g = GFunction("x1 - u1 + 0.5", 1)
        s = SampleSet.from_points([0.0, 2.0])
        rep = falsify_axiom("symmetry", g, s, TOL)
        assert rep.falsified  # |g(0,2)| = 1.5 vs |g(2,0)| = 2.5

    def test_witness_replays(self):
        g = GFunction("x1*u1", 2)
        s = SampleSet.from_points([(1, 0), (0, 0), (4, 0)])
        rep = falsify_axiom("triangle", g, s, TOL)
        w = rep.witness
        lhs = abs(eval_g(g, w["x"], w["z"]))
        rhs = abs(eval_g(g, w["x"], w["y"])) + abs(eval_g(g, w["y"], w["z"]))
        assert lhs == rep.lhs and rhs == rep.rhs

    def test_unknown_kind(self):
        g = GFunction("x1 - u1", 1)
        with pytest.raises(GSpaceError):
            falsify_axiom("positivity", g, SampleSet.from_points([0.0]), TOL)


class TestClassifySequence:
    def test_product_gauge_sequence_converges_to_named_targets(self):
        g = GFunction("x1*u1", 2)
        seq = SequencePrefix.from_function(lambda n: (1.0 / n, 1.0), 1000)
        tol = ToleranceSet(eps_zero=0.002)
        assert classify_sequence(g, seq, P(0, 1), tol).convergent
        assert classify_sequence(g, seq, P(0.5, 1), tol).convergent

    def test_constant_sequence_is_cauchy_and_convergent(self):
        g = GFunction("x1 - u1", 1)
        seq = SequencePrefix.from_function(lambda n: 0.7, 20)
        rep = classify_sequence(g, seq, P(0.7), TOL)
        assert rep.convergent and rep.cauchy
        assert rep.verdict == "g-convergent-to-target"
        assert rep.max_convergence_residual == 0.0

    def test_without_target_only_cauchy_is_assessed(self):
        g = GFunction("x1 - u1", 1)
        seq = SequencePrefix.from_function(lambda n: 1.0 / n, 1000)
        rep = classify_sequence(g, seq, None, ToleranceSet(eps_zero=0.002))
        assert rep.convergent is None
        assert rep.cauchy and rep.verdict == "g-cauchy"

    def test_neither(self):
        g = GFunction("x1 - u1", 1)
        seq = SequencePrefix.from_function(lambda n: float(n % 2), 50)
        rep = classify_sequence(g, seq, P(0), TOL)
        assert rep.verdict == "neither"

    def test_prefix_too_short(self):
        g = GFunction("x1 - u1", 1)
        seq = SequencePrefix.from_function(lambda n: 0.0, 5)
        with pytest.raises(GSpaceError):
            classify_sequence(g, seq, P(0), ToleranceSet(tail_len=10))

    def test_declared_convergent_implies_tail_below_level(self):
        g = GFunction("x1*u1", 2)
        seq = SequencePrefix.from_function(lambda n: (1.0 / n, 1.0), 1000)
        tol = ToleranceSet(eps_zero=0.002)
        rep = classify_sequence(g, seq, P(0.5, 1), tol)
        assert rep.convergent
        assert rep.max_convergence_residual <= tol.eps_zero


class TestEnumerateLimits:
    def test_every_grid_candidate_is_a_limit(self):
        g = GFunction("x1*u1", 2)
        seq = SequencePrefix.from_function(lambda n: (1.0 / n, 1.0), 1000)
        grid = SampleSet.grid([(-1, 1), (-1, 1)], 21)
        tol = ToleranceSet(eps_zero=0.002)
        limits = enumerate_g_limits(g, seq, grid, tol)
        assert len(limits) == 441
        got = {p.coords for p in limits}
        assert (0.0, 1.0) in got and (0.5, 1.0) in got

    def test_ordinary_limit_is_unique(self):
        g = GFunction("x1 - u1", 1)
        seq = SequencePrefix.from_function(lambda n: 1.0 / n, 1000)
        cands = SampleSet.from_points([0.0, 0.5, 1.0])
        tol = ToleranceSet(eps_zero=0.002)
        assert enumerate_g_limits(g, seq, cands, tol) == [P(0)]

    @pytest.mark.parametrize("gauge, terms, tail_len", [
        ("x1 - u1", 1000, 50),
        ("1/(x1 - u1)", 1000, 50),  # raises in the tail
        ("1/(u1 - 5) + x1 - u1", 1000, 50),  # raises at the candidate 5
        ("x1 - u1", 5, 10),  # prefix too short
    ])
    def test_limits_and_errors_are_classify_sequences(self, gauge, terms, tail_len):
        g = GFunction(gauge, 1)
        seq = SequencePrefix.from_function(lambda n: 1.0 / n, terms)
        cands = SampleSet.from_points([0.0, 0.001, 5.0, 0.5])
        tol = ToleranceSet(eps_zero=0.002, tail_len=tail_len)

        def outcome(limits):
            try:
                return limits()
            except (EvalError, GSpaceError) as exc:
                return type(exc), str(exc)

        assert outcome(lambda: enumerate_g_limits(g, seq, cands, tol)) == outcome(
            lambda: [c for c in cands.points
                     if classify_sequence(g, seq, c, tol).convergent])


class TestProximalCore:
    def test_finite_sets(self):
        g = GFunction("x1^2 - u1^2", 1)
        a = SampleSet.from_points([0, 1, 2, 3, 5])
        b = SampleSet.from_points([-1, -2, -3, 4])
        core = proximal_core(g, a, b, TOL)
        assert core.d_g == 0.0
        assert [p.coords[0] for p in core.a_g] == [1.0, 2.0, 3.0]
        assert [p.coords[0] for p in core.b_g] == [-1.0, -2.0, -3.0]
        for x, y in core.witnesses:
            assert abs(abs(eval_g(g, x, y)) - core.d_g) <= core.eps

    def test_touching_segments(self):
        g = GFunction("x2 - u2", 2)
        a = SampleSet.grid([(1, 1), (-1, 0)], [1, 201])
        b = SampleSet.grid([(1, 1), (0, 1)], [1, 201])
        core = proximal_core(g, a, b, ToleranceSet(eps_prox=0.0025))
        assert core.d_g == 0.0
        assert list(core.a_g.points) == [P(1, 0)]
        assert list(core.b_g.points) == [P(1, 0)]

    def test_singleton_diagonal(self):
        g = GFunction("x1 - u1", 1)
        a = SampleSet.from_points([0.25])
        core = proximal_core(g, a, a, TOL)
        assert core.d_g == 0.0
        assert list(core.a_g.points) == list(core.b_g.points) == [P(0.25)]

    def test_minimality_on_sample(self):
        g = GFunction("x1^2 - u1^2", 1)
        a = SampleSet.from_points([0, 1, 2, 3, 5])
        b = SampleSet.from_points([-1, -2, -3, 4])
        core = proximal_core(g, a, b, TOL)
        assert all(
            abs(eval_g(g, x, y)) >= core.d_g for x in a for y in b
        )


class TestProximalSelect:
    def test_touching_segments_fixed_point(self):
        g = GFunction("x2 - u2", 2)
        a = SampleSet.grid([(1, 1), (-1, 0)], [1, 201])
        b = SampleSet.grid([(1, 1), (0, 1)], [1, 201])
        tol = ToleranceSet(eps_prox=0.0025)
        core = proximal_core(g, a, b, tol)
        assert proximal_select(core, P(1, 0)) == P(1, 0)

    def test_nearest_point_on_parallel_segment(self):
        g = GFunction("sqrt((x1 - u1)^2 + (x2 - u2)^2)", 2)
        a = SampleSet.grid([(0, 0), (0, 1)], [1, 201])
        b = SampleSet.grid([(1, 1), (0, 1)], [1, 201])
        tol = ToleranceSet(eps_prox=0.0025)
        core = proximal_core(g, a, b, tol)
        assert core.d_g == 1.0
        assert proximal_select(core, P(1, 0.25)) == P(0, 0.25)

    def test_no_mate(self):
        g = GFunction("x1 - u1", 1)
        a = SampleSet.from_points([0.0, 1.0])
        core = proximal_core(g, a, SampleSet.from_points([0.5]), TOL)
        with pytest.raises(NoProximalMate):
            proximal_select(core, P(100.0))


class TestSemiSharp:
    def test_touching_segments_hold(self):
        g = GFunction("x2 - u2", 2)
        a = SampleSet.grid([(0, 0), (-1, 0)], [1, 201])
        b = SampleSet.grid([(0, 0), (0, 1)], [1, 201])
        tol = ToleranceSet(eps_prox=0.0025)
        core = proximal_core(g, a, b, tol)
        assert check_semi_sharp(core).holds

    def test_two_partners_falsify(self):
        g = GFunction("x1^2 - u1^2", 1)
        a = SampleSet.from_points([1.0])
        b = SampleSet.from_points([-1.0, 1.0])
        core = proximal_core(g, a, b, TOL)
        rep = check_semi_sharp(core)
        assert rep.falsified
        assert rep.witness["a"] == P(1)
        assert rep.witness["b1"] == P(-1) and rep.witness["b2"] == P(1)

    def test_witness_is_the_first_two_partners_in_list_order(self):
        g = GFunction("x2 - u2", 2)
        a = SampleSet.from_points([(0, 0), (0, 1)])
        b = SampleSet.from_points([(1, 0), (2, 0), (3, 0)])
        rep = check_semi_sharp(proximal_core(g, a, b, TOL))
        assert rep.falsified and rep.witness["a"] == P(0, 0)
        assert rep.witness["b1"] == P(1, 0) and rep.witness["b2"] == P(2, 0)
        assert (rep.lhs, rep.rhs) == (0.0, 0.0)

    def test_singleton_partner_set_holds(self):
        g = GFunction("x1 - u1", 1)
        a = SampleSet.from_points([0.0, 1.0])
        b = SampleSet.from_points([0.5])
        core = proximal_core(g, a, b, TOL)
        assert check_semi_sharp(core).holds


LINEAR_H = ConvexStructure(("l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"))
LAMBDAS = tuple(i / 10 for i in range(11))


class TestConvexStructure:
    def test_linear_interpolation_holds(self):
        g = GFunction("x2 - u2", 2)
        s = SampleSet.grid([(0, 0), (-1, 1)], [1, 41])
        assert check_convex_structure(LINEAR_H, g, s, LAMBDAS, TOL).holds

    def test_condition_two_at_lambda_one_degenerates_to_first_arguments(self):
        g = GFunction("x2 - u2", 2)
        x, y, x0, y0 = P(0, -0.3), P(0, 0.8), P(0, 0.1), P(0, -0.9)
        lhs = abs(eval_g(g, LINEAR_H.apply(x, y, 1.0), LINEAR_H.apply(x0, y0, 1.0)))
        assert lhs == abs(eval_g(g, x, x0))

    def test_sum_map_falsified(self):
        h = ConvexStructure(("x1 + u1",))
        g = GFunction("x1 - u1", 1)
        s = SampleSet.grid([(0, 1)], 5)
        rep = check_convex_structure(h, g, s, LAMBDAS, TOL)
        assert rep.falsified
        assert rep.lhs > rep.rhs + TOL.eps_ineq

    def test_lambda_grid_must_cover_endpoints(self):
        g = GFunction("x1 - u1", 1)
        s = SampleSet.grid([(0, 1)], 5)
        h = ConvexStructure(("l*x1 + (1-l)*u1",))
        with pytest.raises(GSpaceError):
            check_convex_structure(h, g, s, (0.0, 0.5), TOL)


class TestStarshaped:
    def test_segment_is_starshaped_about_origin(self):
        a = SampleSet.grid([(0, 0), (-1, 0)], [1, 201])
        rep = check_starshaped(LINEAR_H, a, P(0, 0), LAMBDAS, TOL)
        assert rep.holds

    def test_lambda_one_returns_the_centre(self):
        assert LINEAR_H.apply(P(0, 0), P(0, -0.7), 1.0) == P(0, 0)

    def test_disjoint_intervals_falsified(self):
        # two intervals sampled at spacing 0.1; a proximity band of half
        # the spacing makes the sample behave like the union of intervals
        h = ConvexStructure(("l*x1 + (1-l)*u1",))
        pts = [i / 10 for i in range(11)] + [2 + i / 10 for i in range(11)]
        a = SampleSet.from_points(pts)
        band = ToleranceSet(eps_prox=0.051)
        rep = check_starshaped(h, a, P(0), (0.0, 0.5, 1.0), band)
        assert rep.falsified
        assert 1.06 < rep.witness["image"].coords[0] < 1.94  # inside the gap
        midpoint = h.apply(P(0), P(3), 0.5)
        assert midpoint == P(1.5) and not a.contains(midpoint, 0.051)

    def test_centre_must_belong(self):
        a = SampleSet.from_points([0.0, 1.0])
        with pytest.raises(GSpaceError):
            check_starshaped(ConvexStructure(("l*x1 + (1-l)*u1",)), a, P(5), LAMBDAS, TOL)


@pytest.mark.parametrize("lams", [(0.0, 1.0, 2.0), (-0.5, 0.0, 1.0), (0.0, math.nan, 1.0)],
                         ids=["above-one", "below-zero", "nan"])
def test_a_lambda_outside_the_unit_interval_raises(lams):
    # lambda 2 once made both checks report FALSIFIED with a negative rhs
    g = GFunction("x1 - u1", 1)
    s = SampleSet.from_points([0.0, 0.5, 1.0])
    h = ConvexStructure(("l*x1 + (1-l)*u1",))
    for check in (lambda: check_convex_structure(h, g, s, lams, TOL),
                  lambda: check_starshaped(h, s, P(0), lams, TOL)):
        with pytest.raises(GSpaceError, match=r"lambda grid values must lie in \[0, 1\]"):
            check()


def test_minus_zero_is_a_lambda_of_the_unit_interval():
    g = GFunction("x1 - u1", 1)
    s = SampleSet.from_points([0.0, 0.5, 1.0])
    h = ConvexStructure(("l*x1 + (1-l)*u1",))
    assert check_convex_structure(h, g, s, (-0.0, 0.5, 1.0), TOL).holds
    assert check_starshaped(h, s, P(0), (-0.0, 1.0), TOL).holds


class TestSideCondition:
    def test_degenerate_pair_holds(self):
        g = GFunction("x2 - u2", 2)
        a = SampleSet.grid([(0, 0), (-1, 0)], [1, 201])
        b = SampleSet.grid([(0, 0), (0, 1)], [1, 201])
        tol = ToleranceSet(eps_prox=0.0025)
        core = proximal_core(g, a, b, tol)
        assert check_side_condition(core, P(0, 0), P(0, 0), tol).holds

    def test_off_centre_falsified(self):
        g = GFunction("x2 - u2", 2)
        a = SampleSet.grid([(0, 0), (-1, 0)], [1, 201])
        b = SampleSet.grid([(0, 0), (0, 1)], [1, 201])
        tol = ToleranceSet(eps_prox=0.0025)
        core = proximal_core(g, a, b, tol)
        rep = check_side_condition(core, P(0, -1), P(0, 0), tol)
        assert rep.falsified and rep.lhs == 1.0 and rep.rhs == 0.0
