"""Property-style invariants of the sampled proximity machinery, checked on
seeded random instances and on the structured reference instances."""

import random

import pytest

from conftest import mirrored, random_expr
from gproxim.expr import EvalError, variables
from gproxim.gspace import (
    ConvexStructure,
    GFunction,
    Point,
    SampleSet,
    ToleranceSet,
    check_semi_sharp,
    eval_g,
    falsify_axiom,
    proximal_core,
)

GAUGE_POOL = (
    "x1 - u1",
    "x1^2 - u1^2",
    "x1*u1",
    "x1 - u1 + 0.5",
    "abs(x1 - u1)",
    "min(x1,u1)",
)


def _random_instance(rng: random.Random):
    g = GFunction(rng.choice(GAUGE_POOL), 1)
    universe = [x / 2.0 for x in range(-10, 11)]
    a = SampleSet.from_points(rng.sample(universe, rng.randint(2, 8)), name="A")
    b = SampleSet.from_points(rng.sample(universe, rng.randint(2, 8)), name="B")
    return g, a, b


@pytest.mark.parametrize("seed", range(40))
def test_core_minimality_and_witnesses_replay(seed):
    rng = random.Random(seed)
    g, a, b = _random_instance(rng)
    tol = ToleranceSet()
    core = proximal_core(g, a, b, tol)
    values = [abs(eval_g(g, x, y)) for x in a for y in b]
    assert core.d_g == min(values)
    assert all(v >= core.d_g for v in values)
    # every realising point carries a witness that lands inside the band
    assert len(core.witnesses) == len(core.a_g)
    for x, y in core.witnesses:
        assert abs(abs(eval_g(g, x, y)) - core.d_g) <= tol.eps_prox
        assert y in set(core.b_g.points)
    # the realising sets are exactly the banded points
    a_expected = [
        x for x in a
        if any(abs(abs(eval_g(g, x, y)) - core.d_g) <= tol.eps_prox for y in b)
    ]
    b_expected = [
        y for y in b
        if any(abs(abs(eval_g(g, x, y)) - core.d_g) <= tol.eps_prox for x in a)
    ]
    assert list(core.a_g.points) == a_expected
    assert list(core.b_g.points) == b_expected


def _random_plane_core(seed: int):
    """A random gauge over the plane, alone or added to the L1 distance,
    which gives its rows a level to reach, with exact sets A of 49 points
    and B of 48, each more than one leaf of blocks, and B shuffled."""
    rng = random.Random(seed)
    e = random_expr(rng, 3)
    while "l" in variables(e):
        e = random_expr(rng, 3)
    g = GFunction(e if seed % 2 else f"abs(x1-u1) + abs(x2-u2) + ({e})/4", 2)
    a = SampleSet.from_points([(i / 4, j / 4) for i in range(7) for j in range(7)], name="A")
    b_pts = [(1 + i / 5, j / 7 - 0.5) for i in range(6) for j in range(8)]
    b, shuffled = SampleSet.from_points(b_pts, name="B"), rng.sample(b_pts, len(b_pts))
    return g, a, b, SampleSet.from_points(shuffled, name="B")


def _core_or_error(g, a, b, tol):
    try:
        return proximal_core(g, a, b, tol)
    except EvalError:
        return None


@pytest.mark.parametrize("seed", range(24))
def test_the_mates_of_a_point_of_b_read_from_the_core_equal_its_row(seed):
    # the inverse of partners against the band plan of the row over A
    g, a, b, _ = _random_plane_core(seed)
    core = _core_or_error(g, a, b, ToleranceSet(eps_prox=1 / 64))
    if core is not None:
        for y in b.points:
            assert core.mates(y) == core.mates(y, core.a)


@pytest.mark.parametrize("seed", range(24))
def test_permuting_b_keeps_the_level_and_the_realising_sets(seed):
    g, a, b, shuffled = _random_plane_core(seed)
    tol = ToleranceSet(eps_prox=1 / 64)
    core, other = _core_or_error(g, a, b, tol), _core_or_error(g, a, shuffled, tol)
    assert (core is None) == (other is None)  # one order raises, so does the other
    if core is not None:
        assert core.d_g.hex() == other.d_g.hex()
        assert core.a_g.points == other.a_g.points
        assert set(core.b_g.points) == set(other.b_g.points)
        assert [set(ys) for ys in core.partners] == [set(ys) for ys in other.partners]


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("kind", ["identity", "symmetry", "triangle"])
def test_falsifier_witnesses_are_sound(kind, seed):
    rng = random.Random(1000 + seed)
    g, a, _ = _random_instance(rng)
    tol = ToleranceSet()
    rep = falsify_axiom(kind, g, a, tol)
    if not rep.falsified:
        return
    w = rep.witness
    if kind == "identity":
        assert w["x"] != w["y"]
        assert abs(eval_g(g, w["x"], w["y"])) == rep.lhs <= tol.eps_zero
    elif kind == "symmetry":
        lhs = abs(abs(eval_g(g, w["x"], w["y"])) - abs(eval_g(g, w["y"], w["x"])))
        assert lhs == rep.lhs > tol.eps_ineq
    else:
        lhs = abs(eval_g(g, w["x"], w["z"]))
        rhs = abs(eval_g(g, w["x"], w["y"])) + abs(eval_g(g, w["y"], w["z"]))
        assert lhs == rep.lhs and rhs == rep.rhs
        assert lhs > rhs + tol.eps_ineq


# Metamorphic relations of the axiom falsifiers on exact sets, which they
# scan whole: the axiom holds, or fails at some tuple, under a change that
# keeps the set of tuples to test.  A falsification and a typed error both
# say it fails; which of them a scan meets first depends on its order.
AXIOMS = ("identity", "symmetry", "triangle")
PLANE = [(c, d) for c in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0) for d in (-0.5, 0.0, 0.25, 1.0)]


def _holds(kind, g, points, tol):
    try:
        return falsify_axiom(kind, g, SampleSet.from_points(points, name="A"), tol).holds
    except EvalError:
        return False


def _axiom_case(seed: int):
    """A random plane gauge, tolerances and an exact set of 3 to 6 points."""
    rng = random.Random(f"axiom-relations-{seed}")
    e = random_expr(rng, 3)
    while "l" in variables(e):
        e = random_expr(rng, 3)
    tol = ToleranceSet(eps_zero=rng.choice((1e-9, 0.25)), eps_ineq=rng.choice((0.0, 1e-9, 0.25)))
    return rng, e, tol, rng.sample(PLANE, rng.randint(3, 6))


@pytest.mark.parametrize("seed", range(40))
def test_swapping_x_and_u_in_the_gauge_keeps_every_axiom_verdict(seed):
    _, e, tol, points = _axiom_case(seed)
    g, swapped = GFunction(e, 2), GFunction(mirrored(e), 2)
    for kind in AXIOMS:
        assert _holds(kind, g, points, tol) == _holds(kind, swapped, points, tol)


@pytest.mark.parametrize("seed", range(40))
def test_reordering_an_exact_set_keeps_every_axiom_verdict(seed):
    rng, e, tol, points = _axiom_case(seed)
    g, reordered = GFunction(e, 2), rng.sample(points, len(points))
    for kind in AXIOMS:
        assert _holds(kind, g, points, tol) == _holds(kind, g, reordered, tol)


@pytest.mark.parametrize("seed", range(40))
def test_an_axiom_falsified_on_a_subset_stays_falsified_on_the_superset(seed):
    rng, e, tol, points = _axiom_case(seed)
    g = GFunction(e, 2)
    superset = points + rng.sample([p for p in PLANE if p not in points], rng.randint(1, 3))
    rng.shuffle(superset)
    for kind in AXIOMS:
        if not _holds(kind, g, points, tol):
            assert not _holds(kind, g, superset, tol)


LINEAR_H = ConvexStructure(("l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"))


def _dyadic_segments():
    pts_a = [(0.0, 2.0 ** -k) for k in range(26)] + [(0.0, 0.0)]
    pts_b = [(1.0, 2.0 ** -k) for k in range(26)] + [(1.0, 0.0)]
    g = GFunction("sqrt((x1 - u1)^2 + (x2 - u2)^2)", 2)
    return (
        g,
        SampleSet.from_points(pts_a, name="A"),
        SampleSet.from_points(pts_b, name="B"),
        ToleranceSet(eps_prox=1e-9, eps_zero=1e-6),
    )


def test_starshaped_centres_keep_realising_points_realising():
    # with both sets starshaped about centres that realise the level, the
    # interpolant of a realising point stays within twice the band
    g, a, b, tol = _dyadic_segments()
    core = proximal_core(g, a, b, tol)
    r, s = Point((0.0, 0.0)), Point((1.0, 0.0))
    assert abs(abs(eval_g(g, r, s)) - core.d_g) <= tol.eps_prox
    witness_of = dict(core.witnesses)
    for lam in (0.0, 0.5, 1.0):
        for x in core.a_g.points:
            hx = LINEAR_H.apply(r, x, lam)
            hy = LINEAR_H.apply(s, witness_of[x], lam)
            # the paired interpolants realise the level directly
            assert abs(abs(eval_g(g, hx, hy)) - core.d_g) <= 2 * tol.eps_prox
            # and hx qualifies against the sampled partner set
            best = min(abs(abs(eval_g(g, hx, y)) - core.d_g) for y in b)
            assert best <= 2 * tol.eps_prox


@pytest.mark.parametrize(
    "gauge,a_pts,b_pts,eps",
    [
        ("x2 - u2", None, None, 0.0025),  # touching segments (grids below)
        ("x1^2 - u1^2", [0, 1, 2, 3, 5], [-1, -2, -3, 4], 1e-9),
    ],
)
def test_semi_sharp_is_inherited_by_the_realising_pair(gauge, a_pts, b_pts, eps):
    if a_pts is None:
        g = GFunction(gauge, 2)
        a = SampleSet.grid([(0, 0), (-1, 0)], [1, 201], name="A")
        b = SampleSet.grid([(0, 0), (0, 1)], [1, 201], name="B")
    else:
        g = GFunction(gauge, 1)
        a = SampleSet.from_points(a_pts, name="A")
        b = SampleSet.from_points(b_pts, name="B")
    tol = ToleranceSet(eps_prox=eps)
    core = proximal_core(g, a, b, tol)
    outer = check_semi_sharp(core)
    assert outer.holds
    inner_core = proximal_core(g, core.a_g, core.b_g, tol)
    inner = check_semi_sharp(inner_core)
    assert inner.holds


def test_semi_sharp_falsified_case_reports_both_partners():
    g = GFunction("x1^2 - u1^2", 1)
    a = SampleSet.from_points([1.0], name="A")
    b = SampleSet.from_points([-1.0, 1.0], name="B")
    tol = ToleranceSet()
    rep = check_semi_sharp(proximal_core(g, a, b, tol))
    assert rep.falsified
    assert rep.witness["b1"] != rep.witness["b2"]
