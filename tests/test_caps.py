"""Which points each capped scan reads.

A scan over a box sample reads every point while the tuple count stays
within its cap, and a deterministic per-axis subsample once it does not; an
exact set is read whole, except by the convex-structure check, whose axes
are cut by its own size rule whatever the set.  The reference formulas are
written out here: per axis, max(2, floor(cap ** (1 / arity))) points at cap
10**6 for the pair scans, the triangle triples and the quadruple pairs, and
2000 points for the qualifying pairs, chosen by even strides at seed 0 and
by a seeded random sample otherwise.  The spies read the first row a scan
passes to the kernels (for the qualifying pairs, to the row reader; for the
contraction, identity and symmetry scans, to their first-hit loop) and stop
the scan there, so no test pays for a whole scan.  The convex-structure
check runs whole under a lowered cap, and its spy reads the rows of H each
condition builds.
"""

from __future__ import annotations

import math
import random
from itertools import repeat

import pytest

from conftest import reference_indices
import gproxim.gspace as gspace_module
import gproxim.properties as properties_module
from gproxim.expr import RowKernels
from gproxim.gspace import (
    ConvexStructure,
    GFunction,
    SampleSet,
    ToleranceSet,
    check_convex_structure,
    falsify_axiom,
    proximal_core,
)
from gproxim.properties import (
    MapSpec,
    check_banach_contraction,
    check_proximal_inequality,
    qualifying_pairs,
)

TOL = ToleranceSet()
G = GFunction("abs(x1-u1)", 1)


def test_the_reference_counts_per_axis():
    assert len(reference_indices(1001, 2, 10 ** 6, 0)) == 1000
    assert len(reference_indices(101, 3, 10 ** 6, 7)) == 99
    assert len(reference_indices(2001, 1, 2000, 0)) == 2000


def _rows(P, Q) -> tuple[list, list]:
    """Both arguments of a kernel call as lists; an itertools.repeat gives
    its one tuple."""
    return tuple([next(a)] if isinstance(a, repeat) else list(a) for a in (P, Q))


class _Stop(Exception):
    pass


def first_row(scan, monkeypatch) -> tuple[list, list]:
    """The arguments of the scan's first kernel call; the scan stops there.
    A first-hit loop (first_banach, first_proximal, first_level,
    first_symmetry) is caught too, as a call over its point p and row Q."""
    seen = []

    def spy(self, P, Q):
        seen.append(_rows(P, Q))
        raise _Stop

    def fused(self):
        return lambda p, Q, *rest: spy(self, repeat(p), Q)

    monkeypatch.setattr(RowKernels, "marked", spy)
    for name in ("first_banach", "first_proximal", "first_level", "first_symmetry"):
        monkeypatch.setattr(RowKernels, name, property(fused))
    with pytest.raises(_Stop):
        scan()
    return seen[0]


def line(n: int, box: bool) -> SampleSet:
    if box:
        return SampleSet.grid([(0.0, 1.0)], n, name="A")
    return SampleSet.from_points([i / (n - 1) for i in range(n)], name="A")


def _core(s: SampleSet):
    # B lies off [0, 1], so no image of the identity is a point of B, and
    # each row of mates is read through gspace._runs
    return proximal_core(G, s, SampleSet.from_points([2.0], name="B"), TOL)


def _axiom(kind):
    def scan(s, seed, monkeypatch):
        p, q = first_row(lambda: falsify_axiom(kind, G, s, TOL, seed=seed), monkeypatch)
        return p + q  # the row of the first scanned point leaves that point out
    return scan


def _banach(s, seed, monkeypatch):
    t = MapSpec(["x1"], s, s)
    _, q = first_row(
        lambda: check_banach_contraction(G, t, 0.5, TOL, seed=seed), monkeypatch
    )
    return q  # Ty over the scanned y, T being the identity


def _qualifying(s, seed, monkeypatch):
    # a row of mates reads only the blocks of its set that can reach the
    # level (gspace._runs), so the spy takes the set the first row is over
    f, core = MapSpec(["x1"], s, s), _core(s)
    seen = []

    def spy(g, xs, ys, *args, **kwargs):
        seen.append(list(xs.coords))
        raise _Stop

    monkeypatch.setattr(gspace_module, "_runs", spy)
    with pytest.raises(_Stop):
        qualifying_pairs(f, core, seed=seed)
    return seen[0]


def _quadruples(s, seed, monkeypatch):
    # one qualifying pair (x, x) per point, so the quadruple scan subsamples
    # a list of pairs as long as the set
    pairs = [(x, x) for x in s.points]
    monkeypatch.setattr(properties_module, "qualifying_pairs", lambda *a, **k: pairs)
    f, core = MapSpec(["x1"], s, s), _core(s)
    _, q = first_row(
        lambda: check_proximal_inequality(f, 0.5, 0.0, core, TOL, seed=seed),
        monkeypatch,
    )
    return q  # u2 over the scanned pairs


# scan -> (scan, arity, cap, the smallest set size that the cap cuts)
SCANS = {
    "identity": (_axiom("identity"), 2, 10 ** 6, 1001),
    "symmetry": (_axiom("symmetry"), 2, 10 ** 6, 1001),
    "triangle": (_axiom("triangle"), 3, 10 ** 6, 101),
    "banach": (_banach, 2, 10 ** 6, 1001),
    "quadruples": (_quadruples, 2, 10 ** 6, 1001),
    "qualifying": (_qualifying, 1, 2000, 2001),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("offset", [-2, -1, 0], ids=["below", "at", "above"])
@pytest.mark.parametrize("name", SCANS)
def test_a_box_scan_reads_the_reference_points(name, offset, seed, monkeypatch):
    scan, arity, cap, cut = SCANS[name]
    n = cut + offset
    s = line(n, box=True)
    want = [s.points[i].coords for i in reference_indices(n, arity, cap, seed)]
    assert scan(s, seed, monkeypatch) == want


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", SCANS)
def test_an_exact_set_is_read_whole(name, seed, monkeypatch):
    scan, _, _, cut = SCANS[name]
    s = line(cut, box=False)
    assert scan(s, seed, monkeypatch) == s.coords


# abs(x1-u1) is proven symmetric (GFunction.symmetric), so its rows read
# half; the same values plus 0*x1 are not, since the proof never follows a
# bare variable
@pytest.mark.parametrize("gauge, half", [("abs(x1-u1)", True), ("abs(x1-u1) + 0*x1", False)])
def test_the_triangle_scan_reads_99_points_per_axis(gauge, half, monkeypatch):
    g = GFunction(gauge, 1)
    assert g.symmetric == half
    s = SampleSet.grid([(0.0, 1.0)], 201)
    real, rows = RowKernels.marked, []

    def spy(self, P, Q):
        rows.append(_rows(P, Q))
        return real(self, P, Q)

    monkeypatch.setattr(RowKernels, "marked", spy)
    assert falsify_axiom("triangle", g, s, TOL).holds
    want = [s.points[i].coords for i in reference_indices(201, 3, 10 ** 6, 0)]
    assert len(want) == 99
    # a symmetric g reads one row per scanned point, over the scanned points
    # after it; any other g reads two, over the points before it and then
    # over the points after it
    if half:
        assert [p for p, _ in rows] == [[c] for c in want]
        assert [q for _, q in rows] == [want[i + 1:] for i in range(99)]
    else:
        assert [p for p, _ in rows] == [[c] for c in want for _ in range(2)]
        assert [q for _, q in rows] == [q for i in range(99) for q in (want[:i], want[i + 1:])]


def reference_axes(sizes: list, cap: int) -> list:
    """The convex check's per-axis sizes, written out apart from gspace:
    the largest axis (the first of them on a tie) shrinks by a fifth, to
    no fewer than 2, while the product is above cap and an axis above 2."""
    sizes = list(sizes)
    while math.prod(sizes) > cap and max(sizes) > 2:
        i = sizes.index(max(sizes))
        sizes[i] = max(2, int(sizes[i] * 0.8))
    return sizes


def reference_picks(items: list, m: int, seed: int) -> list:
    """m of items in order, all of them when m >= len(items): even strides
    with both ends at seed 0, random.Random(seed).sample otherwise."""
    n = len(items)
    if m >= n:
        return list(items)
    if seed == 0:
        return [items[i] for i in sorted({round(i * (n - 1) / (m - 1)) for i in range(m)})]
    return [items[i] for i in sorted(random.Random(seed).sample(range(n), m))]


CONVEX_CAP = 2000
CONVEX_LAMS = [i / 10 for i in range(11)]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("box", [True, False], ids=["box", "exact"])
def test_the_convex_check_reads_the_reference_axes(box, seed, monkeypatch):
    s = line(12, box)
    monkeypatch.setattr(gspace_module, "MAX_TUPLES", CONVEX_CAP)
    real, calls = ConvexStructure.rows, []

    def spy(self, x, ys, lams):
        calls.append(([y.coords for y in ys], list(lams)))
        return real(self, x, ys, lams)

    monkeypatch.setattr(ConvexStructure, "rows", spy)
    h = ConvexStructure(("l*x1 + (1-l)*u1",))
    assert check_convex_structure(h, G, s, CONVEX_LAMS, TOL, seed=seed).holds
    # each condition first reads H at the two ends of its lambda axis, then,
    # as this H gives its endpoints there, its rows over the inner lambdas
    # alone: the second run of end reads starts condition two.  Condition
    # one reads H(x, y, .) over its y axis; condition two reads H(x, y, .)
    # over its y axis at the ends and for one y after, and H(x0, y0, .)
    # over its y0 axis
    ends = [lams == [0.0, 1.0] for _, lams in calls]
    two = next(i for i in range(1, len(calls)) if ends[i] and not ends[i - 1])
    for k, part in zip((3, 4), (calls[:two], calls[two:])):
        m = reference_axes([len(s)] * k + [len(CONVEX_LAMS)], CONVEX_CAP)
        assert m[k - 1] < len(s) and m[k] < len(CONVEX_LAMS)  # both axes are cut
        read = [(ys, lams) for ys, lams in part if len(ys) > 1]
        assert all(ys == reference_picks(s.coords, m[k - 1], seed) for ys, _ in read)
        assert part[0][1] == [0.0, 1.0]
        (inner,) = {tuple(lams) for _, lams in part} - {(0.0, 1.0)}
        assert [0.0, *inner, 1.0] == sorted(
            set(reference_picks(CONVEX_LAMS, m[k], seed)) | {0.0, 1.0})
