"""Which points each capped scan reads.

A scan over a box sample reads every point while the tuple count stays
within its cap, and a deterministic per-axis subsample once it does not; an
exact set is read whole.  The reference formulas are written out here: per
axis, max(2, floor(cap ** (1 / arity))) points at cap 10**6 for the pair
scans, the triangle triples and the quadruple pairs, and 2000 points for the
qualifying pairs, chosen by even strides at seed 0 and by a seeded random
sample otherwise.  The spies read the first row a scan passes to the kernels
(for the qualifying pairs, to the row reader; for the contraction scans, to
their fused loop) and stop the scan there, so no test pays for a whole scan.
"""

from __future__ import annotations

from itertools import repeat

import pytest

from conftest import reference_indices
import gproxim.gspace as gspace_module
import gproxim.properties as properties_module
from gproxim.expr import RowKernels
from gproxim.gspace import (
    GFunction,
    SampleSet,
    ToleranceSet,
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
    A fused contraction loop (first_banach, first_proximal) is caught too,
    as a call over its left side's point p and row Q."""
    seen = []

    def spy(self, P, Q):
        seen.append(_rows(P, Q))
        raise _Stop

    def fused(self):
        return lambda p, Q, *rest: spy(self, repeat(p), Q)

    monkeypatch.setattr(RowKernels, "marked", spy)
    for name in ("first_banach", "first_proximal"):
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


def test_the_triangle_scan_reads_99_points_per_axis(monkeypatch):
    s = SampleSet.grid([(0.0, 1.0)], 201)
    real, rows = RowKernels.marked, []

    def spy(self, P, Q):
        rows.append(_rows(P, Q))
        return real(self, P, Q)

    monkeypatch.setattr(RowKernels, "marked", spy)
    assert falsify_axiom("triangle", G, s, TOL).holds
    want = [s.points[i].coords for i in reference_indices(201, 3, 10 ** 6, 0)]
    assert len(want) == 99
    # one row per scanned point, over the other scanned points
    assert [p for p, _ in rows] == [[c] for c in want]
    assert [q for _, q in rows] == [want[:i] + want[i + 1:] for i in range(99)]
