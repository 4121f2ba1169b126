"""Seeded job lists for the four benchmark workloads.

Every job's expected outcome is fixed by construction here, never taken from
a run of the program.  Grids have dyadic bounds and power-of-two steps, and
every planted constant is dyadic, so the values behind each planted witness,
search estimate and proximity answer are exact in binary floating point and
are compared bit for bit.  Contraction iterations stop on a tolerance, so
their fixed points are compared to within 1e-6.

A seed changes values, not sizes.  It picks the grid offset, gauge scales and
the job order; grid sizes, planted scan positions and job kinds are fixed per
workload, so the work a pass does (and every traced count) is the same for
every seed.

This module must not import gproxim.
"""

from __future__ import annotations

import json
import os
import random
from typing import Optional

WORKLOADS = ("fixtures", "verify-holds", "verify-falsify", "solve")

FIXTURE_NAMES = (
    "xu-nonunique-limits",
    "min-contraction",
    "box-shift",
    "halving-on-unit",
    "projection-nonunique-fixed",
    "quarter-proximal",
    "finite-sets",
    "g-closed-halfline",
    "segment-bpp",
    "berinde-reflection",
    "parallel-segments",
)
FIXTURE_EXPECTATIONS = 55

# Fraction of the scan at which a planted violation sits.
POSITIONS = (("early", 0.125), ("middle", 0.5), ("late", 0.875))

STARSHAPED_REPLAY_DEFECT = (
    "ROADMAP item 4: verify --replay of a starshaped:A report reads A as a "
    "gauge name and exits 2"
)

# Placeholder for the job's work directory inside argv and config paths.
DIR = "@dir/"


def num(x: float) -> str:
    """DSL literal for an exact float; negative values are parenthesised."""
    text = repr(float(x))
    return f"({text})" if x < 0 else text


class Grid1:
    """Points o + i*s for i in range(n): a dyadic box with a power-of-two step."""

    def __init__(self, o: float, s: float, n: int):
        self.o, self.s, self.n = o, s, n
        self.hi = o + (n - 1) * s

    def t(self, i: int) -> float:
        return self.o + i * self.s

    def box(self) -> dict:
        return {"box": [[self.o, self.hi]], "resolution": [self.n]}

    def column(self, x1: float) -> dict:
        """The grid as the segment {x1} x [o, hi] in the plane."""
        return {"box": [[x1, x1], [self.o, self.hi]], "resolution": [1, self.n]}


class JobSet:
    """Collects the configs and jobs of one workload for one seed."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.configs: dict[str, dict] = {}
        self.jobs: list[dict] = []

    def offset(self) -> float:
        """A dyadic grid offset in [-4, 4] with step 1/8."""
        return self.rng.randrange(-32, 33) / 8.0

    def scale(self) -> float:
        return self.rng.choice((0.5, 1.0, 2.0, 4.0))

    def config(self, name: str, doc: dict) -> str:
        fname = f"{name}.json"
        self.configs[fname] = doc
        return DIR + fname

    def job(self, jid: str, configs: list[str], steps: list[dict],
            known_defect: Optional[str] = None) -> None:
        self.jobs.append({
            "id": jid,
            "configs": configs,
            "steps": steps,
            "known_defect": known_defect,
        })


def _doc(dimension: int, g: str, sets: dict, **extra) -> dict:
    doc = {"dimension": dimension, "g": g, "sets": sets}
    doc.update(extra)
    return doc


def _verify(cfg: str, checks: list[str], expect: list[dict], exit_code: int,
            out: Optional[str] = None) -> dict:
    argv = ["verify", "--config", cfg, "--checks", *checks, "--json"]
    if out:
        argv += ["--out", out]
    return {"argv": argv, "exit": exit_code, "expect": {"type": "verify", "checks": expect}}


def _replay(cfg: str, checks: list[str], report: str, specs: list[str]) -> dict:
    argv = ["verify", "--config", cfg, "--checks", *checks, "--replay", report]
    return {"argv": argv, "exit": 1, "expect": {"type": "replay", "reproduced": specs}}


# --------------------------------------------------------------------------
# fixtures


def build_fixtures(b: JobSet) -> None:
    for name in FIXTURE_NAMES:
        b.job(
            f"fixtures/{name}",
            [f"fixture:{name}"],
            [{
                "argv": ["fixtures", name, "--json"],
                "exit": 0,
                "expect": {"type": "fixtures", "name": name},
            }],
        )


# --------------------------------------------------------------------------
# verify-holds: every requested check holds, every scan runs to its end


def build_verify_holds(b: JobSet) -> None:
    # axioms on metric gauges
    metric_1d = [("scaled-abs", "{w}*abs(x1-u1)"), ("euclid-1d", "{w}*sqrt((x1-u1)^2)")]
    for name, text in metric_1d:
        grid = Grid1(b.offset(), 2.0 ** -6, 64)
        g = text.format(w=num(b.scale()))
        cfg = b.config(f"axioms-{name}", _doc(1, g, {"A": grid.box()}))
        b.job(f"holds/axioms/{name}", [cfg], [_verify(
            cfg, ["axioms:g"], _holds(["identity:g", "symmetry:g", "triangle:g"]), 0)])
    metric_2d = [
        ("l1", "abs(x1-u1) + abs(x2-u2)"),
        ("linf", "max(abs(x1-u1), abs(x2-u2))"),
        ("euclid", "sqrt((x1-u1)^2 + (x2-u2)^2)"),
    ]
    for name, text in metric_2d:
        o1, o2 = b.offset(), b.offset()
        box = {"box": [[o1, o1 + 0.875], [o2, o2 + 0.875]], "resolution": [8, 8]}
        cfg = b.config(f"axioms-{name}", _doc(2, text, {"A": box}))
        b.job(f"holds/axioms/{name}", [cfg], [_verify(
            cfg, ["axioms:g"], _holds(["identity:g", "symmetry:g", "triangle:g"]), 0)])

    # banach at the exact rate of an affine map
    for rate in (0.5, 0.75):
        grid = Grid1(b.offset(), 2.0 ** -8, 512)
        shift = b.offset()
        doc = _doc(1, f"{num(b.scale())}*abs(x1-u1)", {"A": grid.box()},
                   maps={"T": {"exprs": [f"{num(rate)}*x1 + {num(shift)}"],
                               "domain": "A", "codomain": "A"}})
        cfg = b.config(f"banach-{rate}", doc)
        spec = f"banach:g:alpha={rate!r}"
        b.job(f"holds/banach/{rate!r}", [cfg], [_verify(cfg, [spec], _holds([spec]), 0)])

    # proximal-weak above the exact coefficient 1/2
    for n_cap in ("0", "1"):
        grid = Grid1(b.offset(), 2.0 ** -8, 257)
        cfg = _parallel_segments(b, f"proximal-weak-N{n_cap}", grid, tolerances=TIGHT_BAND)
        spec = f"proximal-weak:g:beta=0.5625:N={n_cap}"
        b.job(f"holds/proximal-weak/N{n_cap}", [cfg],
              [_verify(cfg, [spec], _holds([spec], vacuous=False), 0)])

    # search sweeps whose estimate has a closed form
    grid = Grid1(b.offset(), 2.0 ** -8, 384)
    rate = 0.25
    doc = _doc(1, "abs(x1-u1)", {"A": grid.box()},
               maps={"T": {"exprs": [f"{num(rate)}*x1 + {num(b.offset())}"],
                           "domain": "A", "codomain": "A"}})
    cfg = b.config("search-banach", doc)
    b.job("holds/search/banach", [cfg], [_search(cfg, "banach:g", rate, 0.9375, 4, "alpha")])
    grid = Grid1(b.offset(), 2.0 ** -8, 257)
    cfg = _parallel_segments(b, "search-proximal", grid, tolerances=TIGHT_BAND)
    b.job("holds/search/proximal-weak", [cfg],
          [_search(cfg, "proximal-weak:g:N=0", 0.5, 0.9375, 3, "beta")])


def _holds(specs: list[str], vacuous: Optional[bool] = None) -> list[dict]:
    out = []
    for spec in specs:
        entry = {"spec": spec, "verdict": "holds-on-sample", "witness": None}
        if vacuous is not None:
            entry["vacuous"] = vacuous
        out.append(entry)
    return out


def _search(cfg: str, check: str, estimate: float, hi: float, steps: int,
            label: str) -> dict:
    values = [estimate + i * (hi - estimate) / (steps - 1) for i in range(steps)]
    argv = ["search", "--config", cfg, "--check", check, "--lo", repr(estimate),
            "--hi", repr(hi), "--steps", str(steps), "--json"]
    return {"argv": argv, "exit": 0, "expect": {
        "type": "search", "estimate": estimate, "label": label, "values": values}}


L1 = "abs(x1-u1) + abs(x2-u2)"
TIGHT_BAND = {"eps_prox": 1e-9}  # only exact grid hits qualify as proximity mates


def _parallel_segments(b: JobSet, name: str, grid: Grid1, gauge: str = L1,
                       bump_at: Optional[int] = None, **extra) -> str:
    """A = {0} x grid, B = {1} x grid, f(x) = (x1 + 1, o + (x2 - o)/2).

    The proximity level is exactly 1.  With a tight band the qualifying pairs
    are (t_2j, t_j): the proximal coefficient is exactly 1/2.  With bump_at = k
    the image of t_2k is lowered by two grid steps to t_(k-2); the first
    violating quadruple in scan order is then (t_2k, t_2k+2, t_(k-2), t_(k+1)).
    With the default band of half a grid step, proximity iteration from the
    top halves the grid index (ties go to the lower point) down to (0, o).
    """
    o, s = grid.o, grid.s
    phi = f"(x2 - {num(o)})/2 + {num(o)}"
    if bump_at is not None:
        peak = num(grid.t(2 * bump_at))
        phi += f" - {num(2 * s)}*max(0, 1 - abs(x2 - {peak})*{num(1 / s)})"
    doc = _doc(2, gauge, {"A": grid.column(0.0), "B": grid.column(1.0)},
               maps={"f": {"exprs": ["x1 + 1", phi], "domain": "A", "codomain": "B"}},
               **extra)
    return b.config(name, doc)


# --------------------------------------------------------------------------
# verify-falsify: a violation planted at a known place in scan order


def _position(frac: float, lo: int, hi: int) -> int:
    """Index at the given fraction of [lo, hi]."""
    return lo + int(frac * (hi - lo))


def build_verify_falsify(b: JobSet) -> None:
    for pos, frac in POSITIONS:
        for kind, make in _FALSIFIERS:
            name = f"{kind}-{pos}"
            cfg, checks, expect, known = make(b, name, frac)
            report = DIR + f"{name}.report.json"
            falsified = [e["spec"] for e in expect if e["verdict"] == "falsified"]
            b.job(f"falsify/{kind}/{pos}", [cfg], [
                _verify(cfg, checks, expect, 1, out=report),
                _replay(cfg, checks, report, falsified),
            ], known_defect=known)


def _falsified(spec: str, witness: dict) -> dict:
    return {"spec": spec, "verdict": "falsified", "witness": witness}


def _fx_identity(b: JobSet, name: str, frac: float):
    # g collapses every point at or above t_k: first witness (t_k, t_k+1)
    grid = Grid1(b.offset(), 2.0 ** -7, 256)
    k = _position(frac, 1, grid.n - 2)
    c = num(grid.t(k))
    g = f"abs(min(x1, {c}) - min(u1, {c}))"
    cfg = b.config(name, _doc(1, g, {"A": grid.box()}))
    wit = {"x": [grid.t(k)], "y": [grid.t(k + 1)]}
    return cfg, ["identity:g"], [_falsified("identity:g", wit)], None


def _fx_symmetry(b: JobSet, name: str, frac: float):
    # asymmetric only when both points lie above c = t_k - s/2
    grid = Grid1(b.offset(), 2.0 ** -7, 256)
    k = _position(frac, 1, grid.n - 2)
    c = num(grid.t(k) - grid.s / 2)
    g = f"abs(x1-u1) + max(min(x1,u1) - {c}, 0)*(x1-u1)"
    cfg = b.config(name, _doc(1, g, {"A": grid.box()}))
    wit = {"x": [grid.t(k)], "y": [grid.t(k + 1)]}
    return cfg, ["symmetry:g"], [_falsified("symmetry:g", wit)], None


def _triangle_gauge(grid: Grid1, k: int) -> str:
    # |x - u| plus s/2 on the single pair {t_k, t_k+2}: the only violated
    # triples are (t_k, t_k+1, t_k+2) and (t_k+2, t_k+1, t_k)
    inv = num(1 / grid.s)

    def hat(var: str, at: float) -> str:
        return f"max(0, 1 - abs({var} - {num(at)})*{inv})"

    a, c = grid.t(k), grid.t(k + 2)
    return (f"abs(x1-u1) + {num(grid.s / 2)}*({hat('x1', a)}*{hat('u1', c)} + "
            f"{hat('x1', c)}*{hat('u1', a)})")


def _fx_triangle(b: JobSet, name: str, frac: float):
    grid = Grid1(b.offset(), 2.0 ** -6, 40)
    k = _position(frac, 1, grid.n - 3)
    cfg = b.config(name, _doc(1, _triangle_gauge(grid, k), {"A": grid.box()}))
    wit = {"x": [grid.t(k)], "y": [grid.t(k + 1)], "z": [grid.t(k + 2)]}
    return cfg, ["triangle:g"], [_falsified("triangle:g", wit)], None


def _fx_axioms(b: JobSet, name: str, frac: float):
    grid = Grid1(b.offset(), 2.0 ** -6, 32)
    k = _position(frac, 1, grid.n - 3)
    cfg = b.config(name, _doc(1, _triangle_gauge(grid, k), {"A": grid.box()}))
    wit = {"x": [grid.t(k)], "y": [grid.t(k + 1)], "z": [grid.t(k + 2)]}
    expect = _holds(["identity:g", "symmetry:g"]) + [_falsified("triangle:g", wit)]
    return cfg, ["axioms:g"], expect, None


def _fx_banach(b: JobSet, name: str, frac: float):
    # T(x) = x/2 + shift - d*hat(x - t_k): only pairs (t_k, y > t_k) violate
    grid = Grid1(b.offset(), 2.0 ** -7, 256)
    k = _position(frac, 1, grid.n - 2)
    s = grid.s
    t = (f"0.5*x1 + {num(b.offset())} - "
         f"{num(s / 4)}*max(0, 1 - abs(x1 - {num(grid.t(k))})*{num(1 / s)})")
    doc = _doc(1, "abs(x1-u1)", {"A": grid.box()},
               maps={"T": {"exprs": [t], "domain": "A", "codomain": "A"}})
    cfg = b.config(name, doc)
    wit = {"x": [grid.t(k)], "y": [grid.t(k + 1)]}
    spec = "banach:g:alpha=0.5"
    return cfg, [spec], [_falsified(spec, wit)], None


def _proximal_bump(b: JobSet, name: str, frac: float, spec: str):
    n = 193
    pairs = (n + 1) // 2
    k = _position(frac, 2, pairs - 2)
    grid = Grid1(b.offset(), 2.0 ** -8, n)
    cfg = _parallel_segments(b, name, grid, bump_at=k, tolerances=TIGHT_BAND)
    wit = {
        "x1": [0.0, grid.t(2 * k)], "u1": [0.0, grid.t(k - 2)],
        "x2": [0.0, grid.t(2 * k + 2)], "u2": [0.0, grid.t(k + 1)],
    }
    return cfg, [spec], [_falsified(spec, wit)], None


def _fx_proximal_weak(b: JobSet, name: str, frac: float):
    return _proximal_bump(b, name, frac, "proximal-weak:g:beta=0.5:N=0")


def _fx_berinde(b: JobSet, name: str, frac: float):
    return _proximal_bump(b, name, frac, "berinde:g")


def _fx_semi_sharp(b: JobSet, name: str, frac: float):
    # every a at or above t_k has all b at or above t_k as partners
    grid = Grid1(b.offset(), 2.0 ** -7, 192)
    k = _position(frac, 1, grid.n - 2)
    c = num(grid.t(k))
    g = f"abs(x1-u1) + abs(min(x2,{c}) - min(u2,{c}))"
    doc = _doc(2, g, {"A": grid.column(0.0), "B": grid.column(1.0)})
    cfg = b.config(name, doc)
    wit = {"a": [0.0, grid.t(k)], "b1": [1.0, grid.t(k)], "b2": [1.0, grid.t(k + 1)]}
    return cfg, ["semi-sharp:g"], [_falsified("semi-sharp:g", wit)], None


def _linear_h(dimension: int) -> list[str]:
    return [f"l*x{i} + (1-l)*u{i}" for i in range(1, dimension + 1)]


def _fx_side_condition(b: JobSet, name: str, frac: float):
    # |g(r, x)| = 2 + max(x2 - c, 0) and |g(y, s)| = 0 with r = (-1, o):
    # the side condition fails first at x = (1, t_k)
    grid = Grid1(b.offset(), 2.0 ** -7, 160)
    k = _position(frac, 1, grid.n - 2)
    c = num(grid.t(k) - grid.s / 2)
    g = f"abs(x1-u1) + max(u2 - {c}, 0)*max(-x1, 0)"
    doc = _doc(2, g, {"A": grid.column(0.0), "B": grid.column(1.0)},
               convex={"exprs": _linear_h(2), "r": [-1.0, grid.o], "s": [0.0, grid.o],
                       "lambda_grid": [0.0, 0.25, 0.5, 0.75, 1.0]})
    cfg = b.config(name, doc)
    wit = {"x": [1.0, grid.t(k)], "y": [0.0, grid.t(0)]}
    return cfg, ["side-condition:g"], [_falsified("side-condition:g", wit)], None


def _fx_convex(b: JobSet, name: str, frac: float):
    # g(x0, .) is |x0 - .| plus, for x0 above c, a strictly concave bump:
    # condition one fails first at x0 = t_k, x = t_0, y = t_1, lam = 1/4
    grid = Grid1(b.offset(), 2.0 ** -5, 25)
    k = _position(frac, 1, grid.n - 1)
    c = num(grid.t(k) - grid.s / 2)
    g = f"abs(x1-u1) + max(x1 - {c}, 0)*(u1 - {num(grid.o)})*({num(grid.hi)} - u1)"
    doc = _doc(1, g, {"A": grid.box()},
               convex={"exprs": _linear_h(1), "r": [grid.o], "s": [grid.o],
                       "lambda_grid": [0.0, 0.25, 0.5, 0.75, 1.0]})
    cfg = b.config(name, doc)
    wit = {"x0": [grid.t(k)], "x": [grid.t(0)], "y": [grid.t(1)], "lam": 0.25}
    return cfg, ["convex:g"], [_falsified("convex:g", wit)], None


def _fx_starshaped(b: JobSet, name: str, frac: float):
    # H(r, x, l) is pushed below the box for x above c = t_k - s/2:
    # the first escaping interpolant is at x = t_k, lam = 1/4
    grid = Grid1(b.offset(), 2.0 ** -7, 129)
    k = _position(frac, 1, grid.n - 2)
    c = grid.t(k) - grid.s / 2
    h = [f"l*x1 + (1-l)*u1 - l*(1-l)*1024*max(u1 - {num(c)}, 0)"]
    doc = _doc(1, "abs(x1-u1)", {"A": grid.box()},
               convex={"exprs": h, "r": [grid.o], "s": [grid.o],
                       "lambda_grid": [0.0, 0.25, 0.5, 0.75, 1.0]})
    cfg = b.config(name, doc)
    x = grid.t(k)
    image = 0.25 * grid.o + 0.75 * x - 0.25 * 0.75 * 1024 * (x - c)
    wit = {"x": [x], "lam": 0.25, "image": [image]}
    spec = "starshaped:A"
    return cfg, [spec], [_falsified(spec, wit)], STARSHAPED_REPLAY_DEFECT


_FALSIFIERS = (
    ("identity", _fx_identity),
    ("symmetry", _fx_symmetry),
    ("triangle", _fx_triangle),
    ("axioms", _fx_axioms),
    ("banach", _fx_banach),
    ("proximal-weak", _fx_proximal_weak),
    ("berinde", _fx_berinde),
    ("convex", _fx_convex),
    ("starshaped", _fx_starshaped),
    ("semi-sharp", _fx_semi_sharp),
    ("side-condition", _fx_side_condition),
)


# --------------------------------------------------------------------------
# solve


def build_solve(b: JobSet) -> None:
    # picard and power on affine contractions x -> a*x + (1-a)*p with the
    # closed-form fixed point p
    for dim, rate, estimated in ((2, 0.984375, False), (4, 0.984375, False),
                                 (1, 0.5, True)):
        lo = [b.offset() for _ in range(dim)]
        fixed = [v + 0.25 for v in lo]
        start = [v + 1.0 for v in lo]
        n = 257 if estimated else 2
        sets = {"A": {"box": [[v, v + 1.0] for v in lo], "resolution": [n] * dim}}
        g = " + ".join(f"abs(x{i}-u{i})" for i in range(1, dim + 1))
        exprs = [f"{num(rate)}*x{i} + {num((1 - rate) * p)}"
                 for i, p in enumerate(fixed, start=1)]
        doc = _doc(dim, g, sets, maps={"T": {"exprs": exprs, "domain": "A", "codomain": "A"}})
        tag = f"{dim}d-{rate!r}" + ("-estimated" if estimated else "")
        cfg = b.config(f"picard-{tag}", doc)
        point = "(" + ",".join(repr(v) for v in start) + ")"
        alpha = [] if estimated else ["--alpha", repr(rate)]
        b.job(f"solve/picard/{tag}", [cfg], [{
            "argv": ["solve", "--config", cfg, "--scheme", "picard", "--from", point,
                     *alpha, "--json"],
            "exit": 0,
            "expect": {"type": "solve", "verdict": "converged", "final": fixed,
                       "final_tol": 1e-6},
        }])
        if not estimated:
            b.job(f"solve/power/{tag}", [cfg], [{
                "argv": ["solve", "--config", cfg, "--scheme", "power", "--from", point,
                         "--n0", "2", "--alpha", repr(rate * rate), "--json"],
                "exit": 0,
                "expect": {"type": "solve", "verdict": "converged", "final": fixed,
                           "final_tol": 1e-6},
            }])

    # proximal iteration on parallel segments: the best proximity point is
    # the bottom of A, reached by halving grid indices
    for n, gauge in ((385, L1), (513, "sqrt((x1-u1)^2 + (x2-u2)^2)"), (641, L1)):
        grid = Grid1(b.offset(), 2.0 ** -9, n)
        cfg = _parallel_segments(b, f"proximal-{n}", grid, gauge)
        b.job(f"solve/proximal/{n}", [cfg], [{
            "argv": ["solve", "--config", cfg, "--scheme", "proximal",
                     "--from", f"(0.0,{grid.hi!r})", "--json"],
            "exit": 0,
            "expect": {"type": "solve", "verdict": "converged", "final": [0.0, grid.o],
                       "final_tol": 0.0, "max_steps": (n - 1).bit_length() + 2,
                       "proximity_level": 1.0},
        }])

    # the staged scheme on a small reflection instance: its convex battery
    # is a minor share of the workload
    for n, lams in ((5, 5), (5, 9)):
        o1, c = b.offset(), b.offset()
        half = 2.0 ** -2
        doc = _doc(2, "x2 - u2", {
            "A": {"box": [[o1, o1], [c - half, c]], "resolution": [1, n]},
            "B": {"box": [[o1, o1], [c, c + half]], "resolution": [1, n]},
        }, maps={"f": {"exprs": ["x1", f"{num(2 * c)} - x2"], "domain": "A", "codomain": "B"}},
            convex={"exprs": _linear_h(2), "r": [o1, c], "s": [o1, c],
                    "lambda_grid": [i / (lams - 1) for i in range(lams)]},
            schedule={"rule": "harmonic", "stages": 10})
        cfg = b.config(f"berinde-{n}-{lams}", doc)
        b.job(f"solve/berinde/{n}-lambdas{lams}", [cfg], [{
            "argv": ["solve", "--config", cfg, "--scheme", "berinde", "--json"],
            "exit": 0,
            "expect": {"type": "solve", "verdict": "converged", "final": [o1, c],
                       "final_tol": 0.0, "hypotheses_passed": True},
        }])


_MAKERS = {
    "fixtures": build_fixtures,
    "verify-holds": build_verify_holds,
    "verify-falsify": build_verify_falsify,
    "solve": build_solve,
}


def make_jobs(workload: str, seed: int) -> tuple[dict[str, dict], list[dict]]:
    """The configs (file name -> document) and the ordered job list."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    b = JobSet(workload, seed)
    _MAKERS[workload](b)
    b.rng.shuffle(b.jobs)
    return b.configs, b.jobs


def write_jobs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's configs into workdir; returns the job list."""
    configs, jobs = make_jobs(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    for fname, doc in configs.items():
        with open(os.path.join(workdir, fname), "w") as fh:
            json.dump(doc, fh, indent=1)
    return jobs
