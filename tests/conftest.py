"""Shared test helpers: a seeded random expression generator, an
independent tree-walking oracle used to cross-check evaluation, and one run
of the fixture suite shared by the tests that read it."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from types import SimpleNamespace

import pytest

from gproxim.expr import Binary, Expr, Num, Unary, Var


@pytest.fixture(scope="session")
def fixture_suite():
    """One run of `gproxim fixtures "*"`: its exit code, stdout, wall time,
    the reports the command printed, by fixture name, and by fixture name the
    contraction rows it built (see counting_builds)."""
    from gproxim import cli, fixtures

    real, printed, out = cli.run_fixtures, [], io.StringIO()
    real_fixture, builds = fixtures.run_fixture, {}

    def recording(pattern):
        printed.extend(real(pattern))
        return printed

    def fixture(name):
        built[:] = []
        report = real_fixture(name)
        builds[name] = built[:]
        return report

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "run_fixtures", recording)
        mp.setattr(fixtures, "run_fixture", fixture)
        built = counting_builds(mp)
        t0 = time.perf_counter()
        code = cli.main(["fixtures", "*"])
        elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        code=code, out=out.getvalue(), elapsed=elapsed,
        reports={rep.name: rep for rep in printed}, builds=builds,
    )


def reflection_doc() -> dict:
    """The berinde-reflection fixture's config with both sets at resolution
    11 instead of 201."""
    from gproxim.fixtures import fixture_config_path

    doc = json.loads(fixture_config_path("berinde-reflection").read_text())
    for spec in doc["sets"].values():
        spec["resolution"] = [1, 11]
    return doc


def solve_berinde(config: str, *argv: str):
    """The BerindeResult of `gproxim solve --config <config> --scheme
    berinde <argv>`, run as the command runs it."""
    from gproxim import cli
    from gproxim.config import load_instance

    args = cli.build_parser().parse_args(
        ["solve", "--config", config, "--scheme", "berinde", *argv]
    )
    return cli.solve(load_instance(config), args)[1]


def counting_builds(monkeypatch) -> list:
    """Every build of contraction rows (properties._BanachRows and
    _ProximalRows) from now on, in order, named by its key: ("banach",
    gauge, map, seed) or ("proximal", gauge, map, A, B, N, seed).  A build
    that raises is counted too.  N is its repr, as in the rows' key, which
    tells -0.0 from 0.0."""
    from gproxim.properties import _BanachRows, _ProximalRows

    built, banach, proximal = [], _BanachRows.__init__, _ProximalRows.__init__

    def banach_rows(self, g, t, seed):
        built.append(("banach", g.name, t.name, seed))
        banach(self, g, t, seed)

    def proximal_rows(self, f, n_cap, core, seed):
        built.append(("proximal", core.g.name, f.name, core.a.name, core.b.name,
                      repr(n_cap), seed))
        proximal(self, f, n_cap, core, seed)

    monkeypatch.setattr(_BanachRows, "__init__", banach_rows)
    monkeypatch.setattr(_ProximalRows, "__init__", proximal_rows)
    return built


def write_config(tmp_path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def reference_indices(n: int, arity: int, cap: int, seed: int) -> list[int]:
    """The indices a box scan of arity-tuples under cap reads out of n
    points, written out apart from gspace._capped: all of them while n **
    arity <= cap, else m = max(2, floor(cap ** (1 / arity))) of them, by even
    strides with both ends at seed 0 and by a seeded random sample
    otherwise."""
    if n ** arity <= cap:
        return list(range(n))
    m = max(2, int(cap ** (1 / arity)))
    if seed == 0:
        return sorted({round(i * (n - 1) / (m - 1)) for i in range(m)})
    return sorted(random.Random(seed).sample(range(n), m))


VAR_POOL = ("x1", "x2", "u1", "u2", "l")

_BINARY_OPS = ("add", "sub", "mul", "div", "pow", "min", "max")
_UNARY_OPS = ("neg", "abs", "sqrt")


def random_expr(rng: random.Random, depth: int) -> Expr:
    """A random tree of depth at most `depth` with non-negative literals."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice(VAR_POOL))
        choice = rng.random()
        if choice < 0.5:
            return Num(float(rng.randint(0, 9)))
        if choice < 0.8:
            return Num(rng.randint(1, 16) / 8.0)
        return Num(round(rng.uniform(0.0, 4.0), 3))
    if rng.random() < 0.25:
        return Unary(rng.choice(_UNARY_OPS), random_expr(rng, depth - 1))
    op = rng.choice(_BINARY_OPS)
    left = random_expr(rng, depth - 1)
    if op == "pow" and rng.random() < 0.8:
        right: Expr = Num(float(rng.randint(0, 3)))
    else:
        right = random_expr(rng, depth - 1)
    return Binary(op, left, right)


def random_env(rng: random.Random) -> dict[str, float]:
    return {
        name: rng.choice([-2.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
        for name in VAR_POOL
    }


class OracleError(Exception):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(kind)


def oracle_eval(e: Expr, env: dict[str, float]) -> float:
    """Reference evaluator kept independent of the library implementation."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise OracleError("unbound-variable")
        return env[e.name]
    if isinstance(e, Unary):
        v = oracle_eval(e.operand, env)
        if e.op == "neg":
            return 0.0 - v
        if e.op == "abs":
            return v if v >= 0 else -v
        if v < 0:
            raise OracleError("sqrt-of-negative")
        return math.sqrt(v)
    a = oracle_eval(e.left, env)
    b = oracle_eval(e.right, env)
    if e.op == "add":
        return a + b
    if e.op == "sub":
        return a - b
    if e.op == "mul":
        return a * b
    if e.op == "div":
        if b == 0:
            raise OracleError("division-by-zero")
        return a / b
    if e.op == "min":
        return a if a <= b else b
    if e.op == "max":
        return a if a >= b else b
    if e.op == "pow":
        if a == 0 and b < 0:
            raise OracleError("division-by-zero")
        if a < 0 and b != int(b):
            raise OracleError("fractional-power-of-negative")
        try:
            return math.pow(a, b)
        except OverflowError:
            raise OracleError("non-finite") from None
    raise AssertionError(e.op)


def rel_close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
