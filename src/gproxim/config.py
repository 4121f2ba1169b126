"""Instance configuration: a JSON document describing one concrete problem.

A config names a dimension, the gauge expression "g" (plus optional extra
gauges under "functions"), sample sets (exact point lists or boxes with a
resolution), maps with domain and codomain set names, an optional convex
structure with its two centres, tolerance overrides and an optional stage
schedule.  Loading resolves defaults (in particular the half-grid-step
proximity band for discretised instances), so a loaded instance serialises
back to an equivalent document.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from .expr import ParseError
from .gspace import (
    MAX_TUPLES,
    ConvexStructure,
    GFunction,
    GSpaceError,
    Point,
    ProximalCore,
    SampleSet,
    ToleranceError,
    ToleranceSet,
    proximal_core,
)
from .properties import MapSpec
from .solvers import Schedule

__all__ = ["ConfigError", "Instance", "ConvexBlock", "load_instance", "instance_from_dict"]


class ConfigError(ValueError):
    """A config document failed to load; carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class ConvexBlock:
    h: ConvexStructure
    r: Point
    s: Point
    lambda_grid: tuple[float, ...]


@dataclass
class Instance:
    """A fully materialised config: gauges, sets, maps, convex data, tolerances."""

    dimension: int
    gauges: dict[str, GFunction]
    sets: dict[str, SampleSet]
    maps: dict[str, MapSpec]
    convex: Optional[ConvexBlock]
    tol: ToleranceSet
    schedule: Optional[Schedule]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def g(self) -> GFunction:
        return self.gauges["g"]

    def gauge(self, name: str) -> GFunction:
        try:
            return self.gauges[name]
        except KeyError:
            raise ConfigError("functions", f"unknown gauge {name!r}") from None

    def set_(self, name: str) -> SampleSet:
        try:
            return self.sets[name]
        except KeyError:
            raise ConfigError("sets", f"unknown set {name!r}") from None

    def memo(self, key, build: Callable[[], Any]):
        """build(), computed once per instance under key; a build that raises
        is not stored, so the next ask raises the same error.  Every check
        and solve run on a loaded instance, as in one command, shares the
        proximity cores (see core) and the contraction rows (cli._Spec.rows)
        kept here, and the memo lives as long as the instance."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def core(self, g: GFunction, a: SampleSet, b: SampleSet) -> ProximalCore:
        """The proximity core of (g, a, b) under the instance's tolerances,
        computed once per instance (see memo).  The sets are keyed by
        identity, since hashing a SampleSet hashes each of its Points, and
        kept alive beside the core, so that no other set takes their ids."""
        key = (g, id(a), id(b), self.tol)
        return self.memo(key, lambda: (a, b, proximal_core(g, a, b, self.tol)))[2]

    def map_(self, name: Optional[str] = None) -> MapSpec:
        if name is None:
            if len(self.maps) != 1:
                raise ConfigError(
                    "maps",
                    "a map name is required unless the config defines exactly one",
                )
            return next(iter(self.maps.values()))
        try:
            return self.maps[name]
        except KeyError:
            raise ConfigError("maps", f"unknown map {name!r}") from None

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {"dimension": self.dimension, "g": str(self.g.expr)}
        extra = {k: str(v.expr) for k, v in self.gauges.items() if k != "g"}
        if extra:
            doc["functions"] = extra
        sets = {}
        for name, s in self.sets.items():
            if s.mode == "box":
                sets[name] = {
                    "box": [list(iv) for iv in s.box],
                    "resolution": list(s.resolution),
                }
            else:
                sets[name] = {"points": [list(p.coords) for p in s.points]}
        doc["sets"] = sets
        if self.maps:
            doc["maps"] = {
                name: {
                    "exprs": [str(e) for e in m.exprs],
                    "domain": m.domain.name,
                    "codomain": m.codomain.name,
                }
                for name, m in self.maps.items()
            }
        if self.convex is not None:
            doc["convex"] = {
                "exprs": [str(e) for e in self.convex.h.exprs],
                "r": list(self.convex.r.coords),
                "s": list(self.convex.s.coords),
                "lambda_grid": list(self.convex.lambda_grid),
            }
        doc["tolerances"] = {
            "eps_prox": self.tol.eps_prox,
            "eps_zero": self.tol.eps_zero,
            "eps_ineq": self.tol.eps_ineq,
            "tail_len": self.tol.tail_len,
        }
        if self.schedule is not None:
            doc["schedule"] = {"values": list(self.schedule.values)}
        return doc

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self.to_dict() == other.to_dict()


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    return value


def _require(doc: Any, key: str, path: str):
    if key not in _object(doc, path):
        raise ConfigError(path, f"missing required key {key!r}")
    return doc[key]


def _text(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected an expression string, got {value!r}")
    return value


def _texts(values: Any, path: str) -> list[str]:
    if not isinstance(values, list):
        raise ConfigError(path, "expected a list of expression strings")
    return [_text(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _is_number(value: Any) -> bool:
    """An int or a float; float() would also take a boolean or a numeric
    string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _double(value: Any, path: str) -> float:
    """float(value), for an int too large for a double a ConfigError."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(path, "integer too large for a double") from None


def _number(value: Any, path: str) -> float:
    if not _is_number(value):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return _double(value, path)


def _floats(values: Any, path: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or not all(map(_is_number, values)):
        raise ConfigError(path, f"expected a list of numbers, got {values!r}")
    return tuple(_double(v, path) for v in values)


def _whole(value: Any, path: str) -> int:
    """An int that a double can hold, or a float without a fraction part; a
    boolean is refused, although float(True) is 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(path, f"expected a whole number, got {value!r}")
    _double(value, path)
    return int(value)


def _shown(n: Union[int, float]) -> Union[int, float]:
    """A count as a message gives it: below 2**53 as an int, else as its
    double (1e+308), not as the int of its hundreds of digits."""
    return int(n) if n < 2 ** 53 else float(n)


def _count(value: Any, path: str) -> int:
    """_whole(value) as a count of items to build: above MAX_TUPLES, the
    most tuples a scan reads, a ConfigError, raised before any is built."""
    n = _whole(value, path)
    if n > MAX_TUPLES:
        raise ConfigError(path, f"must be at most {MAX_TUPLES}, got {_shown(n)!r}")
    return n


def _ints(values: Any, path: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ConfigError(path, f"expected a list of whole numbers, got {values!r}")
    return tuple(_whole(v, path) for v in values)


def _point(row: Any, dimension: int, path: str) -> Point:
    """A point row: a list of dimension numbers, each finite."""
    if not isinstance(row, list) or len(row) != dimension:
        raise ConfigError(path, f"expected {dimension} coordinates")
    try:
        return Point(_floats(row, path))
    except GSpaceError as exc:
        raise ConfigError(path, str(exc)) from None


def _named(section: str, name: str) -> str:
    """The path of a named entry, whose name a check spec
    ("kind:name:key=value") must be able to hold."""
    path = f"{section}.{name}"
    if ":" in name or "=" in name:
        raise ConfigError(path, "a name holding ':' or '=' cannot appear in a check spec")
    return path


def _load_set(name: str, spec: Any, dimension: int) -> SampleSet:
    path = _named("sets", name)
    if "points" in _object(spec, path):
        pts = spec["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError(path, "points must be a non-empty list")
        rows = [_point(row, dimension, f"{path}.points[{i}]") for i, row in enumerate(pts)]
        try:
            return SampleSet(points=tuple(rows), name=name)
        except GSpaceError as exc:
            raise ConfigError(path, str(exc)) from None
    if "box" in spec:
        box = spec["box"]
        if not isinstance(box, list) or len(box) != dimension:
            raise ConfigError(f"{path}.box", f"expected {dimension} intervals")
        intervals = []
        for i, iv in enumerate(box):
            if not isinstance(iv, list) or len(iv) != 2:
                raise ConfigError(f"{path}.box[{i}]", "expected [lo, hi] with lo <= hi")
            lo, hi = _floats(iv, f"{path}.box[{i}]")
            if lo > hi:
                raise ConfigError(f"{path}.box[{i}]", "expected [lo, hi] with lo <= hi")
            intervals.append((lo, hi))
        resolution = spec.get("resolution", 101)
        if isinstance(resolution, list):
            resolution = _ints(resolution, f"{path}.resolution")
        else:
            resolution = _whole(resolution, f"{path}.resolution")
        sizes = resolution if isinstance(resolution, tuple) else tuple(
            resolution if lo != hi else 1 for lo, hi in intervals)  # as grid sizes its axes
        # No tuple holds more than sys.maxsize points.  Building such a grid,
        # if grid takes every axis (a valid size, a finite span), ends in a
        # MemoryError, so it is refused unbuilt with the same error
        if math.prod(sizes) > sys.maxsize and len(sizes) == len(intervals) and all(
                n > 1 and math.isfinite(hi - lo) or n == 1 and lo == hi
                for (lo, hi), n in zip(intervals, sizes)):
            raise _unbuilt(path, sizes)
        try:
            return SampleSet.grid(intervals, resolution, name=name)
        except GSpaceError as exc:
            raise ConfigError(path, str(exc)) from None
        except MemoryError:  # SampleSet.grid builds every point
            raise _unbuilt(path, sizes) from None
    raise ConfigError(path, "expected either 'points' or 'box'")


def _unbuilt(path: str, sizes: tuple[int, ...]) -> ConfigError:
    """The error of the set at path, a grid of the given axis sizes too
    large for memory."""
    count = _shown(math.prod(map(float, sizes)))
    return ConfigError(f"{path}.resolution", f"a grid of {count} points does not fit in memory")


def instance_from_dict(doc: dict) -> Instance:
    """Materialise a config document, resolving tolerance defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "config root must be an object")
    dimension = _count(_require(doc, "dimension", "$"), "dimension")
    if dimension < 1:
        raise ConfigError("dimension", "must be a positive integer")

    gauges: dict[str, GFunction] = {}
    g_text = _require(doc, "g", "$")
    try:
        gauges["g"] = GFunction(_text(g_text, "g"), dimension, name="g")
    except (ParseError, GSpaceError) as exc:
        raise ConfigError("g", str(exc)) from None
    for name, text in _object(doc.get("functions") or {}, "functions").items():
        path = _named("functions", name)
        if name == "g":
            raise ConfigError(path, "the name 'g' is taken by the main gauge")
        try:
            gauges[name] = GFunction(_text(text, path), dimension, name=name)
        except (ParseError, GSpaceError) as exc:
            raise ConfigError(path, str(exc)) from None

    sets = {
        name: _load_set(name, spec, dimension)
        for name, spec in _object(_require(doc, "sets", "$") or {}, "sets").items()
    }
    if not sets:
        raise ConfigError("sets", "at least one sample set is required")

    maps: dict[str, MapSpec] = {}
    for name, spec in _object(doc.get("maps") or {}, "maps").items():
        path = _named("maps", name)
        exprs = _texts(_require(spec, "exprs", path), f"{path}.exprs")
        ends = {key: _require(spec, key, path) for key in ("domain", "codomain")}
        for key, sname in ends.items():
            if not isinstance(sname, str):
                raise ConfigError(f"{path}.{key}", f"expected a set name, got {sname!r}")
            if sname not in sets:
                raise ConfigError(path, f"unknown set {sname!r}")
        try:
            maps[name] = MapSpec(
                exprs, sets[ends["domain"]], sets[ends["codomain"]], name=name
            )
        except (ParseError, GSpaceError) as exc:
            raise ConfigError(path, str(exc)) from None

    convex: Optional[ConvexBlock] = None
    if doc.get("convex"):
        spec = doc["convex"]
        try:
            h = ConvexStructure(
                tuple(_texts(_require(spec, "exprs", "convex"), "convex.exprs"))
            )
        except (ParseError, GSpaceError) as exc:
            raise ConfigError("convex.exprs", str(exc)) from None
        if h.dimension != dimension:
            raise ConfigError("convex.exprs", "one expression per coordinate")
        r = _point(_require(spec, "r", "convex"), dimension, "convex.r")
        s = _point(_require(spec, "s", "convex"), dimension, "convex.s")
        lams = spec.get("lambda_grid", 11)
        if isinstance(lams, int):
            if _double(lams, "convex.lambda_grid") < 2:
                raise ConfigError("convex.lambda_grid", "need at least 2 values")
            grid = tuple(i / (lams - 1) for i in range(_count(lams, "convex.lambda_grid")))
        else:
            grid = _floats(lams, "convex.lambda_grid")
        if 0.0 not in grid or 1.0 not in grid:
            raise ConfigError("convex.lambda_grid", "grid must include 0 and 1")
        if not all(0.0 <= lam <= 1.0 for lam in grid):
            raise ConfigError("convex.lambda_grid", "values must lie in [0, 1]")
        convex = ConvexBlock(h, r, s, grid)

    tol_spec = dict(_object(doc.get("tolerances") or {}, "tolerances"))
    tail_len = _whole(tol_spec.get("tail_len", 10), "tolerances.tail_len")
    if "eps_prox" not in tol_spec:
        steps = [
            s.grid_step() for s in sets.values() if s.grid_step() is not None
        ]
        tol_spec["eps_prox"] = min(steps) / 2.0 if steps else 1e-9
    eps = {
        key: _number(tol_spec.get(key, 1e-9), f"tolerances.{key}")
        for key in ("eps_prox", "eps_zero", "eps_ineq")
    }
    try:
        tol = ToleranceSet(**eps, tail_len=tail_len)
    except ToleranceError as exc:
        raise ConfigError(f"tolerances.{exc.field}", exc.reason) from None

    schedule: Optional[Schedule] = None
    if doc.get("schedule"):
        spec = _object(doc["schedule"], "schedule")
        try:
            if "values" in spec:
                schedule = Schedule(_floats(spec["values"], "schedule.values"))
            else:
                rule = spec.get("rule", "harmonic")
                if rule != "harmonic":
                    raise ConfigError("schedule.rule", f"unknown rule {rule!r}")
                schedule = Schedule.harmonic(_count(spec.get("stages", 10), "schedule.stages"))
        except GSpaceError as exc:
            raise ConfigError("schedule", str(exc)) from None

    return Instance(
        dimension=dimension,
        gauges=gauges,
        sets=sets,
        maps=maps,
        convex=convex,
        tol=tol,
        schedule=schedule,
    )


def load_instance(path: Union[str, "object"]) -> Instance:
    """Load a config document from a JSON file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                str(path), f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
    return instance_from_dict(doc)
