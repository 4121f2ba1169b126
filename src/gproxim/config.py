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
from dataclasses import dataclass
from typing import Any, Optional, Union

from .expr import ParseError
from .gspace import (
    ConvexStructure,
    GFunction,
    GSpaceError,
    Point,
    SampleSet,
    ToleranceError,
    ToleranceSet,
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
    """An int, or a float without a fraction part; a boolean is refused,
    although float(True) is 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(path, f"expected a whole number, got {value!r}")
    return int(value)


def _ints(values: Any, path: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ConfigError(path, f"expected a list of whole numbers, got {values!r}")
    return tuple(_whole(v, path) for v in values)


def _load_set(name: str, spec: Any, dimension: int) -> SampleSet:
    path = f"sets.{name}"
    if "points" in _object(spec, path):
        pts = spec["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError(path, "points must be a non-empty list")
        rows = []
        for i, row in enumerate(pts):
            if not isinstance(row, list) or len(row) != dimension:
                raise ConfigError(
                    f"{path}.points[{i}]", f"expected {dimension} coordinates"
                )
            rows.append(_floats(row, f"{path}.points[{i}]"))
        try:
            return SampleSet.from_points(rows, name=name)
        except GSpaceError as exc:
            raise ConfigError(path, str(exc)) from None
    if "box" in spec:
        box = spec["box"]
        if not isinstance(box, list) or len(box) != dimension:
            raise ConfigError(f"{path}.box", f"expected {dimension} intervals")
        for i, iv in enumerate(box):
            if not isinstance(iv, list) or len(iv) != 2:
                raise ConfigError(f"{path}.box[{i}]", "expected [lo, hi] with lo <= hi")
            lo, hi = _floats(iv, f"{path}.box[{i}]")
            if lo > hi:
                raise ConfigError(f"{path}.box[{i}]", "expected [lo, hi] with lo <= hi")
        resolution = spec.get("resolution", 101)
        if isinstance(resolution, list):
            resolution = _ints(resolution, f"{path}.resolution")
        else:
            resolution = _whole(resolution, f"{path}.resolution")
        try:
            return SampleSet.grid(
                [tuple(iv) for iv in box], resolution, name=name
            )
        except GSpaceError as exc:
            raise ConfigError(path, str(exc)) from None
    raise ConfigError(path, "expected either 'points' or 'box'")


def instance_from_dict(doc: dict) -> Instance:
    """Materialise a config document, resolving tolerance defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "config root must be an object")
    dimension = _whole(_require(doc, "dimension", "$"), "dimension")
    if dimension < 1:
        raise ConfigError("dimension", "must be a positive integer")

    gauges: dict[str, GFunction] = {}
    g_text = _require(doc, "g", "$")
    try:
        gauges["g"] = GFunction(_text(g_text, "g"), dimension, name="g")
    except (ParseError, GSpaceError) as exc:
        raise ConfigError("g", str(exc)) from None
    for name, text in _object(doc.get("functions") or {}, "functions").items():
        try:
            gauges[name] = GFunction(
                _text(text, f"functions.{name}"), dimension, name=name
            )
        except (ParseError, GSpaceError) as exc:
            raise ConfigError(f"functions.{name}", str(exc)) from None

    sets = {
        name: _load_set(name, spec, dimension)
        for name, spec in _object(_require(doc, "sets", "$") or {}, "sets").items()
    }
    if not sets:
        raise ConfigError("sets", "at least one sample set is required")

    maps: dict[str, MapSpec] = {}
    for name, spec in _object(doc.get("maps") or {}, "maps").items():
        path = f"maps.{name}"
        exprs = _texts(_require(spec, "exprs", path), f"{path}.exprs")
        dom_name = _require(spec, "domain", path)
        cod_name = _require(spec, "codomain", path)
        for sname in (dom_name, cod_name):
            if sname not in sets:
                raise ConfigError(path, f"unknown set {sname!r}")
        try:
            maps[name] = MapSpec(
                exprs, sets[dom_name], sets[cod_name], name=name
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
        r = Point(_floats(_require(spec, "r", "convex"), "convex.r"))
        s = Point(_floats(_require(spec, "s", "convex"), "convex.s"))
        lams = spec.get("lambda_grid", 11)
        if isinstance(lams, int):
            if lams < 2:
                raise ConfigError("convex.lambda_grid", "need at least 2 values")
            grid = tuple(i / (lams - 1) for i in range(lams))
        else:
            grid = _floats(lams, "convex.lambda_grid")
        if 0.0 not in grid or 1.0 not in grid:
            raise ConfigError("convex.lambda_grid", "grid must include 0 and 1")
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
                schedule = Schedule.harmonic(
                    _whole(spec.get("stages", 10), "schedule.stages")
                )
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
