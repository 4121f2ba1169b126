import json

import pytest

from gproxim.config import ConfigError, instance_from_dict, load_instance
from gproxim.fixtures import fixture_config_path, fixture_names
from gproxim.gspace import Point, SampleSet, proximal_core
from gproxim.properties import qualifying_pairs


def minimal_doc():
    return {
        "dimension": 1,
        "g": "x1 - u1",
        "sets": {"X": {"box": [[0, 1]], "resolution": [11]}},
    }


class TestLoading:
    def test_minimal(self):
        inst = instance_from_dict(minimal_doc())
        assert inst.dimension == 1
        assert inst.g.name == "g"
        assert len(inst.set_("X")) == 11

    def test_grid_tolerance_defaults_to_half_step(self):
        inst = instance_from_dict(minimal_doc())
        assert inst.tol.eps_prox == pytest.approx(0.05)

    def test_exact_sets_default_to_tight_band(self):
        doc = minimal_doc()
        doc["sets"] = {"X": {"points": [[0], [1]]}}
        assert instance_from_dict(doc).tol.eps_prox == 1e-9

    def test_explicit_tolerances_win(self):
        doc = minimal_doc()
        doc["tolerances"] = {"eps_prox": 1e-6}
        assert instance_from_dict(doc).tol.eps_prox == 1e-6

    def test_maps_and_convex_and_schedule(self):
        doc = {
            "dimension": 2,
            "g": "x2 - u2",
            "sets": {
                "A": {"box": [[0, 0], [-1, 0]], "resolution": [1, 11]},
                "B": {"box": [[0, 0], [0, 1]], "resolution": [1, 11]},
            },
            "maps": {"f": {"exprs": ["x1", "-x2"], "domain": "A", "codomain": "B"}},
            "convex": {
                "exprs": ["l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"],
                "r": [0, 0], "s": [0, 0], "lambda_grid": 5,
            },
            "schedule": {"rule": "harmonic", "stages": 3},
        }
        inst = instance_from_dict(doc)
        assert inst.map_("f").apply(Point((0.0, -1.0))) == Point((0.0, 1.0))
        assert inst.map_() is inst.map_("f")  # unique map needs no name
        assert inst.convex.lambda_grid == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert inst.schedule.values == (0.5, 1 / 3, 0.25)


class TestErrors:
    @pytest.mark.parametrize(
        "mutate,path_fragment",
        [
            (lambda d: d.pop("dimension"), "$"),
            (lambda d: d.pop("g"), "$"),
            (lambda d: d.update(g="x1 +"), "g"),
            (lambda d: d.update(g="x9 - u1"), "g"),
            (lambda d: d.update(sets={}), "sets"),
            (lambda d: d["sets"].update(Y={"points": []}), "sets.Y"),
            (lambda d: d["sets"].update(Y={"points": [[0, 1]]}), "sets.Y"),
            (lambda d: d["sets"].update(Y={"box": [[1, 0]]}), "sets.Y"),
            (
                lambda d: d.update(
                    maps={"f": {"exprs": ["x1"], "domain": "NOPE", "codomain": "X"}}
                ),
                "maps.f",
            ),
            (lambda d: d.update(tolerances={"eps_prox": -1}), "tolerances"),
            (lambda d: d.update(schedule={"values": [0.5, 0.7]}), "schedule"),
            (lambda d: d.update(convex={"exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [0],
                                        "lambda_grid": [0, 1, 2]}),
             "convex.lambda_grid: values must lie in [0, 1]"),
            (lambda d: d.update(convex={"exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [0],
                                        "lambda_grid": [-0.5, 0, 1]}),
             "convex.lambda_grid: values must lie in [0, 1]"),
            (lambda d: d.update(functions={"g": "0*x1"}), "functions.g"),
            (lambda d: d.update(convex={"exprs": ["l*x1 + (1-l)*u1"], "r": [0, 0], "s": [0]}),
             "convex.r: expected 1 coordinates"),
            (lambda d: d.update(convex={"exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [0, 0]}),
             "convex.s: expected 1 coordinates"),
            (lambda d: d.update(dimension=2, g="x1 - u1", sets={"X": {"points": [[0, 0]]}},
                                convex={"exprs": ["l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"],
                                        "r": [0], "s": [0, 0]}),
             "convex.r: expected 2 coordinates"),
            (lambda d: d.update(convex={"exprs": ["l*x1 + (1-l)*u1"], "r": [float("nan")],
                                        "s": [0]}),
             "convex.r: non-finite coordinates"),
            (lambda d: d.update(convex={"exprs": ["l*x1 + (1-l)*u1"], "r": [0],
                                        "s": [float("inf")]}),
             "convex.s: non-finite coordinates"),
        ],
    )
    def test_bad_documents_carry_a_path(self, mutate, path_fragment):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            instance_from_dict(doc)
        assert path_fragment in str(err.value)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 1,,}')
        with pytest.raises(ConfigError) as err:
            load_instance(path)
        assert "line" in str(err.value)

    def test_lambda_grid_must_include_endpoints(self):
        doc = minimal_doc()
        doc["convex"] = {
            "exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [0],
            "lambda_grid": [0.0, 0.5],
        }
        with pytest.raises(ConfigError):
            instance_from_dict(doc)


    def test_lambda_grid_takes_minus_zero_as_its_zero(self):
        doc = minimal_doc()
        doc["convex"] = {
            "exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [0],
            "lambda_grid": [-0.0, 0.5, 1.0],
        }
        assert instance_from_dict(doc).convex.lambda_grid == (-0.0, 0.5, 1.0)


class TestRoundTrip:
    @pytest.mark.parametrize("name", fixture_names())
    def test_every_shipped_config_round_trips(self, name, tmp_path):
        inst = load_instance(fixture_config_path(name))
        out = tmp_path / "rt.json"
        out.write_text(json.dumps(inst.to_dict(), indent=2))
        again = load_instance(out)
        assert again == inst
        assert again.to_dict() == inst.to_dict()

    def test_synthetic_round_trip(self):
        inst = instance_from_dict(minimal_doc())
        assert instance_from_dict(inst.to_dict()) == inst

    def test_a_gauge_with_an_infinite_literal_round_trips(self):
        doc = dict(minimal_doc(), g="abs(x1-u1) + 0*1e999")
        inst = instance_from_dict(doc)
        assert inst.to_dict()["g"] == "(abs((x1-u1))+(0*1e999))"
        assert instance_from_dict(inst.to_dict()) == inst


def test_only_outside_input_is_checked_point_by_point(monkeypatch):
    """A box's points are checked per axis, map images as they are computed,
    and a core's subsets and the qualifying subsample are subsets of checked
    sets: none of them goes through the checks of Point or SampleSet.  A
    points row and a set of them do."""
    checked = []
    for cls in (Point, SampleSet):
        def spy(self, check=cls.__post_init__):
            checked.append(self.points if isinstance(self, SampleSet) else self.coords)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    doc = {
        "dimension": 2,
        "g": "abs(x1 - u1) + abs(x2 - u2)",
        "sets": {"A": {"box": [[0, 1], [-1, 1]], "resolution": [41, 51]},
                 "B": {"box": [[2, 3], [0, 1]], "resolution": [5, 3]}},
        "maps": {"T": {"exprs": ["x1/2 + 2", "-x2/2"], "domain": "A", "codomain": "B"}},
    }
    inst = instance_from_dict(doc)
    assert checked == []
    a, b, t = inst.set_("A"), inst.set_("B"), inst.map_("T")
    images = [t.apply(p) for p in a]
    assert checked == [] and images[0].coords == (2.0, 0.5)
    core = proximal_core(inst.g, a, b, inst.tol)
    assert checked == [] and len(core.a_g) > 0 and len(core.b_g) > 0
    assert len(a) > 2000 and qualifying_pairs(t, core)  # over a subsample of A
    assert checked == []
    doc["sets"]["C"] = {"points": [[0, 0], [1, 0], [0.5, -1]]}
    c = instance_from_dict(doc).set_("C")
    rows = [(0.0, 0.0), (1.0, 0.0), (0.5, -1.0)]
    assert checked == [*rows, c.points] and c.coords == rows


def test_a_grid_too_large_for_memory_names_its_resolution(monkeypatch):
    """A MemoryError from building a box grid is a ConfigError on the set's
    resolution, with the grid's point count: an axis whose interval is one
    point holds one point, whatever the resolution."""
    def full(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(SampleSet, "grid", full)
    doc = {"dimension": 3, "g": "abs(x1-u1)",
           "sets": {"A": {"box": [[0, 1], [2, 2], [0, 1]], "resolution": 10 ** 5}}}
    with pytest.raises(ConfigError) as err:
        instance_from_dict(doc)
    assert str(err.value) == (
        "sets.A.resolution: a grid of 10000000000 points does not fit in memory")
