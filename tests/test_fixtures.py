import json
from pathlib import Path

import pytest

from gproxim.fixtures import (
    fixture_names,
    load_fixture_instance,
    run_fixture,
    run_fixtures,
)

EXPECTED_NAMES = {
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
}


def test_registry_is_complete():
    assert set(fixture_names()) == EXPECTED_NAMES
    assert len(fixture_names()) == 11


GOLDEN = {
    entry["name"]: [
        (e["label"], e["provenance"], e["passed"], e["detail"])
        for e in entry["expectations"]
    ]
    for entry in json.loads(
        (Path(__file__).parent / "data" / "fixtures_report.json").read_text()
    )["fixtures"]
}


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_fixture_passes_on_default_tolerances(name):
    report = run_fixture(name)
    failing = [o for o in report.outcomes if not o.passed]
    assert not failing, failing
    got = [(o.label, o.provenance, o.passed, o.detail) for o in report.outcomes]
    assert got == GOLDEN[name]


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        run_fixture("does-not-exist")


def test_glob_filtering():
    assert [r.name for r in run_fixtures("finite-*")] == ["finite-sets"]
    assert run_fixtures("zzz-*") == []


def test_provenance_tags_present():
    report = run_fixture("finite-sets")
    tags = {o.provenance.split(":")[0] for o in report.outcomes}
    assert "reference" in tags and "derived" in tags and "trivial" in tags
    derived = [o for o in report.outcomes if o.provenance.startswith("derived:")]
    assert all(len(o.provenance.split(":", 1)[1]) > 0 for o in derived)


def test_instances_load_independently():
    inst = load_fixture_instance("segment-bpp")
    assert inst.dimension == 2
    assert set(inst.sets) == {"A", "B"}
