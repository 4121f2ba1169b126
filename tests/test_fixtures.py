import json
import math
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
def test_fixture_passes_on_default_tolerances(name, fixture_suite):
    report = fixture_suite.reports[name]
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


def test_text_report_matches_the_golden_file(fixture_suite):
    assert fixture_suite.code == 0
    golden = Path(__file__).parent / "data" / "fixtures_report.txt"
    assert fixture_suite.out.encode() == golden.read_bytes()


@pytest.mark.parametrize("name, label, want, detail, count", [
    ("g-closed-halfline", "the limit 1/2 belongs to the half line", False,
     "member is True", 4),
    ("segment-bpp", "uniqueness precondition 1 - beta - N = 1/2 > 0 and one seed only",
     {"a_g": lambda got: len(got) == 2}, "a_g is [(1.0, 0.0)]", 3),
], ids=["value", "predicate"])
def test_a_wrong_expectation_fails_the_fixtures_command(
    name, label, want, detail, count, monkeypatch, capsys
):
    from gproxim import fixtures
    from gproxim.cli import main

    rows = list(fixtures._TABLE[name])
    [i] = [k for k, row in enumerate(rows) if row[0] == label]
    rows[i] = (*rows[i][:3], want)
    monkeypatch.setitem(fixtures._TABLE, name, tuple(rows))
    assert main(["fixtures", name]) == 1
    out = capsys.readouterr().out.splitlines()
    k = out.index(f"FAIL  {name}  {label}  [reference]")
    assert out[k + 1] == f"      {detail}"
    assert out[-1] == f"1 fixtures, {count} expectations, FAILURES PRESENT"
    assert sum(line.startswith("FAIL") for line in out) == 1

    assert main(["fixtures", name, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False and doc["fixtures"][0]["passed"] is False
    failed = [e for e in doc["fixtures"][0]["expectations"] if not e["passed"]]
    assert [(e["label"], e["detail"]) for e in failed] == [(label, detail)]


def test_a_missing_witness_fails_its_replay_and_keeps_the_row(monkeypatch):
    from gproxim import cli
    from gproxim.gspace import CheckReport

    check = cli._CHECKS["proximal-weak"]

    def holds_under_h(c, seed):
        if c.gauge.name == "h":
            return CheckReport("proximal-weak", "holds-on-sample")
        return check.run(c, seed)

    monkeypatch.setitem(cli._CHECKS, "proximal-weak", check._replace(run=holds_under_h))
    report = run_fixture("quarter-proximal")
    assert len(report.outcomes) == 6
    assert [(o.label, o.detail) for o in report.outcomes if not o.passed] == [
        ("falsified under h for any beta, N", "verdict is 'holds-on-sample'"),
        ("reported witness replays exactly",
         "replay 'proximal-weak:h:beta=0.9:N=1' has nothing to evaluate"),
    ]


def test_a_missing_battery_item_fails_and_keeps_the_row(monkeypatch):
    from gproxim import cli

    table = tuple(item for item in cli._BATTERY if item[0] != "semi-sharp")
    monkeypatch.setattr(cli, "_BATTERY", table)
    report = run_fixture("berinde-reflection")
    assert len(report.outcomes) == 9
    assert [(o.label, o.detail) for o in report.outcomes if not o.passed] == [
        ("hypothesis: semi-sharp", "hypothesis 'semi-sharp' has nothing to evaluate"),
    ]


# Per fixture, the contraction rows it builds, by key (see counting_builds):
# the checks and the estimate that read the same rows share the instance's
# build, so each key is built once.  The staged scheme of berinde-reflection
# checks each of its ten stage maps on rows of its own.
_STAGES = [("proximal", "g", f"H(s,f,{1 / n})", "A", "B", "0.0", 0) for n in range(2, 12)]
ROW_BUILDS = {
    "xu-nonunique-limits": [],
    "min-contraction": [("banach", "g", "T", 0), ("banach", "h", "T", 0)],
    "box-shift": [("banach", "g", "f", 0)],  # the check and the estimate
    "halving-on-unit": [("banach", "g", "T", 0)],
    "projection-nonunique-fixed": [("banach", "g", "T", 0)],
    "quarter-proximal": [("proximal", "g", "T", "A", "B", "0.0", 0),
                         ("proximal", "h", "T", "A", "B", "1.0", 0)],
    "finite-sets": [("proximal", "g", "f", "A", "B", "1.0", 0),
                    ("proximal", "metric", "f", "A", "B", "1.0", 0)],
    "g-closed-halfline": [],
    "segment-bpp": [],
    "berinde-reflection": [("proximal", "g", "f", "A", "B", "0.0", 0), *_STAGES],
    "parallel-segments": [],
}


def test_a_fixture_builds_each_row_key_once(fixture_suite):
    assert fixture_suite.builds == ROW_BUILDS
    assert all(len(set(keys)) == len(keys) for keys in ROW_BUILDS.values())


# (fixture, gauge, map): the rows and the columns a contraction scan reads,
# one point per class of the points the gauge cannot tell apart, and
# whether the gauge is proven symmetric, so that row r reads the columns
# from the r-th on (see properties._BanachRows)
SCAN_SHAPES = {
    ("box-shift", "g", "f"): (5, 5, True),  # x1*u1, f x1 = 0: 625 points, 5 classes
    ("min-contraction", "g", "T"): (21, 21, False),  # min(x2,u2): 441 points
    ("min-contraction", "h", "T"): (21, 21, True),  # x1*u1
    ("projection-nonunique-fixed", "g", "T"): (21, 21, True),  # x2 - u2
    ("halving-on-unit", "g", "T"): (201, 201, True),  # every point its own class
}


@pytest.mark.parametrize("subject, shape", SCAN_SHAPES.items(),
                         ids=["-".join(s) for s in SCAN_SHAPES])
def test_a_contraction_scan_reads_one_point_per_class(subject, shape, monkeypatch):
    from gproxim.expr import RowKernels
    from gproxim.properties import estimate_coefficient

    name, gauge, map_name = subject
    inst = load_fixture_instance(name)
    lengths, real = [], RowKernels.marked

    def counting(self, P, Q):
        row = real(self, P, Q)
        lengths.append(len(row))
        return row

    monkeypatch.setattr(RowKernels, "marked", counting)
    # the estimate reads every row: its lhs row, then its rhs row
    assert math.isfinite(estimate_coefficient(inst.gauge(gauge), inst.map_(map_name), inst.tol))
    rows, cols, symmetric = shape
    assert inst.gauge(gauge).symmetric == symmetric
    # a triangle for a symmetric gauge, else the square
    assert lengths == [cols - r * symmetric for r in range(rows) for _ in ("lhs", "rhs")]
