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

    real = cli.check_proximal_inequality

    def holds_under_h(g, *args, **kwargs):
        if g.name == "h":
            return CheckReport("proximal-weak", "holds-on-sample")
        return real(g, *args, **kwargs)

    monkeypatch.setattr(cli, "check_proximal_inequality", holds_under_h)
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
