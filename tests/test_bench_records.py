"""Every committed bench record (BENCH_*.json at the root of the checkout)
backs the speed claim it makes: the claimed workload and metric are those of
BENCHMARK.json, and the record holds both medians, with the change below the
parent, and the count of run pairs in which the change read lower."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def declared() -> dict:
    """BENCHMARK.json: the workloads and the end-to-end metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_bench_record_backs_its_claim(path, declared):
    record = json.loads(path.read_text())
    workload, metric = record["claimed"]["workload"], record["claimed"]["metric"]
    assert workload in {w["name"] for w in declared["workloads"]}
    assert metric in {m["name"] for m in declared["end_to_end"]}
    claimed = record["workloads"][workload]["metrics"][metric]
    assert isinstance(claimed["change_lower_in"], int)
    assert claimed["change"]["median"] < claimed["parent"]["median"]
