"""Every committed bench record (BENCH_*.json at the root of the checkout)
backs the speed claim it makes: the claimed workload and metric are those of
BENCHMARK.json, and the record holds at least ten alternating run pairs, the
count of them in which the change read lower, at least nine tenths of them,
and both sides' medians and the parent's quartiles, the medians differing by
more than the parent's spread q3 - q1.  The committed job-output digests at
seeds 3, 5 and 6, which CI compares each workload's outputs with, name each
workload of BENCHMARK.json once."""

from __future__ import annotations

import json
import re
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
    pairs = record["workloads"][workload]["pairs"]
    claimed = record["workloads"][workload]["metrics"][metric]
    parent, change = claimed["parent"], claimed["change"]
    assert isinstance(claimed["change_lower_in"], int)
    assert isinstance(pairs, int) and pairs >= 10
    # a gain counts when the change reads lower in nine tenths of the pairs
    # and the medians differ by more than the parent's quartile spread
    assert 10 * claimed["change_lower_in"] >= 9 * pairs
    assert parent["median"] - change["median"] > parent["q3"] - parent["q1"]


@pytest.mark.parametrize("seed", [3, 5, 6])
def test_the_committed_digests_name_each_workload_once(seed, declared):
    lines = (ROOT / "tests" / "data" / f"job_outputs_seed{seed}.sha256").read_text().splitlines()
    assert [line.split()[0] for line in lines] == [w["name"] for w in declared["workloads"]]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
