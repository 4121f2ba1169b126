"""Self-tests for the benchmark: python3 -m pytest gpbench -q"""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 12345)
POINT_KEYS = {"x", "y", "z", "x0", "y0", "x1", "x2", "u1", "u2", "a", "b1", "b2"}


def _dyadic(v: float, bits: int = 24) -> bool:
    return math.isfinite(v) and (v * 2 ** bits).is_integer()


def _axes(set_spec: dict) -> list[tuple[float, float, int]]:
    res = set_spec["resolution"]
    return [(lo, hi, n) for (lo, hi), n in zip(set_spec["box"], res)]


def _on_grid(coords: list[float], set_spec: dict) -> bool:
    for c, (lo, hi, n) in zip(coords, _axes(set_spec)):
        if n == 1:
            if c != lo:
                return False
            continue
        i = (c - lo) / ((hi - lo) / (n - 1))
        if not (i.is_integer() and 0 <= i < n):
            return False
    return True


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_job_list(workload):
    assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)
    configs_a, jobs_a = workloads.make_jobs(workload, 7)
    configs_b, jobs_b = workloads.make_jobs(workload, 8)
    # another seed keeps the job kinds and sizes but not the values
    assert sorted(j["id"] for j in jobs_a) == sorted(j["id"] for j in jobs_b)
    if workload != "fixtures":
        assert configs_a != configs_b
    for name, doc in configs_a.items():
        for set_name, spec in doc["sets"].items():
            assert spec.get("resolution") == configs_b[name]["sets"][set_name].get("resolution")


@pytest.mark.parametrize("workload", workloads.WORKLOADS[1:])
@pytest.mark.parametrize("seed", SEEDS)
def test_grids_are_dyadic_with_power_of_two_steps(workload, seed):
    configs, _ = workloads.make_jobs(workload, seed)
    for doc in configs.values():
        for spec in doc["sets"].values():
            for lo, hi, n in _axes(spec):
                assert _dyadic(lo) and _dyadic(hi)
                if n > 1:
                    step = (hi - lo) / (n - 1)
                    assert math.log2(step).is_integer(), (lo, hi, n)


def _config_of(job: dict, configs: dict) -> dict:
    return configs[job["configs"][0][len(workloads.DIR):]]


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_witnesses_lie_on_the_grid(seed):
    configs, jobs = workloads.make_jobs("verify-falsify", seed)
    checked = 0
    for job in jobs:
        doc = _config_of(job, configs)
        for want in job["steps"][0]["expect"]["checks"]:
            wit = want["witness"]
            if wit is None:
                continue
            for key, value in wit.items():
                if key in POINT_KEYS:
                    assert any(_on_grid(value, spec) for spec in doc["sets"].values()), (
                        job["id"], key, value)
                    checked += 1
                else:  # lam and the escaping starshaped image are exact too
                    values = value if isinstance(value, list) else [value]
                    assert all(_dyadic(v) for v in values), (job["id"], key, value)
    assert checked > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_solver_answers_are_dyadic_and_proximal_answers_on_the_grid(seed):
    configs, jobs = workloads.make_jobs("solve", seed)
    for job in jobs:
        expect = job["steps"][0]["expect"]
        assert all(_dyadic(v) for v in expect["final"])
        if "/proximal/" in job["id"] or "/berinde/" in job["id"]:
            doc = _config_of(job, configs)
            assert _on_grid(expect["final"], doc["sets"]["A"])


def test_planted_positions_are_early_middle_and_late():
    _, jobs = workloads.make_jobs("verify-falsify", 3)
    kinds = {j["id"].split("/")[1] for j in jobs}
    assert len(jobs) == 3 * len(kinds)
    for kind in kinds:
        assert {j["id"].split("/")[2] for j in jobs if j["id"].split("/")[1] == kind} == {
            "early", "middle", "late"}


def test_reference_kernel_imports_nothing_from_gproxim():
    with open(os.path.join(HERE, "refkernel.py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    assert names <= {"__future__", "signal", "time", "statistics"}
    code = ("import sys, refkernel; refkernel.measure(); "
            "print(any(m.split('.')[0] == 'gproxim' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        tracer.LAYER_METRICS)
    assert {m["name"] for m in doc["end_to_end"]} == {"cpu_s", "setup_s", "peak_rss_mb"}


def test_fixture_names_match_the_shipped_configs():
    data = os.path.join(os.path.dirname(HERE), "src", "gproxim", "fixtures_data")
    if not os.path.isdir(data):
        pytest.skip("program sources not present")
    shipped = {f[:-len(".json")] for f in os.listdir(data) if f.endswith(".json")}
    assert shipped == set(workloads.FIXTURE_NAMES)
