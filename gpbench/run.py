"""gproxim benchmark: one named workload from a seed, every metric with its unit.

    python3 gpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: fixtures, verify-holds,
verify-falsify, solve (see workloads.py and BENCHMARK.json for why each
exists).  The load model is a closed loop with one client: one process runs
one job at a time, and each pass over the job list runs in a fresh
interpreter, one pass after another, until the time budget is spent.

Every timing is host-speed corrected: a reference kernel (refkernel.py) is
timed right before and right after each job, and sampled while it runs; the
job's CPU time is scaled by ref_nominal / ref_measured, with ref_nominal
from calibration.json.  End-to-end timings are medians over passes.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics from a separately traced run
(tracer.py).  Audit lines come before it.  Exit status is non-zero, with no
result line, when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MAX_PASSES = 40
SETUP_REPS = 5  # config loads per plain pass; setup_s is their median
TRACED_PASSES = 2
SECOND_SEED_OFFSET = 7919  # the traced run repeats its counts on this other seed
TIME_LIMIT_S = 170.0  # workers still running this long after start are killed


class Pass:
    """Runs worker passes over one job list in fresh interpreters."""

    def __init__(self, workload: str, seed: int, base: str, nominal: float, deadline: float):
        self.workdir = os.path.join(base, f"{workload}-seed{seed}")
        self.jobs = workloads.write_jobs(workload, seed, self.workdir)
        self.job_file = os.path.join(self.workdir, "jobs.json")
        with open(self.job_file, "w") as fh:
            json.dump({"workdir": self.workdir, "jobs": self.jobs}, fh)
        self.nominal = nominal
        self.deadline = deadline
        self.count = 0

    def run(self, mode: str, setup_reps: int = 0) -> dict:
        self.count += 1
        out = os.path.join(self.workdir, f"pass-{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--jobs", self.job_file, "--mode", mode, "--ref-nominal", repr(self.nominal),
               "--setup-reps", str(setup_reps), "--out", out]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker pass failed ({proc.returncode}): {proc.stderr[-2000:]}")
        with open(out) as fh:
            return json.load(fh)


def tail_percentile(samples: list[float]):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for p in (90, 99):
        if len(samples) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(samples, n=100)[p - 1])
    return best


def job_outcomes(passes: list[dict], jobs: list[dict]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, audit lines) over every job of every pass."""
    known = {job["id"]: job["known_defect"] for job in jobs}
    attempted = failed = 0
    correct = True
    lines = []
    for n, p in enumerate(passes, start=1):
        for res in p["jobs"]:
            attempted += 1
            if res["problem"]:
                failed += 1
                defect = known.get(res["id"])
                if defect:
                    tag = f"known defect ({defect})"
                else:
                    tag = "UNEXPECTED"
                    correct = False
                lines.append(f"pass {n} FAILED {res['id']}: {res['problem']} [{tag}]")
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        correct = False
        lines.append(f"OUTPUT HASH DIFFERS across passes: {sorted(digests)}")
    else:
        lines.append(f"output sha256 {digests.pop()} identical across {len(passes)} passes")
    if any(job["configs"][0].startswith("fixture:") for job in jobs):
        for n, p in enumerate(passes, start=1):
            total = sum(res["expectations"] for res in p["jobs"])
            lines.append(f"pass {n}: {total} of {workloads.FIXTURE_EXPECTATIONS} "
                         "fixture expectations passed")
            if total != workloads.FIXTURE_EXPECTATIONS:
                correct = False
    return attempted, failed, correct, lines


def run_plain(args, nominal: float, base: str, deadline: float) -> None:
    runner = Pass(args.workload, args.seed, base, nominal, deadline)
    passes = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        t0 = time.perf_counter()
        passes.append(runner.run("plain", SETUP_REPS))
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
            break

    # cpu_s sums each job's median over passes, so one disturbed job in one
    # pass does not move the total.
    per_job = {job["id"]: [] for job in runner.jobs}
    for p in passes:
        for r in p["jobs"]:
            per_job[r["id"]].append(r["cpu_s"] * r["factor"])
    cpu = sum(statistics.median(v) for v in per_job.values())
    cpu_passes = [job_seconds(p) for p in passes]
    cpu_raw = [sum(r["cpu_s"] for r in p["jobs"]) for p in passes]
    setup = [s["raw_s"] * s["factor"] for p in passes for s in p["setup"]]
    setup_raw = [s["raw_s"] for p in passes for s in p["setup"]]
    rss = [p["peak_rss_mb"] for p in passes]

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(runner.jobs)} jobs in {time.perf_counter() - start:.1f} s")
    print(f"raw cpu_s median {statistics.median(cpu_raw):.6f} s; raw setup_s median "
          f"{statistics.median(setup_raw):.6f} s ({len(setup_raw)} set-ups)")
    print(f"corrected cpu_s per pass: {' '.join(f'{v:.4f}' for v in cpu_passes)}")
    print(f"reference kernel: {passes[0]['ref_start']:.6f} s at start, "
          f"{passes[-1]['ref_end']:.6f} s at end, nominal {nominal:.6f} s")
    for job_id, samples in per_job.items():
        line = f"job {job_id}: median {statistics.median(samples) * 1e3:.2f} ms (n={len(samples)})"
        tail = tail_percentile(samples)
        if tail:
            line += f", p{tail[0]} {tail[1] * 1e3:.2f} ms"
        print(line)
    attempted, failed, correct, lines = job_outcomes(passes, runner.jobs)
    for line in lines:
        print(line)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "cpu_s": {"value": cpu, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        },
    }
    print(json.dumps(result))


def job_seconds(p: dict) -> float:
    """Host-corrected CPU seconds of one pass over the job list."""
    return sum(r["cpu_s"] * r["factor"] for r in p["jobs"])


COUNT_SLOTS = {"evals": 3, "points": 4, "h_apply": 5, "map_apply": 6, "pairs": 7,
               "steps": 8, "calls": 2}


def count_table(p: dict) -> dict:
    """Every exact count of a traced pass, keyed by 'span.count'."""
    out = {}
    for span, row in p["layers"].items():
        for name, slot in COUNT_SLOTS.items():
            out[f"{span}.{name}"] = row[slot]
    return out


def run_traced(args, nominal: float, base: str, deadline: float) -> None:
    runner = Pass(args.workload, args.seed, base, nominal, deadline)
    other = Pass(args.workload, args.seed + SECOND_SEED_OFFSET, base, nominal, deadline)
    plain = runner.run("plain")
    traced = [runner.run("trace") for _ in range(TRACED_PASSES)]
    traced_other = other.run("trace")
    alloc = runner.run("alloc")

    attempted, failed, correct, lines = job_outcomes([plain, *traced, alloc], runner.jobs)
    _, _, correct_other, lines_other = job_outcomes([traced_other], other.jobs)
    correct = correct and correct_other
    for line in lines + [f"second seed: {line}" for line in lines_other]:
        print(line)

    reference = count_table(traced[0])
    others = [(f"traced pass {i}", p) for i, p in enumerate(traced[1:], start=2)]
    others.append((f"seed {args.seed + SECOND_SEED_OFFSET}", traced_other))
    flags = 0
    for label, p in others:
        table = count_table(p)
        for key in sorted(set(reference) | set(table)):
            a, b = reference.get(key, 0), table.get(key, 0)
            if a != b:
                flags += 1
                print(f"FLAG count {key} differs: {a} on the first traced pass, {b} on {label}")
    print(f"traced counts: {flags} differences across {TRACED_PASSES} passes and a second seed")

    def layer_value(span: str, field: str, p: dict) -> float:
        row = p["layers"].get(span)
        if row is None:
            return 0.0
        if field == "self_s":
            return row[0]
        if field == "evals_per_s":
            return row[3] / row[0] if row[0] > 0 else 0.0
        return row[COUNT_SLOTS[field]]

    metrics = {}
    for name, unit, _ in tracer.LAYER_METRICS:
        if name == "trace_overhead":
            value = statistics.median([job_seconds(p) for p in traced]) / job_seconds(plain)
        elif name == "gspace.proximal_core.peak_mb":
            value = alloc["proximal_core_peak_mb"]
        elif name.startswith("fixtures.run_fixture."):
            fixture = name[len("fixtures.run_fixture."):-len(".total_s")]
            value = statistics.median([p["fixture_total"].get(fixture, 0.0) for p in traced])
        else:
            span, field = name.rsplit(".", 1)
            value = statistics.median([layer_value(span, field, p) for p in traced])
        metrics[name] = {"value": value, "unit": unit}
    print(f"trace_overhead {metrics['trace_overhead']['value']:.3f} "
          "(traced over untraced job time, both host-corrected)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "gproxim", "cli.py")):
        print("error: gproxim sources not found under src/gproxim; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "calibration.json")) as fh:
        nominal = json.load(fh)["ref_nominal_s"]
    base = os.path.join(ROOT, ".gpbench_work", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            run_traced(args, nominal, base, deadline)
        else:
            run_plain(args, nominal, base, deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
