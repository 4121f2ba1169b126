"""One benchmark pass in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  The pass imports gproxim
from the checkout's ``src/``, optionally instruments it, runs every job of
the job file once, checks each job's output against its expectation and
writes the timings, checks and counts as JSON.

Each job runs between two timings of the reference kernel, and in untraced
passes the kernel is also sampled while the job runs; the job's CPU time is
scaled by ``ref_nominal`` over the mean of those timings.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import refkernel
from workloads import DIR

SAMPLE_INTERVAL_S = 0.05  # process CPU time between reference samples in a job


def _argv(step: dict, workdir: str) -> list[str]:
    return [a.replace(DIR, workdir + os.sep) for a in step["argv"]]


def _config_paths(job: dict, workdir: str, fixture_config_path) -> list:
    out = []
    for cfg in job["configs"]:
        if cfg.startswith("fixture:"):
            out.append(fixture_config_path(cfg[len("fixture:"):]))
        else:
            out.append(cfg.replace(DIR, workdir + os.sep))
    return out


def run_step(main, argv: list[str]) -> tuple[object, str, str]:
    """Call the CLI entry point with captured output; returns (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed pass
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def check_step(expect: dict, stdout: str) -> tuple[str, int]:
    """Compare one step's output with its expectation.

    Returns (problem, expectations passed); problem is "" when the output is
    as constructed.
    """
    kind = expect["type"]
    if kind == "replay":
        states = {}
        for line in stdout.splitlines():
            if line.startswith("replay "):
                parts = line.split()
                states[parts[1]] = parts[-1]
        want = {spec: "reproduced" for spec in expect["reproduced"]}
        return ("" if states == want else f"replay states {states}, want {want}"), 0
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return f"no JSON report on stdout: {stdout[:200]!r}", 0
    if kind == "fixtures":
        reps = doc.get("fixtures", [])
        if len(reps) != 1 or reps[0]["name"] != expect["name"]:
            return f"expected one report for {expect['name']}", 0
        outcomes = reps[0]["expectations"]
        failed = [o["label"] for o in outcomes if not o["passed"]]
        if failed or not outcomes:
            return f"failed expectations {failed}", len(outcomes) - len(failed)
        return "", len(outcomes)
    if kind == "verify":
        got = doc.get("checks", [])
        if len(got) != len(expect["checks"]):
            return f"{len(got)} checks reported, expected {len(expect['checks'])}", 0
        for entry, want in zip(got, expect["checks"]):
            for key, value in want.items():
                if entry.get(key) != value:
                    return f"{want['spec']}: {key} is {entry.get(key)!r}, expected {value!r}", 0
        return "", 0
    if kind == "search":
        if doc.get("estimate") != expect["estimate"]:
            return f"estimate {doc.get('estimate')!r}, expected {expect['estimate']!r}", 0
        sweep = doc.get("sweep", [])
        values = [row.get(expect["label"]) for row in sweep]
        verdicts = {row.get("verdict") for row in sweep}
        if values != expect["values"] or verdicts != {"holds-on-sample"}:
            return f"sweep {values} {verdicts}", 0
        return "", 0
    if kind == "solve":
        if doc.get("verdict") != expect["verdict"]:
            return f"verdict {doc.get('verdict')!r}", 0
        final = doc.get("final") or []
        if len(final) != len(expect["final"]) or any(
            abs(a - b) > expect["final_tol"] for a, b in zip(final, expect["final"])
        ):
            return f"final {final}, expected {expect['final']}", 0
        if "max_steps" in expect and doc.get("steps", 0) > expect["max_steps"]:
            return f"{doc.get('steps')} steps, expected at most {expect['max_steps']}", 0
        if "proximity_level" in expect and doc.get("proximity_level") != expect["proximity_level"]:
            return f"proximity level {doc.get('proximity_level')!r}", 0
        if expect.get("hypotheses_passed"):
            bad = [h["name"] for h in doc.get("hypotheses", []) if not h["passed"]]
            if bad or not doc.get("hypotheses"):
                return f"hypotheses failed: {bad}", 0
        return "", 0
    return f"unknown expectation type {kind!r}", 0


def timed(fn, sampler, sample: bool, ref_before: float, nominal: float):
    """Run fn() once.

    Returns (result, CPU seconds without the sampler's share, host-speed
    factor, reference time measured right after).
    """
    if sample:
        sampler.start()
    t0 = time.thread_time()
    result = fn()
    if sample:
        sampler.stop()
    cpu = time.thread_time() - t0
    samples, spent = (sampler.samples, sampler.spent) if sample else ([], 0.0)
    ref_after = refkernel.measure()
    refs = [ref_before, ref_after, *samples]
    return result, cpu - spent, nominal / (sum(refs) / len(refs)), ref_after


def job_problem(job: dict, outputs: list) -> tuple[str, int]:
    """The first way the job's output differs from its expectation, if any."""
    passed = 0
    for step, (code, stdout, stderr) in zip(job["steps"], outputs):
        if code != step["exit"]:
            return f"exit {code}, expected {step['exit']}: {stderr.strip()[:200]}", passed
        problem, count = check_step(step["expect"], stdout)
        passed += count
        if problem:
            return problem, passed
    return "", passed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "alloc"), required=True)
    parser.add_argument("--ref-nominal", type=float, required=True)
    parser.add_argument("--setup-reps", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from gproxim import cli, config, fixtures

    with open(args.jobs) as fh:
        spec = json.load(fh)
    workdir, jobs = spec["workdir"], spec["jobs"]
    nominal = args.ref_nominal

    spans = probe = None
    if args.mode == "trace":
        import tracer
        spans = tracer.install()
    elif args.mode == "alloc":
        import tracer
        probe = tracer.install_alloc()
    main_fn = cli.main  # looked up after instrumentation
    sampler = refkernel.Sampler(SAMPLE_INTERVAL_S)
    # Span times must not include the sampler's handler, so traced passes
    # correct each job from its two end measurements only.
    sample = args.mode == "plain"

    paths = [p for job in jobs for p in _config_paths(job, workdir, fixtures.fixture_config_path)]
    setup = []
    for _ in range(args.setup_reps):
        gc.collect()
        _, cpu, factor, _ = timed(lambda: [config.load_instance(p) for p in paths],
                                  sampler, sample, refkernel.measure(), nominal)
        setup.append({"raw_s": cpu, "factor": factor})

    digest = hashlib.sha256()
    results = []
    layers: dict[str, list[float]] = {}
    fixture_total: dict[str, float] = {}
    gc.collect()
    ref_first = ref = refkernel.measure()
    for job in jobs:
        argvs = [_argv(step, workdir) for step in job["steps"]]
        outputs, cpu, factor, _ = timed(lambda: [run_step(main_fn, a) for a in argvs],
                                        sampler, sample, ref, nominal)
        for code, stdout, _ in outputs:
            digest.update(f"{job['id']}\0{code}\0{stdout}\0".encode())
        problem, passed = job_problem(job, outputs)
        results.append({"id": job["id"], "cpu_s": cpu, "factor": factor,
                        "problem": problem, "expectations": passed})
        if spans is not None:
            stats, fixture_part = spans.take()
            for name, row in stats.items():
                acc = layers.setdefault(name, [0.0] * len(row))
                for i, value in enumerate(row):
                    acc[i] += value * factor if i < 2 else value  # times, then counts
            for name, dt in fixture_part.items():
                fixture_total[name] = fixture_total.get(name, 0.0) + dt * factor
        gc.collect()
        ref = refkernel.measure()

    out = {
        "jobs": results,
        "setup": setup,
        "ref_start": ref_first,
        "ref_end": ref,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spans is not None:
        out["layers"] = layers
        out["fixture_total"] = fixture_total
    if probe is not None:
        out["proximal_core_peak_mb"] = probe.peak_bytes / 2.0 ** 20
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
