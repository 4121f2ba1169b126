"""Command line entry point.

Subcommands: verify (run named checks against a config and report verdicts),
solve (run one of the iteration schemes and write a CSV trace), fixtures
(replay the shipped reference instances), and search (sweep a coefficient to
bracket where a check starts to fail).  Exit codes are 0 when everything
requested holds or converges, 1 when a check is falsified or an iteration
fails to converge, and 2 on configuration or usage errors.  Output depends
only on the inputs, so reruns are byte identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from functools import cache, cached_property, partial, reduce
from typing import Callable, NamedTuple, Optional

from .config import ConfigError, Instance, _count, load_instance
from .expr import EvalError, ParseError
from .gspace import (
    GSpaceError,
    NoProximalMate,
    Point,
    SampleSet,
    ToleranceError,
    axiom_sides,
    check_convex_structure,
    check_semi_sharp,
    check_side_condition,
    check_starshaped,
    convex_condition_sides,
    falsify_axiom,
    semi_sharp_sides,
    side_condition_sides,
)
from .fixtures import run_fixtures
from .properties import (
    _BanachRows,
    _check_alpha,
    _estimate,
    _proximal_name,
    _ProximalRows,
    banach_sides,
    estimate_coefficient,
    proximal_sides,
)
from .solvers import (
    BatteryItem,
    Schedule,
    _prox_residual,
    berinde_scheme,
    picard,
    power_fixed_point,
    proximal_iterate,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_ERROR = 2

_AXIOM_KINDS = ("identity", "symmetry", "triangle")


class CheckSpecError(ValueError):
    pass


def parse_check_spec(text: str) -> tuple[str, Optional[str], dict[str, str]]:
    """Parse "kind[:gauge][:key=value]..." into its parts.  A key that the
    kind does not read or that is given twice, or a center other than r or
    s, is an error."""
    parts = text.split(":")
    kind = parts[0]
    if kind not in _CHECKS:
        raise CheckSpecError(
            f"unknown check kind {kind!r}; expected one of {', '.join(_CHECKS)}"
        )
    target: Optional[str] = None
    params: dict[str, str] = {}
    keys = _CHECKS[kind].keys
    for part in parts[1:]:
        if "=" in part:
            key, _, value = part.partition("=")
            if key not in keys:
                raise CheckSpecError(
                    f"{kind} check reads no key {key!r}; it reads {', '.join(keys)}"
                )
            if key in params:
                raise CheckSpecError(f"key {key!r} given twice in check {text!r}")
            params[key] = value
        elif target is None:
            target = part
        else:
            raise CheckSpecError(f"unexpected token {part!r} in check {text!r}")
    if params.get("center", "r") not in ("r", "s"):
        raise CheckSpecError(f"center must be r or s, got {params['center']!r}")
    return kind, target, params


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckSpecError(f"{what}: {text!r} is not a number") from None


def _param(params: dict[str, str], key: str, default: Optional[float] = None) -> float:
    """A numeric check parameter; a missing key without a default is an error."""
    if key not in params:
        if default is None:
            raise CheckSpecError(f"missing parameter {key}=<value>")
        return default
    return _number(params[key], key)


def _point_from_text(text: str, dimension: int) -> Point:
    body = text.strip().strip("()")
    coords = tuple(
        _number(part, f"point {text!r}")
        for part in body.split(",")
        if part.strip()
    )
    if len(coords) != dimension:
        raise CheckSpecError(
            f"point {text!r} has {len(coords)} coordinates, expected {dimension}"
        )
    return Point(coords)


def _need_convex(inst: Instance):
    if inst.convex is None:
        raise CheckSpecError("this check needs a 'convex' block in the config")
    return inst.convex


class _Spec:
    """A check spec against an instance, its parts looked up on first use, so
    a check or a replay asks only for what it needs.  Its proximity core and
    its contraction rows are the instance's (Instance.memo), so the specs of
    one command share them."""

    def __init__(self, inst: Instance, text: str):
        self.kind, self.target, self.params = parse_check_spec(text)
        self.inst, self.tol = inst, inst.tol

    @cached_property
    def gauge(self):
        return self.inst.gauge(self.target or "g")

    @cached_property
    def map(self):
        return self.inst.map_(self.params.get("map"))

    @property
    def map_before_sets(self):
        """The map, looked up after the gauge and before the sets, the
        order in which a proximal check looks up its parts."""
        self.gauge
        f = self.map
        self.pair
        return f

    @cached_property
    def pair(self):  # the sets A and B
        return tuple(self.inst.set_(self.params.get(k, k)) for k in ("A", "B"))

    @cached_property
    def core(self):
        return self.inst.core(self.gauge, *self.pair)

    @cached_property
    def convex(self):
        return _need_convex(self.inst)

    @property
    def centre(self):
        return self.convex.r if self.params.get("center", "r") == "r" else self.convex.s

    @property
    def centres(self) -> dict:
        """The convex block's r and s, looked up after the gauge: a check
        on both looks up the gauge, then the convex block, then the sets."""
        self.gauge
        return {"r": self.convex.r, "s": self.convex.s}

    def scan(self, union: bool = False):
        """The set named by set=, else the union of all sets or the first."""
        if "set" in self.params:
            return self.inst.set_(self.params["set"])
        sets = list(self.inst.sets.values())
        return reduce(SampleSet.union, sets) if union else sets[0]

    @property
    def coef_name(self) -> str:
        return "alpha" if self.kind == "banach" else "beta"

    @property
    def coef(self) -> float:
        if self.kind == "berinde":
            return 1.0
        key = self.coef_name
        if key not in self.params:
            hint = "value in (0,1)" if key == "alpha" else "value"
            raise CheckSpecError(f"{self.kind} check needs {key}=<{hint}>")
        return _param(self.params, key)

    @property
    def n_cap(self) -> float:
        return _param(self.params, "N", 0.0)

    def rows(self, seed: int, check: bool = False) -> tuple:
        """(rows, coefficient): the contraction rows at seed (a _BanachRows
        or _ProximalRows of properties), built once per instance for every
        subject that reads them, and with check the spec's coefficient, else
        None.  The parts are looked up, and the coefficient checked before a
        build, in the order check_banach_contraction and
        check_proximal_inequality take them, so a bad spec's first error is
        theirs.  The rows' key is the kind family, the gauge, the map, the
        core of the sets, repr(N) and the seed."""
        if self.kind == "banach":
            g, t = self.gauge, self.map
            coef = self.coef if check else None
            if check:
                _check_alpha(coef)
            key, build = ("banach", g, t, seed), partial(_BanachRows, g, t, seed)
        else:
            f = self.map_before_sets
            coef = self.coef if check else None
            n_cap, core = self.n_cap, self.core
            if check:
                _proximal_name(coef, n_cap)
            # the core by identity, which the memo keeps alive beside the rows
            key = ("proximal", f, repr(n_cap), id(core), seed)
            build = partial(_ProximalRows, f, n_cap, core, seed)
        return self.inst.memo(key, build), coef


class _Check(NamedTuple):
    keys: tuple[str, ...]
    run: Callable[[_Spec, int], object]
    reproduces: Callable[[_Spec, dict, dict], bool]
    sweep: Optional[Callable[[_Spec, int, list], tuple]] = None


def _contraction_report(c: _Spec, seed: int):
    """A contraction check's report, the sweep of its one coefficient."""
    rows, coef = c.rows(seed, check=True)
    return _estimate(rows, c.tol, [coef], False)[1][0]


def _contraction_sweep(c: _Spec, seed: int, values: list) -> tuple:
    return _estimate(c.rows(seed)[0], c.tol, values, True)


def _same_sides(sides: Callable[[_Spec, dict], tuple]):
    """An inequality witness replays when both sides come out bit for bit."""
    return lambda c, wit, entry: sides(c, wit) == (entry["lhs"], entry["rhs"])


def _axiom(kind: str) -> _Check:
    return _Check(
        ("set",),
        lambda c, seed: falsify_axiom(kind, c.gauge, c.scan(), c.tol, seed=seed),
        _same_sides(lambda c, wit: axiom_sides(kind, c.gauge, c.tol, wit)),
    )


def _starshaped_set(c: _Spec):
    # the target names a set, not a gauge
    if c.target is None and "set" not in c.params:
        raise CheckSpecError("starshaped check needs a set name")
    return c.inst.set_(c.params.get("set", c.target))


def _group(c: _Spec, *_):
    raise CheckSpecError("axioms names three checks: identity, symmetry, triangle")


def _proximal(keys: tuple[str, ...]) -> _Check:
    return _Check(
        keys,
        _contraction_report,
        _same_sides(lambda c, wit: proximal_sides(c.gauge, wit, c.coef, c.n_cap)),
        _contraction_sweep,
    )


# Every check kind, in the order the usage message lists them: keys are the
# key=value parameters it reads, run gives the report, reproduces tells
# whether a reported witness replays, and sweep gives the sample estimate of
# the coefficient that search sweeps with the report at each swept value, in
# one pass over the instance's rows (see _Spec.rows).
_CHECKS = {
    **{kind: _axiom(kind) for kind in _AXIOM_KINDS},
    "axioms": _Check(("set",), _group, _group),
    "banach": _Check(
        ("map", "alpha"),
        _contraction_report,
        _same_sides(lambda c, wit: banach_sides(c.gauge, c.map, c.coef, wit)),
        _contraction_sweep,
    ),
    "proximal-weak": _proximal(("map", "A", "B", "beta", "N")),
    "berinde": _proximal(("map", "A", "B", "N")),
    # keyword arguments keep the lookup order: the gauge, then the convex block
    "convex": _Check(
        ("set",),
        lambda c, seed: check_convex_structure(
            g=c.gauge, h=c.convex.h, s=c.scan(union=True),
            lambda_grid=c.convex.lambda_grid, tol=c.tol, seed=seed,
        ),
        _same_sides(lambda c, wit: convex_condition_sides(
            g=c.gauge, h=c.convex.h, witness=wit
        )),
    ),
    "starshaped": _Check(
        ("set", "center"),
        lambda c, seed: check_starshaped(
            c.convex.h, _starshaped_set(c), c.centre, c.convex.lambda_grid, c.tol
        ),
        lambda c, wit, entry: c.convex.h.apply(c.centre, wit["x"], wit["lam"])
        == wit["image"],
    ),
    "semi-sharp": _Check(
        ("A", "B"),
        lambda c, seed: check_semi_sharp(c.core),
        _same_sides(lambda c, wit: semi_sharp_sides(c.core, wit)),
    ),
    "side-condition": _Check(
        ("A", "B"),
        lambda c, seed: check_side_condition(**c.centres, core=c.core, tol=c.tol),
        _same_sides(lambda c, wit: side_condition_sides(**c.centres, core=c.core,
                                                        witness=wit)),
    ),
}


def run_check(inst: Instance, spec_text: str, seed: int = 0):
    """Run one named check; returns its CheckReport."""
    c = _Spec(inst, spec_text)
    return _CHECKS[c.kind].run(c, seed)


def _expand_specs(specs: list[str]) -> list[str]:
    out = []
    for text in specs:
        kind, target, params = parse_check_spec(text)
        if kind == "axioms":
            suffix = text[len("axioms"):]
            out.extend(k + suffix for k in _AXIOM_KINDS)
        else:
            out.append(text)
    return out


def _witness_to_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    out = {}
    for key, value in witness.items():
        out[key] = list(value.coords) if isinstance(value, Point) else value
    return out


def _report_entry(spec_text: str, report) -> dict:
    entry = {
        "spec": spec_text,
        "check": report.check,
        "verdict": report.verdict,
        "witness": _witness_to_json(report.witness),
        "lhs": report.lhs,
        "rhs": report.rhs,
    }
    if report.beta is not None:  # the contraction-class checks
        entry["beta"] = report.beta
        entry["n_cap"] = report.n_cap
        entry["vacuous"] = report.vacuous
    if report.note:
        entry["note"] = report.note
    return entry


def _witness_points(entry: dict) -> dict:
    """The witness of a report entry: lam is a number, every other key a point."""
    witness = entry.get("witness") or {}
    if not isinstance(witness, dict):
        raise CheckSpecError("witness is not an object")
    out = {}
    for key, value in witness.items():
        try:
            out[key] = float(value) if key == "lam" else Point(tuple(value))
        except (TypeError, ValueError, GSpaceError):
            raise CheckSpecError(f"bad witness value {key}={value!r}") from None
    return out


def replay_entry(inst: Instance, entry: dict) -> Optional[bool]:
    """Whether a reported witness reproduces from the same config: the two
    sides recomputed bit for bit, or for starshaped the same escaping image.
    None when the entry carries no witness."""
    if not isinstance(entry["spec"], str):
        raise CheckSpecError("spec is not a string")
    c = _Spec(inst, entry["spec"])
    wit = _witness_points(entry)
    if not wit:
        return None
    return _CHECKS[c.kind].reproduces(c, wit, entry)


def _apply_tol_overrides(inst: Instance, args) -> Instance:
    for flag, field, value in (
        ("--tol-prox", "eps_prox", getattr(args, "tol_prox", None)),
        ("--tol-zero", "eps_zero", getattr(args, "tol_zero", None)),
    ):
        if value is not None:
            try:
                inst.tol = replace(inst.tol, **{field: value})
            except ToleranceError as exc:
                raise ConfigError(flag, exc.reason) from None
    return inst


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    if getattr(args, "json", False):
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    inst = _apply_tol_overrides(load_instance(args.config), args)
    specs = _expand_specs(args.checks)
    entries = []
    any_falsified = False
    for spec_text in specs:
        report = run_check(inst, spec_text, args.seed)
        entries.append(_report_entry(spec_text, report))
        falsified = report.verdict == "falsified"
        any_falsified = any_falsified or falsified
        if not args.json:
            mark = "FALSIFIED" if falsified else "holds-on-sample"
            extra = ""
            if report.vacuous:
                extra = "  [vacuous: no qualifying quadruples]"
            print(f"{spec_text:<48} {mark}{extra}")
            if falsified:
                print(f"    witness: {_witness_to_json(report.witness)}")
                print(f"    lhs: {report.lhs!r}  rhs: {report.rhs!r}")
    doc = {"checks": entries, "falsified": any_falsified}
    _emit(doc, args)
    if args.replay:
        with open(args.replay) as fh:
            try:
                previous = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CheckSpecError(f"replay report {args.replay}: {exc}") from None
        checks = previous.get("checks") if isinstance(previous, dict) else None
        if not (isinstance(checks, list) and all(isinstance(e, dict) for e in checks)):
            raise CheckSpecError(f"replay report {args.replay}: expected an object "
                                 "whose checks are a list of objects")
        ok = True
        for i, entry in enumerate(checks):
            try:
                same = replay_entry(inst, entry)
            except (KeyError, CheckSpecError) as exc:  # the entry's own fault
                fault = f"missing {exc}" if isinstance(exc, KeyError) else exc
                raise CheckSpecError(
                    f"replay report {args.replay}: checks[{i}]: {fault}"
                ) from None
            if same is None:
                continue
            ok = ok and same
            if not args.json:
                state = "reproduced" if same else "MISMATCH"
                print(f"replay {entry['spec']:<40} {state}")
        if not ok:
            return EXIT_FALSIFIED
    return EXIT_FALSIFIED if any_falsified else EXIT_OK


def solve(inst: Instance, args) -> tuple[dict, object]:
    """Run the scheme of parsed solve arguments: (summary, result), result
    being the Trace, or the BerindeResult for berinde, whose battery runs
    first, after the proximity core (Instance.core, shared with the
    battery's checks)."""
    tol = inst.tol
    g = inst.gauge(args.gauge) if args.gauge else inst.g
    f = inst.map_(args.map)
    scheme = args.scheme
    if scheme in ("picard", "power"):
        if args.from_point is None:
            raise CheckSpecError("--from is required for this scheme")
        p0 = _point_from_text(args.from_point, inst.dimension)
        alpha = args.alpha
        if alpha is None:
            est = estimate_coefficient(g, f, tol, seed=args.seed)
            if not 0.0 < est < 1.0:
                raise CheckSpecError(
                    f"no usable coefficient estimate ({est!r}); pass --alpha"
                )
            alpha = min(est + 1e-9, 0.999999999)
        if scheme == "picard":
            trace = picard(g, f, p0, alpha, tol, args.max_iter)
        else:
            trace = power_fixed_point(g, f, args.n0, p0, alpha, tol, args.max_iter)
        return _trace_summary(scheme, trace, alpha=alpha), trace
    if scheme == "proximal":
        core = inst.core(g, f.domain, f.codomain)
        p0 = core.a_g.points[0]
        if args.from_point:
            p0 = _point_from_text(args.from_point, inst.dimension)
        trace = proximal_iterate(f, core, p0, tol, args.max_iter)
        return _trace_summary(scheme, trace, proximity_level=core.d_g), trace
    if scheme == "berinde":
        cv = _need_convex(inst)
        sched = inst.schedule or Schedule.harmonic(10)
        if args.stages is not None:
            sched = Schedule.harmonic(_count(args.stages, "--stages"))
        core = inst.core(g, f.domain, f.codomain)
        battery = _battery(inst, args, f, core)
        result = berinde_scheme(f, core, cv.h, cv.s, sched, tol, args.max_iter, args.seed)
        result.battery = battery
        summary = {
            "scheme": scheme,
            "verdict": result.verdict,
            "stages": len(result.stages),
            "final": list(result.final.coords),
            "certificate_residual": result.residual,
            "hypotheses": [
                {"name": item.name, "passed": item.passed, "vacuous": item.vacuous}
                for item in result.battery
            ],
        }
        return summary, result
    raise CheckSpecError(f"unknown scheme {scheme!r}")


# The staged scheme's hypotheses in battery order, each as the verify spec
# that checks it over solve's gauge g, map f and the map's sets A and B.  The
# centres' gap to the proximity level has no check kind, hence no spec.
_BATTERY = (
    ("convex-structure", "convex:{g}"),
    ("starshaped-A", "starshaped:{A}:center=r"),
    ("starshaped-B", "starshaped:{B}:center=s"),
    ("centres-realise-level", None),
    ("semi-sharp", "semi-sharp:{g}:A={A}:B={B}"),
    ("berinde-nonexpansive", "berinde:{g}:map={f}:A={A}:B={B}"),
    ("side-condition", "side-condition:{g}:A={A}:B={B}"),
)


def _battery(inst: Instance, args, f, core) -> list[BatteryItem]:
    """The hypothesis battery of solve --scheme berinde over the gauge and
    the sets of core: an item with a spec carries run_check's report for
    it; a failed item warns, not aborts."""
    names = {"g": core.g.name, "f": f.name, "A": core.a.name, "B": core.b.name}
    items = []
    for name, spec in _BATTERY:
        if spec is None:
            gap = _prox_residual(core, inst.convex.r, inst.convex.s)
            items.append(BatteryItem(name, gap <= core.eps, note=f"gap {gap!r}"))
        elif name == "side-condition" and args.skip_side_condition:
            items.append(BatteryItem(name, True, note="skipped on request"))
        else:
            rep = run_check(inst, spec.format(**names), args.seed)
            note = "no qualifying quadruples" if rep.vacuous else rep.note
            items.append(BatteryItem(name, rep.holds, rep.vacuous, note, rep))
    return items


def _trace_summary(scheme: str, trace, **extra) -> dict:
    return dict(scheme=scheme, verdict=trace.verdict, steps=trace.steps,
                final=list(trace.final.coords),
                certificate_residual=trace.certificate_residual, **extra)


def cmd_solve(args) -> int:
    if args.max_iter < 1:  # the library takes 0: a run of no steps
        raise CheckSpecError(f"--max-iter must be at least 1, got {args.max_iter}")
    inst = _apply_tol_overrides(load_instance(args.config), args)
    summary, result = solve(inst, args)
    trace = result
    if args.scheme == "berinde":
        trace = result.trace
        if not args.json:
            for item in result.battery:
                state = "ok" if item.passed else "WARNING: failed on sample"
                extra = " (vacuous)" if item.vacuous else ""
                print(f"hypothesis {item.name:<24} {state}{extra}")
    if args.trace:
        write_trace_csv(trace, args.trace)
    if not args.json:
        print(
            f"{args.scheme}: {summary['verdict']}, final {summary['final']}, "
            f"certificate residual {summary['certificate_residual']!r}"
        )
    _emit(summary, args)
    return EXIT_OK if summary["verdict"] == "converged" else EXIT_FALSIFIED


def cmd_fixtures(args) -> int:
    reports = run_fixtures(args.pattern)
    if not reports:
        print(f"no fixtures match pattern {args.pattern!r}")
        return EXIT_OK
    all_ok = all(rep.passed for rep in reports)
    if args.json:
        _emit({"fixtures": [
            {"name": rep.name, "passed": rep.passed,
             "expectations": [asdict(o) for o in rep.outcomes]}
            for rep in reports
        ], "passed": all_ok}, args)
    else:
        width = max(len(rep.name) for rep in reports)
        for rep in reports:
            for o in rep.outcomes:
                mark = "PASS" if o.passed else "FAIL"
                print(f"{mark}  {rep.name:<{width}}  {o.label}  [{o.provenance}]")
                if not o.passed and o.detail:
                    print(f"      {o.detail}")
        total = sum(len(rep.outcomes) for rep in reports)
        print(
            f"{len(reports)} fixtures, {total} expectations, "
            f"{'all passed' if all_ok else 'FAILURES PRESENT'}"
        )
    return EXIT_OK if all_ok else EXIT_FALSIFIED


def cmd_search(args) -> int:
    values = _sweep_values(args)
    inst = _apply_tol_overrides(load_instance(args.config), args)
    c = _Spec(inst, args.check)
    check = _CHECKS[c.kind]
    if check.sweep is None:
        raise CheckSpecError("search sweeps banach, proximal-weak or berinde checks")
    estimate, reports = check.sweep(c, args.seed, values)
    rows = list(zip(values, reports))
    label = c.coef_name
    doc = {
        "check": args.check,
        "estimate": estimate if math.isfinite(estimate) else "infinite",
        "sweep": [
            {label: value, "verdict": rep.verdict, "margin": rep.margin}
            for value, rep in rows
        ],
    }
    if not args.json:
        print(f"coefficient estimate on this sample: {doc['estimate']!r}")
        for value, rep in rows:
            print(f"{label}={value!r:<24} {rep.verdict}")
    _emit(doc, args)
    return EXIT_OK


def _sweep_values(args) -> list[float]:
    """--steps values evenly from --lo to --hi; a non-finite end, fewer than
    one step or more than MAX_TUPLES, or a span whose multiples overflow a
    double is an error."""
    lo, hi, steps = args.lo, args.hi, _count(args.steps, "--steps")
    for flag, value in (("--lo", lo), ("--hi", hi)):
        if not math.isfinite(value):
            raise ConfigError(flag, f"must be finite, got {value!r}")
    if steps < 1:
        raise ConfigError("--steps", f"must be at least 1, got {steps}")
    if steps < 2:
        return [lo]
    values = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, values)):
        raise ConfigError("--lo/--hi", f"span overflows, from {lo!r} to {hi!r}")
    return values


@cache  # one per process: main and the fixture runner parse with it many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gproxim",
        description=(
            "Fixed points and best proximity points under a bivariate gauge: "
            "run falsifier checks, iteration schemes and the fixture suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="instance config (JSON)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for subsampled scans (default 0: even strides)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output on stdout")
        p.add_argument("--out", help="also write the JSON report to this path")
        p.add_argument("--tol-prox", type=float, dest="tol_prox",
                       help="override the proximity band")
        p.add_argument("--tol-zero", type=float, dest="tol_zero",
                       help="override the zero level")

    p = sub.add_parser("verify", help="run named checks against a config")
    common(p)
    p.add_argument("--checks", nargs="+", required=True,
                   metavar="KIND[:GAUGE][:KEY=VALUE]",
                   help="e.g. axioms:g banach:g:alpha=0.5 proximal-weak:g:beta=0.0625:N=0")
    p.add_argument("--replay", help="re-verify witnesses from a previous JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="run an iteration scheme")
    common(p)
    p.add_argument("--scheme", required=True,
                   choices=("picard", "power", "proximal", "berinde"))
    p.add_argument("--map", help="map name (defaults to the only one)")
    p.add_argument("--gauge", help="gauge name (defaults to g)")
    p.add_argument("--from", dest="from_point",
                   help="start point, e.g. '(0,1)' or '1'")
    p.add_argument("--alpha", type=float, help="contraction coefficient")
    p.add_argument("--n0", type=int, default=2, help="composition power")
    p.add_argument("--stages", type=int, help="stage count for the staged scheme")
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--trace", help="write the iteration trace CSV here")
    p.add_argument("--skip-side-condition", action="store_true",
                   help="omit the two-centre side condition from the battery")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fixtures", help="replay the shipped reference instances")
    p.add_argument("pattern", nargs="?", default="*", help="glob over fixture names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("search", help="sweep a coefficient against a check")
    common(p)
    p.add_argument("--check", required=True,
                   help="banach:g[:map=T] or proximal-weak:g[:N=0]")
    p.add_argument("--lo", type=float, default=0.05)
    p.add_argument("--hi", type=float, default=0.95)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckSpecError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (GSpaceError, EvalError, OSError) as exc:
        if isinstance(exc, NoProximalMate):
            print(f"no proximity mate: {exc}", file=sys.stderr)
            return EXIT_FALSIFIED
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    # run as __main__, this file is a second module beside gproxim.cli, which
    # the fixture runner imports: use that one, so one CheckSpecError is caught
    from gproxim.cli import main as package_main

    sys.exit(package_main())
