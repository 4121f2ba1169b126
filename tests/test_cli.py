import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import counting_builds, reflection_doc, solve_berinde, write_config
from gproxim.cli import main, parse_check_spec
from gproxim.fixtures import fixture_config_path


@pytest.fixture(scope="module")
def quarter():
    return str(fixture_config_path("quarter-proximal"))


@pytest.fixture(scope="module")
def halving():
    return str(fixture_config_path("halving-on-unit"))


@pytest.fixture(scope="module")
def parallel():
    return str(fixture_config_path("parallel-segments"))


@pytest.fixture()
def small_convex_config(tmp_path):
    doc = {
        "dimension": 2,
        "g": "x2 - u2",
        "sets": {
            "A": {"box": [[0, 0], [-1, 0]], "resolution": [1, 51]},
            "B": {"box": [[0, 0], [0, 1]], "resolution": [1, 51]},
        },
        "maps": {"f": {"exprs": ["x1", "-x2"], "domain": "A", "codomain": "B"}},
        "convex": {
            "exprs": ["l*x1 + (1-l)*u1", "l*x2 + (1-l)*u2"],
            "r": [0, 0], "s": [0, 0], "lambda_grid": 5,
        },
        "schedule": {"rule": "harmonic", "stages": 4},
    }
    path = tmp_path / "reflection-small.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckSpecParsing:
    def test_full_spec(self):
        kind, gauge, params = parse_check_spec("proximal-weak:h:beta=0.9:N=1")
        assert kind == "proximal-weak" and gauge == "h"
        assert params == {"beta": "0.9", "N": "1"}

    def test_kind_only(self):
        assert parse_check_spec("identity") == ("identity", None, {})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_check_spec("positivity:g")


class TestVerify:
    def test_holding_check_exits_zero(self, quarter):
        code = main(
            ["verify", "--config", quarter,
             "--checks", "proximal-weak:g:beta=0.0625:N=0"]
        )
        assert code == 0

    def test_falsified_check_exits_one(self, quarter, capsys):
        code = main(
            ["verify", "--config", quarter,
             "--checks", "proximal-weak:h:beta=0.9:N=1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FALSIFIED" in out and "witness" in out

    def test_unparsable_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 1, "g": "x1 +", "sets": {}}))
        assert main(["verify", "--config", str(bad), "--checks", "identity"]) == 2
        assert "error" in capsys.readouterr().err

    def test_axioms_expand_to_three_checks(self, quarter, capsys):
        code = main(
            ["verify", "--config", quarter, "--checks", "axioms:g:set=A"]
        )
        out = capsys.readouterr().out
        assert code == 1  # the square-difference gauge violates identity on A
        assert "identity" in out and "symmetry" in out and "triangle" in out

    def test_json_output_is_deterministic(self, quarter, capsys):
        argv = ["verify", "--config", quarter, "--json",
                "--checks", "proximal-weak:h:beta=0.9:N=1"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["falsified"] is True
        entry = doc["checks"][0]
        assert set(entry["witness"]) == {"x1", "x2", "u1", "u2"}

    def test_replay_reproduces_witnesses(self, quarter, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["verify", "--config", quarter, "--out", str(report),
              "--checks", "proximal-weak:h:beta=0.9:N=1"])
        capsys.readouterr()
        code = main(
            ["verify", "--config", quarter,
             "--checks", "proximal-weak:h:beta=0.9:N=1",
             "--replay", str(report)]
        )
        out = capsys.readouterr().out
        assert code == 1  # the rerun still falsifies
        assert "reproduced" in out and "MISMATCH" not in out

    def test_replay_reproduces_a_starshaped_witness(self, tmp_path, capsys):
        # H(r, x, l) is pushed below [0, 1] for x above 1/2, so the first
        # escaping interpolant is at x = 5/8, lam = 1/4; the spec's target
        # names a set, and the report carries an image but no lhs or rhs
        doc = {
            "dimension": 1,
            "g": "abs(x1-u1)",
            "sets": {"A": {"box": [[0, 1]], "resolution": [9]}},
            "convex": {
                "exprs": ["l*x1 + (1-l)*u1 - l*(1-l)*1024*max(u1 - 0.5, 0)"],
                "r": [0], "s": [0], "lambda_grid": [0, 0.25, 0.5, 0.75, 1],
            },
        }
        cfg = tmp_path / "star.json"
        cfg.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        argv = ["verify", "--config", str(cfg), "--checks", "starshaped:A"]
        assert main(argv + ["--out", str(report)]) == 1
        entry = json.loads(report.read_text())["checks"][0]
        assert entry["witness"]["x"] == [0.625] and entry["lhs"] is None
        capsys.readouterr()
        assert main(argv + ["--replay", str(report)]) == 1  # still falsified
        out = capsys.readouterr().out
        assert "replay starshaped:A" in out and "reproduced" in out
        # a different image in the report is a mismatch, not a crash
        doc_report = json.loads(report.read_text())
        doc_report["checks"][0]["witness"]["image"] = [0.0]
        report.write_text(json.dumps(doc_report))
        assert main(argv + ["--replay", str(report)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_malformed_replay_report_exits_two(self, halving, tmp_path, capsys):
        report = tmp_path / "report.json"
        argv = ["verify", "--config", halving, "--checks", "identity:g"]
        report.write_text("not json")
        assert main(argv + ["--replay", str(report)]) == 2
        entry = {"spec": "identity:g", "witness": {"x": ["a"], "y": [0.0]},
                 "lhs": 0.0, "rhs": 1e-9}
        report.write_text(json.dumps({"checks": [entry]}))
        assert main(argv + ["--replay", str(report)]) == 2
        assert "bad witness value x=['a']" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda entry: {}, "expected an object whose checks are a list of objects"),
        (lambda entry: [], "expected an object whose checks are a list of objects"),
        (lambda entry: {"checks": 5},
         "expected an object whose checks are a list of objects"),
        (lambda entry: {"checks": [{}]}, "checks[0]: missing 'spec'"),
        (lambda entry: {"checks": [dict(entry, witness={"x": entry["witness"]["x"]})]},
         "checks[0]: missing 'y'"),
        (lambda entry: {"checks": [{k: v for k, v in entry.items()
                                    if k not in ("lhs", "rhs")}]},
         "checks[0]: missing 'lhs'"),
        (lambda entry: {"checks": [dict(entry, witness=[1])]},
         "checks[0]: witness is not an object"),
        (lambda entry: {"checks": [dict(entry, witness=dict(entry["witness"], x=1.0))]},
         "checks[0]: bad witness value x=1.0"),
        (lambda entry: {"checks": [dict(entry, witness=dict(entry["witness"], x=[]))]},
         "checks[0]: bad witness value x=[]"),
        (lambda entry: {"checks": [dict(entry, spec=5)]}, "checks[0]: spec is not a string"),
    ], ids=["empty-object", "list", "checks-not-a-list", "entry-without-spec",
            "witness-without-y", "entry-without-sides", "witness-not-an-object",
            "number-for-a-point", "empty-point", "spec-not-a-string"])
    def test_a_replay_report_of_the_wrong_shape_exits_two_with_one_line(
        self, edit, message, tmp_path, capsys
    ):
        cfg = str(fixture_config_path("min-contraction"))
        spec = "banach:h:map=T:alpha=0.9"
        report = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--checks", spec, "--out", str(report)]) == 1
        entry = json.loads(report.read_text())["checks"][0]
        report.write_text(json.dumps(edit(entry)))
        capsys.readouterr()
        argv = ["verify", "--config", cfg, "--checks", "identity:g", "--replay", str(report)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: replay report {report}: {message}\n"

    def test_non_numeric_check_parameter_exits_two(self, halving, capsys):
        code = main(
            ["verify", "--config", halving, "--checks", "banach:g:alpha=x"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("spec,message", [
        ("positivity:g", "unknown check kind 'positivity'; expected one of identity, "
         "symmetry, triangle, axioms, banach, proximal-weak, berinde, convex, "
         "starshaped, semi-sharp, side-condition"),
        ("banach:g", "banach check needs alpha=<value in (0,1)>"),
        ("proximal-weak:g:N=1", "proximal-weak check needs beta=<value>"),
        ("convex:g", "this check needs a 'convex' block in the config"),
        ("starshaped:A", "this check needs a 'convex' block in the config"),
        ("side-condition:g", "this check needs a 'convex' block in the config"),
        ("proximal-weak:g:beta=0.5:N=nan", "N must be non-negative and finite, got nan"),
        ("proximal-weak:g:beta=0.5:N=inf", "N must be non-negative and finite, got inf"),
        ("berinde:g:N=nan", "N must be non-negative and finite, got nan"),
        ("berinde:g:N=-1", "N must be non-negative and finite, got -1.0"),
        # a key the kind does not read, which was once dropped in silence
        ("proximal-weak:g:beta=0.0625:n=1",
         "proximal-weak check reads no key 'n'; it reads map, A, B, beta, N"),
        ("berinde:g:beta=0.5", "berinde check reads no key 'beta'; it reads map, A, B, N"),
        ("banach:g:alpha=0.5:N=1", "banach check reads no key 'N'; it reads map, alpha"),
        ("axioms:g:set=A:map=f", "axioms check reads no key 'map'; it reads set"),
        ("identity:g:A=A", "identity check reads no key 'A'; it reads set"),
        ("convex:g:center=r", "convex check reads no key 'center'; it reads set"),
        ("semi-sharp:g:set=A", "semi-sharp check reads no key 'set'; it reads A, B"),
        ("side-condition:g:map=f", "side-condition check reads no key 'map'; it reads A, B"),
        ("starshaped:A:centre=r", "starshaped check reads no key 'centre'; it reads set, center"),
        ("starshaped:A:center=q", "center must be r or s, got 'q'"),
        ("starshaped:A:center=", "center must be r or s, got ''"),
        # a repeated key, whose last value once won in silence
        ("banach:g:map=T:alpha=0.5:alpha=0.7",
         "key 'alpha' given twice in check 'banach:g:map=T:alpha=0.5:alpha=0.7'"),
    ])
    def test_bad_check_spec_exits_two_with_one_line(self, quarter, spec, message, capsys):
        assert main(["verify", "--config", quarter, "--checks", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_literal_beyond_a_double_is_evaluated_not_a_crash(self, tmp_path, capsys):
        # 1/1e999 is 1/inf = 0, a finite gauge; 0*1e999 is NaN, bad input
        cfg = tmp_path / "inf.json"
        argv = ["verify", "--config", str(cfg), "--checks", "identity:g"]
        doc = {"dimension": 1, "sets": {"A": {"box": [[0, 1]], "resolution": [5]}}}
        cfg.write_text(json.dumps(dict(doc, g="abs(x1-u1) + 1/1e999")))
        assert main(argv) == 0
        capsys.readouterr()
        cfg.write_text(json.dumps(dict(doc, g="abs(x1-u1) + 0*1e999")))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("terms", [250, 1200])
    def test_a_gauge_too_deep_to_compile_exits_two_with_one_line(
        self, terms, tmp_path, capsys
    ):
        # 250 terms once overflowed Python's nested parentheses, 1200 its
        # recursion limit, each with a traceback and exit 1
        cfg = tmp_path / "deep.json"
        doc = {"dimension": 1, "g": "abs(x1-u1)" + "+1" * terms,
               "sets": {"A": {"points": [[0], [1]]}}}
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg), "--checks", "identity:g"]) == 2
        assert capsys.readouterr().err == (
            "error: g: syntax error at offset 0: expected an expression at most "
            f"64 levels deep, found one {terms + 3} levels deep\n"
        )

    def test_tolerance_override_changes_verdict(self, halving, capsys):
        # the square-difference gauge separates points of [0, 1], so the
        # identity axiom holds; loosening the zero level collapses nearby
        # grid points and the falsifier finds a witness
        assert main(
            ["verify", "--config", halving, "--checks", "identity:g"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["verify", "--config", halving, "--checks", "identity:g",
             "--tol-zero", "0.001"]
        ) == 1


_LAMBDAS = [0, 0.25, 0.5, 0.75, 1]
_UNIT = {"A": {"box": [[0, 1]], "resolution": [9]}}


def _planted_doc(g, sets=_UNIT, dimension=1, **extra):
    """A config with gauge g and a symmetric gauge "ok" whose checks hold."""
    doc = {"dimension": dimension, "g": g, "functions": {"ok": "abs(x1-u1)"},
           "sets": sets}
    doc.update(extra)
    return doc


def _linear_h(*extra_terms, dimension=1, r=(0,), s=(0,)):
    exprs = [f"l*x{i} + (1-l)*u{i}" for i in range(1, dimension + 1)]
    exprs = [e + t for e, t in zip(exprs, extra_terms)] + exprs[len(extra_terms):]
    return {"exprs": exprs, "r": list(r), "s": list(s), "lambda_grid": _LAMBDAS}


def _planted_quarter():
    doc = json.loads(fixture_config_path("quarter-proximal").read_text())
    doc["functions"]["ok"] = "abs(x1-u1)"
    return doc


# One config per check kind with a violation planted in it, and the spec
# that finds it.
PLANTED = {
    # every point at or above 1/2 collapses to one
    "identity": (lambda: _planted_doc("abs(min(x1, 0.5) - min(u1, 0.5))"), "identity:g"),
    # asymmetric once both points lie above 0.4
    "symmetry": (
        lambda: _planted_doc("abs(x1-u1) + max(min(x1,u1) - 0.4, 0)*(x1-u1)"),
        "symmetry:g",
    ),
    # the squared distance: (0, 1/8, 1/4) gives 1/16 > 1/64 + 1/64
    "triangle": (lambda: _planted_doc("(x1-u1)^2"), "triangle:g"),
    "banach": (
        lambda: _planted_doc("abs(x1-u1)", maps={
            "T": {"exprs": ["0.75*x1"], "domain": "A", "codomain": "A"}}),
        "banach:g:alpha=0.5",
    ),
    "proximal-weak": (_planted_quarter, "proximal-weak:h:beta=0.9:N=1"),
    "berinde": (_planted_quarter, "berinde:h"),
    # g(x0, .) is |x0 - .| plus, for x0 above 0.45, a strictly concave bump
    "convex-condition-one": (
        lambda: _planted_doc("abs(x1-u1) + max(x1 - 0.45, 0)*u1*(1 - u1)",
                             convex=_linear_h()),
        "convex:g",
    ),
    # g reads only its first point, so condition one holds with equality;
    # H overshoots the chord by l(1-l), which breaks condition two
    "convex-condition-two": (
        lambda: _planted_doc("x1", convex=_linear_h(" + l*(1-l)")), "convex:g",
    ),
    "semi-sharp": (
        lambda: _planted_doc("x1^2 - u1^2", sets={
            "A": {"points": [[1]]}, "B": {"points": [[-1], [1]]}}),
        "semi-sharp:g",
    ),
    # abs(g(r, x)) + abs(g(y, s)) = 2 + max(x2 - 0.45, 0) against the level 2
    "side-condition": (
        lambda: _planted_doc(
            "abs(x1-u1) + max(u2 - 0.45, 0)*max(-x1, 0)", dimension=2,
            sets={"A": {"box": [[0, 0], [0, 1]], "resolution": [1, 9]},
                  "B": {"box": [[1, 1], [0, 1]], "resolution": [1, 9]}},
            convex=_linear_h(dimension=2, r=(-1, 0), s=(0, 0))),
        "side-condition:g",
    ),
    # H(r, x, l) is pushed below [0, 1] for x above 1/2
    "starshaped": (
        lambda: _planted_doc("abs(x1-u1)", convex=_linear_h(
            " - l*(1-l)*1024*max(u1 - 0.5, 0)")),
        "starshaped:A",
    ),
}


@pytest.mark.parametrize("name", list(PLANTED))
def test_replay_reproduces_every_check_kind(name, tmp_path, capsys):
    make, spec = PLANTED[name]
    cfg = tmp_path / "planted.json"
    cfg.write_text(json.dumps(make()))
    report = tmp_path / "r.json"
    argv = ["verify", "--config", str(cfg), "--checks", spec]
    assert main(argv + ["--out", str(report)]) == 1
    doc = json.loads(report.read_text())
    entry = doc["checks"][0]
    assert entry["verdict"] == "falsified"
    if name.startswith("convex-"):
        assert entry["note"] == name[len("convex-"):].replace("-", " ")
    capsys.readouterr()
    assert main(argv + ["--replay", str(report)]) == 1  # still falsified
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("replay ")]
    assert lines == [f"replay {spec:<40} reproduced"]
    # with checks that hold, the replay alone sets the exit code
    holding = ["verify", "--config", str(cfg), "--checks", "symmetry:ok",
               "--replay", str(report)]
    assert main(holding) == 0
    if entry["lhs"] is None:  # starshaped replays its image, not two sides
        return
    entry["lhs"] = math.nextafter(entry["lhs"], math.inf)
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(holding) == 1
    assert f"replay {spec:<40} MISMATCH" in capsys.readouterr().out


# (fixture, specs of one verify, contraction rows it builds): the specs that
# read the same rows share one build; a spec that fails before its build,
# such as one whose coefficient is out of range, stops the command
GROUPED_VERIFIES = [
    ("min-contraction", ["banach:g:map=T:alpha=0.5", "banach:g:alpha=0.25",
                         "banach:h:map=T:alpha=0.9", "banach:g:map=T:alpha=0.75"], 2),
    ("min-contraction", ["banach:g:alpha=0.5", "banach:g:alpha=0.5"], 1),
    ("min-contraction", ["banach:g:alpha=0.5", "banach:g:alpha=1.5",
                         "banach:g:alpha=0.25"], 1),
    ("min-contraction", ["banach:g:alpha=0.5", "banach:nope:alpha=0.5",
                         "banach:g:alpha=0.25"], 1),
    ("min-contraction", ["banach:g:alpha=0.5", "banach:g:map=nope:alpha=0.25"], 1),
    ("min-contraction", ["banach:g:alpha=0.5", "banach:g", "banach:g:alpha=0.25"], 1),
    ("quarter-proximal", ["proximal-weak:g:beta=0.0625:N=0", "berinde:g:N=0",
                          "proximal-weak:g:beta=0.03125:N=0", "proximal-weak:h:beta=0.9:N=1",
                          "berinde:h:N=1", "identity:g", "proximal-weak:g:beta=0.5:N=1"], 3),
    ("quarter-proximal", ["berinde:g", "proximal-weak:g:beta=2:N=0", "berinde:g:N=0.0"], 1),
    ("quarter-proximal", ["berinde:g:N=0", "berinde:g:N=-0.0", "berinde:g:N=nan"], 2),
    ("quarter-proximal", ["proximal-weak:g:beta=0.5", "proximal-weak:g:beta=x"], 1),
]
# the fixtures' sets, coarser: the answers are compared, not their values
RESOLUTION = {"min-contraction": [5, 5], "quarter-proximal": [1, 17]}


@pytest.mark.parametrize("name, specs, builds", GROUPED_VERIFIES)
def test_verify_answers_a_row_group_in_one_pass_as_one_by_one(
    name, specs, builds, tmp_path, monkeypatch, capsys
):
    import gproxim.cli as cli_module
    from gproxim.config import load_instance

    doc = json.loads(fixture_config_path(name).read_text())
    for spec in doc["sets"].values():
        spec["resolution"] = RESOLUTION[name]
    config, report = write_config(tmp_path, doc), tmp_path / "r.json"
    argv = ["verify", "--config", config, "--out", str(report), "--checks", *specs]

    def run():  # exit, stdout, stderr and the JSON report, if written
        code, out = main(argv), capsys.readouterr()
        doc = report.read_text() if report.exists() else None
        report.unlink(missing_ok=True)
        return code, *out, doc

    built = counting_builds(monkeypatch)
    shared = run()
    assert len(built) == len(set(built)) == builds
    real = cli_module.run_check  # each spec on a fresh instance of the config
    monkeypatch.setattr(cli_module, "run_check",
                        lambda inst, text, seed: real(load_instance(config), text, seed))
    assert shared == run()


@pytest.mark.parametrize("specs", [["banach:g:alpha=0.5", "banach:g:alpha=0.25"],
                                   ["proximal-weak:g:beta=0.5", "berinde:g"]])
def test_a_rows_build_that_raises_raises_again_for_the_next_subject(specs, monkeypatch):
    # T's image of 1 overflows: the build raises and is not kept, so the next
    # spec that reads the same rows builds them again and raises alike
    from gproxim.cli import run_check
    from gproxim.config import instance_from_dict
    from gproxim.gspace import GSpaceError

    one = {"points": [[0], [1]]}
    inst = instance_from_dict({"dimension": 1, "g": "abs(x1-u1)", "sets": {"A": one, "B": one},
                               "maps": {"T": {"exprs": ["x1*1e308*10"], "domain": "A",
                                              "codomain": "B"}}})
    built, errors = counting_builds(monkeypatch), []
    for spec in specs:
        with pytest.raises(GSpaceError) as info:
            run_check(inst, spec)
        errors.append((type(info.value), str(info.value)))
    assert len(built) == 2 and len(set(built)) == 1
    assert errors == [errors[0]] * 2
    assert errors[0][1].startswith("map 'T' produced non-finite image at ")


def test_one_proximity_core_per_command(tmp_path, monkeypatch, capsys):
    # semi-sharp, side-condition and their replays share the core of (A, B)
    import gproxim.config as config_module
    import gproxim.gspace as gspace_module

    calls = []
    real = gspace_module.proximal_core

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(config_module, "proximal_core", counting)
    monkeypatch.setattr(gspace_module, "proximal_core", counting)
    cfg = tmp_path / "planted.json"
    cfg.write_text(json.dumps(PLANTED["side-condition"][0]()))
    report = tmp_path / "r.json"
    argv = ["verify", "--config", str(cfg), "--checks", "semi-sharp:g",
            "side-condition:g"]
    assert main(argv + ["--out", str(report)]) == 1
    assert len(calls) == 1
    calls.clear()
    assert main(argv + ["--replay", str(report)]) == 1
    assert capsys.readouterr().out.count("reproduced") == 2
    assert len(calls) == 1


class TestSolve:
    def test_picard_halving(self, halving, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve", "--config", halving, "--scheme", "picard",
             "--from", "1", "--alpha", "0.25", "--trace", str(trace), "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "converged"
        assert doc["steps"] <= 16
        header = trace.read_text().splitlines()[0]
        assert header == "step,x1,step_residual,proximity_residual,apriori_bound"

    def test_picard_alpha_estimated_when_omitted(self, halving, capsys):
        code = main(
            ["solve", "--config", halving, "--scheme", "picard",
             "--from", "1", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == pytest.approx(0.25, abs=1e-6)

    def test_picard_max_iter_exits_one(self, halving, capsys):
        code = main(
            ["solve", "--config", halving, "--scheme", "picard",
             "--from", "1", "--alpha", "0.25", "--max-iter", "3"]
        )
        assert code == 1

    @pytest.mark.parametrize("scheme", ["picard", "proximal"])
    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_max_iter_below_one_exits_two_with_one_line(
        self, halving, parallel, scheme, max_iter, capsys
    ):
        cfg = halving if scheme == "picard" else parallel
        argv = ["solve", "--config", cfg, "--scheme", scheme, "--from", "1",
                "--alpha", "0.25", "--max-iter", max_iter]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-iter must be at least 1, got {max_iter}\n"

    @pytest.mark.parametrize("alpha", ["0.01", "0.1"])
    def test_picard_understated_alpha_is_not_converged(self, halving, alpha, capsys):
        # the fixed point is 0; at alpha 0.01 the tail bound falls below zero
        # level at x = 0.03125, where the certificate residual is 7.3e-4
        code = main(
            ["solve", "--config", halving, "--scheme", "picard",
             "--from", "1", "--alpha", alpha, "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate_residual"] > 1e-9
        assert doc["verdict"] != "converged" and code == 1

    def test_proximal_parallel_segments(self, parallel, capsys):
        code = main(
            ["solve", "--config", parallel, "--scheme", "proximal",
             "--from", "(0,1)", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "converged"
        assert doc["final"][0] == 0.0
        assert abs(doc["final"][1]) < 1e-5
        assert doc["proximity_level"] == 1.0

    def test_power_scheme(self, tmp_path, capsys):
        doc = {
            "dimension": 1,
            "g": "x1 - u1",
            "sets": {"X": {"box": [[-1, 1]], "resolution": [201]}},
            "maps": {"U": {"exprs": ["-x1/2"], "domain": "X", "codomain": "X"}},
            "tolerances": {"eps_prox": 1e-9},
        }
        cfg = tmp_path / "flip.json"
        cfg.write_text(json.dumps(doc))
        code = main(
            ["solve", "--config", str(cfg), "--scheme", "power",
             "--from", "1", "--alpha", "0.25", "--n0", "2", "--json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["final"][0]) <= 1e-9

    def test_berinde_scheme_with_and_without_side_condition(
        self, small_convex_config, capsys
    ):
        code = main(
            ["solve", "--config", small_convex_config, "--scheme", "berinde",
             "--stages", "4", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["final"] == [0.0, 0.0]
        assert all(h["passed"] for h in doc["hypotheses"])
        code = main(
            ["solve", "--config", small_convex_config, "--scheme", "berinde",
             "--stages", "2", "--skip-side-condition", "--json"]
        )
        assert code == 0

    def test_trace_bytes_are_deterministic(self, halving, tmp_path):
        runs = []
        for tag in ("a", "b"):
            path = tmp_path / f"trace-{tag}.csv"
            main(
                ["solve", "--config", halving, "--scheme", "picard",
                 "--from", "1", "--alpha", "0.25", "--trace", str(path)]
            )
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("golden, fixture, scheme", [
        ("trace_picard_halving-on-unit.csv", "halving-on-unit",
         ["picard", "--from", "1", "--alpha", "0.25"]),
        ("trace_power2_box-shift.csv", "box-shift",
         ["power", "--n0", "2", "--from", "(1,0.5,-0.5,1)", "--alpha", "0.5"]),
    ])
    def test_trace_bytes_equal_the_golden(self, golden, fixture, scheme, tmp_path):
        # the goldens were written before the steps ran in one compiled loop
        path = tmp_path / "trace.csv"
        argv = ["solve", "--config", str(fixture_config_path(fixture)), "--scheme", *scheme]
        assert main(argv + ["--trace", str(path)]) == 0
        assert path.read_bytes() == (Path(__file__).parent / "data" / golden).read_bytes()

    def test_bad_point_literal_exits_two(self, halving, capsys):
        code = main(
            ["solve", "--config", halving, "--scheme", "picard",
             "--from", "(1,2)", "--alpha", "0.25"]
        )
        assert code == 2

    def test_non_numeric_start_point_exits_two(self, halving, capsys):
        code = main(
            ["solve", "--config", halving, "--scheme", "picard",
             "--from", "abc", "--alpha", "0.25"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: point 'abc'") and len(err.splitlines()) == 1


class TestFixturesCommand:
    def test_filtered_run_passes(self, capsys):
        assert main(["fixtures", "finite-*"]) == 0
        out = capsys.readouterr().out
        assert "finite-sets" in out and "all passed" in out

    def test_empty_selection_warns_and_exits_zero(self, capsys):
        assert main(["fixtures", "nonexistent"]) == 0
        assert "no fixtures match" in capsys.readouterr().out

    def test_json_mode(self, capsys):
        assert main(["fixtures", "segment-*", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["fixtures"][0]["name"] == "segment-bpp"


class TestSearch:
    def test_banach_sweep_brackets_the_coefficient(self, halving, capsys):
        code = main(
            ["search", "--config", halving, "--check", "banach:g",
             "--lo", "0.125", "--hi", "0.875", "--steps", "4", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"] == 0.25
        verdicts = {row["alpha"]: row["verdict"] for row in doc["sweep"]}
        assert verdicts[0.125] == "falsified"
        assert all(
            v == "holds-on-sample" for a, v in verdicts.items() if a > 0.25
        )

    def test_proximal_sweep(self, quarter, capsys):
        code = main(
            ["search", "--config", quarter, "--check", "proximal-weak:g:N=0",
             "--lo", "0.03125", "--hi", "0.5", "--steps", "2", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"] == pytest.approx(0.0625, abs=1e-9)
        assert doc["sweep"][0]["verdict"] == "falsified"
        assert doc["sweep"][1]["verdict"] == "holds-on-sample"


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gproxim.cli", "fixtures", "g-closed-*"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "all passed" in proc.stdout


@pytest.mark.parametrize("field, value, message", [
    ("g", 5, "error: g: expected an expression string, got 5"),
    ("points", [[0], ["a"]],
     "error: sets.A.points[1]: expected a list of numbers, got ['a']"),
])
def test_bad_config_value_exits_two_with_one_line(field, value, message, tmp_path, capsys):
    doc = {"dimension": 1, "g": "abs(x1-u1)", "sets": {"A": {"points": [[0], [1]]}}}
    if field == "g":
        doc["g"] = value
    else:
        doc["sets"]["A"]["points"] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--checks", "identity:g"]) == 2
    assert capsys.readouterr().err == message + "\n"


SPEC_NAME = "a name holding ':' or '=' cannot appear in a check spec"


@pytest.mark.parametrize("patch, path, message", [
    ({"maps": {"T": 5}}, "maps.T", None),
    ({"functions": [1]}, "functions", None),
    ({"schedule": {"values": ["a"]}}, "schedule.values", None),
    ({"sets": {"A": {"box": [[0, 1]], "resolution": "a"}}}, "sets.A.resolution", None),
    ({"schedule": {"stages": "a"}}, "schedule.stages", None),
    ({"schedule": {"stages": 2.5}}, "schedule.stages", None),
    ({"tolerances": {"tail_len": 2.5}}, "tolerances.tail_len", None),
    ({"dimension": True}, "dimension", None),
    ({"sets": {"A": {"points": [[True], ["0.5"]]}}}, "sets.A.points[0]", None),
    ({"sets": {"A": {"points": [[0], ["0.5"]]}}}, "sets.A.points[1]", None),
    ({"tolerances": {"eps_zero": True}}, "tolerances.eps_zero", None),
    ({"tolerances": {"eps_ineq": "0.5"}}, "tolerances.eps_ineq", None),
    ({"sets": {"A": {"points": [[0], [10 ** 400]]}}}, "sets.A.points[1]", None),
    ({"tolerances": {"eps_zero": 10 ** 400}}, "tolerances.eps_zero", None),
    ({"tolerances": {"eps_ineq": math.nan}}, "tolerances.eps_ineq",
     "must be non-negative and finite, got nan"),
    ({"tolerances": {"eps_ineq": math.inf}}, "tolerances.eps_ineq",
     "must be non-negative and finite, got inf"),
    ({"tolerances": {"eps_ineq": -math.inf}}, "tolerances.eps_ineq",
     "must be non-negative and finite, got -inf"),
    ({"tolerances": {"eps_zero": math.nan}}, "tolerances.eps_zero",
     "must be positive and finite, got nan"),
    ({"tolerances": {"eps_zero": math.inf}}, "tolerances.eps_zero",
     "must be positive and finite, got inf"),
    ({"tolerances": {"eps_prox": math.nan}}, "tolerances.eps_prox",
     "must be positive and finite, got nan"),
    ({"tolerances": {"eps_prox": math.inf}}, "tolerances.eps_prox",
     "must be positive and finite, got inf"),
    ({"tolerances": {"eps_zero": -1}}, "tolerances.eps_zero",
     "must be positive and finite, got -1.0"),
    ({"tolerances": {"eps_prox": 0}}, "tolerances.eps_prox",
     "must be positive and finite, got 0.0"),
    ({"tolerances": {"eps_ineq": -0.5}}, "tolerances.eps_ineq",
     "must be non-negative and finite, got -0.5"),
    ({"tolerances": {"tail_len": 0}}, "tolerances.tail_len", "must be at least 1, got 0"),
    ({"sets": {"A:1": {"points": [[0], [1]]}}}, "sets.A:1", SPEC_NAME),
    ({"functions": {"h=1": "abs(x1-u1)"}}, "functions.h=1", SPEC_NAME),
    ({"maps": {"T:x": {"exprs": ["x1"], "domain": "A", "codomain": "A"}}}, "maps.T:x",
     SPEC_NAME),
    ({"maps": {"T": {"exprs": ["x1"], "domain": ["A"], "codomain": "A"}}}, "maps.T.domain",
     "expected a set name, got ['A']"),
    ({"maps": {"T": {"exprs": ["x1"], "domain": "A", "codomain": {"A": 1}}}},
     "maps.T.codomain", "expected a set name, got {'A': 1}"),
    ({"sets": {"A": {"box": [[0, 1]], "resolution": [10 ** 400]}}}, "sets.A.resolution",
     "integer too large for a double"),
    ({"sets": {"A": {"box": [[0, 1]], "resolution": 10 ** 400}}}, "sets.A.resolution",
     "integer too large for a double"),
    ({"convex": {"exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [1],
                 "lambda_grid": [0, 1, 2]}}, "convex.lambda_grid", "values must lie in [0, 1]"),
    ({"convex": {"exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [1],
                 "lambda_grid": [-0.5, 0, 1]}}, "convex.lambda_grid",
     "values must lie in [0, 1]"),
    ({"convex": {"exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [1],
                 "lambda_grid": [0, math.nan, 1]}}, "convex.lambda_grid",
     "values must lie in [0, 1]"),
    ({"functions": {"g": "0*x1"}}, "functions.g", "the name 'g' is taken by the main gauge"),
    ({"convex": {"exprs": ["l*x1 + (1-l)*u1"], "r": [0, 0], "s": [1]}}, "convex.r",
     "expected 1 coordinates"),
    ({"convex": {"exprs": ["l*x1 + (1-l)*u1"], "r": [math.nan], "s": [1]}}, "convex.r",
     "non-finite coordinates: (nan,)"),
    ({"sets": {"A": {"box": [[-1e308, 1e308]], "resolution": 3}}}, "sets.A",
     "non-finite coordinates: (nan,)"),
    ({"dimension": 2, "sets": {"A": {"box": [[0, 1], [-1e308, 1e308]], "resolution": [2, 3]}}},
     "sets.A", "non-finite coordinates: (0.0, nan)"),
    ({"sets": {"A": {"box": [[0, 5e-324]], "resolution": 3}}}, "sets.A",
     "duplicate point (0.0) in 'A'"),
], ids=["map-not-an-object", "functions-not-an-object", "non-numeric-schedule",
        "non-numeric-resolution", "non-numeric-stages", "fractional-stages",
        "fractional-tail-len", "boolean-dimension", "boolean-coordinate",
        "string-coordinate", "boolean-tolerance", "string-tolerance",
        "huge-integer-coordinate", "huge-integer-tolerance",
        "nan-eps-ineq", "infinite-eps-ineq", "minus-infinite-eps-ineq",
        "nan-eps-zero", "infinite-eps-zero", "nan-eps-prox", "infinite-eps-prox",
        "negative-eps-zero", "zero-eps-prox", "negative-eps-ineq", "zero-tail-len",
        "set-name-with-colon", "function-name-with-equals", "map-name-with-colon",
        "map-domain-not-a-name", "map-codomain-not-a-name", "huge-integer-resolution",
        "huge-integer-scalar-resolution", "lambda-above-one", "lambda-below-zero",
        "nan-lambda", "functions-named-g", "centre-of-the-wrong-dimension",
        "nan-centre", "grid-span-beyond-a-double", "grid-span-beyond-a-double-2d",
        "grid-step-below-a-double"])
def test_config_of_the_wrong_shape_exits_two_with_one_line(
    patch, path, message, tmp_path, capsys
):
    doc = {"dimension": 1, "g": "abs(x1-u1)", "sets": {"A": {"points": [[0], [1]]}}}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**doc, **patch}))
    assert main(["verify", "--config", str(cfg), "--checks", "identity:g"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    if message is not None:
        assert err == f"error: {path}: {message}\n"


CONVEX_1D = {"exprs": ["l*x1 + (1-l)*u1"], "r": [0], "s": [1]}
HUGE = "must be at most 1000000, got 1000000000000"


def box_set(box: list, resolution) -> dict:
    """A config patch whose one set A is a box grid."""
    return {"dimension": len(box), "sets": {"A": {"box": box, "resolution": resolution}}}


@pytest.mark.parametrize("patch, argv, err", [
    ({"convex": {**CONVEX_1D, "lambda_grid": 10 ** 400}}, None,
     "convex.lambda_grid: integer too large for a double"),
    ({"convex": {**CONVEX_1D, "lambda_grid": 10 ** 12}}, None, f"convex.lambda_grid: {HUGE}"),
    ({"schedule": {"stages": 1e12}}, None, f"schedule.stages: {HUGE}"),
    (None, ["solve", "--scheme", "berinde", "--stages", "1000000000000"], f"--stages: {HUGE}"),
    ({"dimension": 10 ** 12}, None, f"dimension: {HUGE}"),
    ({"dimension": 1e308}, None, "dimension: must be at most 1000000, got 1e+308"),
    (None, ["search", "--check", "banach:g:map=f", "--steps", "1000000000000"],
     f"--steps: {HUGE}"),
    (box_set([[0, 1]], 1e308), None,
     "sets.A.resolution: a grid of 1e+308 points does not fit in memory"),
    (box_set([[0, 0], [0, 1]], [1, 10 ** 12]), None,
     "sets.A.resolution: a grid of 1000000000000 points does not fit in memory"),
    (box_set([[0, 0], [0, 1]], [1, 10 ** 7]), None,
     "sets.A.resolution: a grid of 10000000 points does not fit in memory"),
], ids=["grid-beyond-a-double", "grid", "stages", "stages-flag", "dimension",
        "dimension-1e308", "steps-flag", "resolution-1e308", "resolution-1e12",
        "resolution-1e7"])
def test_an_integer_lambda_grid_beyond_a_double_exits_two_with_one_line(
    patch, argv, err, tmp_path
):
    # a grid of 10**400 points was once materialised, and a count beyond
    # gspace.MAX_TUPLES still is; the child runs under an address-space
    # limit, so a regression fails it instead of filling memory.  A box
    # grid is built whole: one too large to build fails to allocate there
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    if argv is None:
        doc = {"dimension": 1, "g": "abs(x1-u1)", "sets": {"A": {"points": [[0], [1]]}},
               **patch}
        argv = ["verify", "--config", write_config(tmp_path, doc), "--checks", "identity:g"]
    else:
        argv = [*argv, "--config", str(fixture_config_path("berinde-reflection"))]
    proc = subprocess.run(
        [sys.executable, "-m", "gproxim.cli", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
    )
    assert (proc.returncode, proc.stderr) == (2, f"error: {err}\n")


@pytest.mark.parametrize("patch, err", [
    (box_set([[0, 1]], 1e308), "sets.A.resolution: a grid of 1e+308 points does not fit in memory"),
    (box_set([[0, 1], [0, 1], [0, 1]], [10 ** 7] * 3),
     "sets.A.resolution: a grid of 1e+21 points does not fit in memory"),
    # the faults SampleSet.grid finds before it builds an axis come first
    (box_set([[0, 1]], [1e308, 1e308]), "sets.A: resolution rank does not match box rank"),
    (box_set([[0, 1], [0, 1]], [0, 1e308]), "sets.A: bad resolution 0 for axis [0.0, 1.0]"),
], ids=["one-axis", "three-axes", "rank", "empty-axis"])
def test_a_grid_of_more_points_than_a_tuple_holds_is_refused_unbuilt(
    patch, err, tmp_path, capsys, monkeypatch
):
    from gproxim.gspace import SampleSet

    built, real = [], SampleSet.grid
    monkeypatch.setattr(SampleSet, "grid", lambda *args, **kw: built.append(args) or real(*args, **kw))
    doc = {"dimension": 1, "g": "abs(x1-u1)", "sets": {"A": {"points": [[0], [1]]}}, **patch}
    argv = ["verify", "--config", write_config(tmp_path, doc), "--checks", "identity:g"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert len(built) == ("does not fit" not in err)


def test_a_starshaped_check_holds_one_row_of_interpolants_at_a_time(tmp_path):
    # the check once listed H(r, x, lam) over every x of A and every lambda
    # at once, 800,000 tuples here, which end in a MemoryError under an
    # 80 MB address space; it reads one x at a time, 50,000 tuples
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (80 << 20, 80 << 20))

    doc = {"dimension": 1, "g": "abs(x1-u1)",
           "sets": {"A": {"box": [[0, 1]], "resolution": 16}},
           "convex": {**CONVEX_1D, "lambda_grid": 50000}}
    argv = ["verify", "--config", write_config(tmp_path, doc), "--checks", "starshaped:A"]
    proc = subprocess.run(
        [sys.executable, "-m", "gproxim.cli", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "holds-on-sample" in proc.stdout


@pytest.mark.parametrize("flag", ["--tol-zero", "--tol-prox"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_a_bad_tolerance_flag_exits_two_with_one_line(flag, value, capsys):
    cfg = str(fixture_config_path("min-contraction"))
    argv = ["verify", "--config", cfg, "--checks", "identity:g", f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err == f"error: {flag}: must be positive and finite, got {float(value)!r}\n"


def test_a_non_finite_power_of_a_negative_base_exits_two_with_one_line(
    tmp_path, capsys
):
    doc = {"dimension": 1, "g": "abs(x1-u1) + 0*(0-2)^(x1*1e308*10)",
           "sets": {"A": {"points": [[0], [1]]}}}
    cfg = tmp_path / "pow.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--checks", "identity:g"]) == 2
    assert capsys.readouterr().err == (
        "error: fractional-power-of-negative: -2.0 ^ inf\n"
    )

def test_seed_reaches_the_axiom_checks(halving, monkeypatch):
    import gproxim.cli as cli_module

    seeds = []
    real = cli_module.falsify_axiom

    def spy(*args, **kwargs):
        seeds.append(kwargs.get("seed", 0))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_module, "falsify_axiom", spy)
    argv = ["verify", "--config", halving, "--checks", "symmetry:g", "--json"]
    assert main(argv + ["--seed", "7"]) == 0
    assert main(argv) == 0
    assert seeds == [7, 0]


def test_zero_stages_exits_two_with_one_line(small_convex_config, capsys):
    argv = ["solve", "--config", small_convex_config, "--scheme", "berinde"]
    assert main(argv + ["--stages", "0"]) == 2
    assert capsys.readouterr().err == "error: schedule needs at least one stage\n"


def _battery_specs(res) -> list:
    """(item, spec) for each battery item of res that has a spec, over the
    gauge g, map f and sets A, B of the reflection configs."""
    from gproxim import cli

    assert [item.name for item in res.battery] == [name for name, _ in cli._BATTERY]
    return [(item, spec.format(g="g", f="f", A="A", B="B"))
            for item, (_, spec) in zip(res.battery, cli._BATTERY) if spec is not None]


def _off_level_centres(doc):
    doc["convex"].update(r=[0, -1], s=[0, 1])


def _vacuous_berinde(doc):
    # f sends A to [1/2, 1], so no image has a mate in A at the level 0
    doc["maps"]["f"]["exprs"] = ["x1", "0.5 - x2/2"]


# at resolution 11 the convex check subsamples its condition two, by seed
@pytest.mark.parametrize("edit, seed", [
    (None, "5"), (_off_level_centres, "0"), (_vacuous_berinde, "0"),
], ids=["berinde-reflection", "off-level-centres", "vacuous-berinde"])
def test_each_battery_item_carries_run_checks_report(edit, seed, tmp_path):
    from gproxim.cli import run_check
    from gproxim.config import load_instance

    doc = reflection_doc()
    if edit is not None:
        edit(doc)
    config = write_config(tmp_path, doc)
    res = solve_berinde(config, "--seed", seed, "--stages", "1")
    inst = load_instance(config)
    specs = _battery_specs(res)
    assert len(specs) == 6
    for item, spec in specs:
        assert item.report == run_check(inst, spec, int(seed)), spec
        assert (item.passed, item.vacuous) == (item.report.holds, item.report.vacuous)
        assert item.note == ("no qualifying quadruples" if item.vacuous else item.report.note)
    vacuous = [item.name for item in res.battery if item.vacuous]
    assert vacuous == (["berinde-nonexpansive"] if edit is _vacuous_berinde else [])
    gap = [item for item in res.battery if item.name == "centres-realise-level"]
    assert gap[0].report is None and gap[0].passed == (edit is not _off_level_centres)


def test_the_battery_passes_solves_seed_to_its_checks(tmp_path, monkeypatch):
    import gproxim.cli as cli_module

    seeds = []
    convex, rows = cli_module.check_convex_structure, cli_module._ProximalRows

    def convex_seed(*args, seed=0, **kwargs):
        seeds.append(seed)
        return convex(*args, seed=seed, **kwargs)

    def rows_seed(f, n_cap, core, seed):  # the berinde item's rows
        seeds.append(seed)
        return rows(f, n_cap, core, seed)

    monkeypatch.setattr(cli_module, "check_convex_structure", convex_seed)
    monkeypatch.setattr(cli_module, "_ProximalRows", rows_seed)
    doc = reflection_doc()
    doc["convex"]["lambda_grid"] = 3  # a cheap battery: only the seeds matter
    solve_berinde(write_config(tmp_path, doc), "--seed", "7", "--stages", "1")
    assert seeds == [7, 7]


def test_the_battery_warns_where_verify_falsifies(tmp_path, capsys):
    # the convex item reads the union of every set of the config, as verify
    # does, and C breaks condition one
    from gproxim.cli import _witness_to_json

    doc = reflection_doc()
    doc["g"] = "x2 - u2 + 0*x1 + sqrt(abs(x1-u1))"
    doc["sets"]["C"] = {"points": [[1, 0], [3, 0]]}
    config = write_config(tmp_path, doc)
    res = solve_berinde(config)
    for item, spec in _battery_specs(res):
        argv = ["verify", "--config", config, "--checks", spec, "--json"]
        assert main(argv) == (0 if item.passed else 1)
        [entry] = json.loads(capsys.readouterr().out)["checks"]
        assert entry["verdict"] == item.report.verdict
        assert entry["witness"] == _witness_to_json(item.report.witness)
    assert [item.name for item in res.battery if not item.passed] == ["convex-structure"]
    assert _witness_to_json(res.battery[0].report.witness) == {
        "x0": [0.0, -1.0], "x": [0.0, -1.0], "y": [1.0, 0.0], "lam": 0.1,
    }


def test_one_proximity_core_per_staged_solve(tmp_path, monkeypatch, capsys):
    # the battery's semi-sharp, berinde and side-condition items and the
    # stages share the core of (A, B)
    import gproxim.config as config_module
    import gproxim.gspace as gspace_module

    calls = []
    real = gspace_module.proximal_core

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(config_module, "proximal_core", counting)
    monkeypatch.setattr(gspace_module, "proximal_core", counting)
    doc = reflection_doc()
    doc["convex"]["lambda_grid"] = 3  # a cheap battery: only the core count matters
    argv = ["solve", "--config", write_config(tmp_path, doc), "--scheme", "berinde",
            "--stages", "2"]
    assert main(argv) == 0
    assert "hypothesis semi-sharp" in capsys.readouterr().out
    assert len(calls) == 1


HELD, FALSE = "holds-on-sample", "falsified"
SEARCHES = [
    # (fixture, check, the spec run_check gets per value, lo, hi, steps,
    # the verdicts seen)
    ("halving-on-unit", "banach:g", "banach:g:alpha={!r}", 0.0625, 0.875, 6,
     {HELD, FALSE}),
    ("quarter-proximal", "proximal-weak:g:N=0", "proximal-weak:g:beta={!r}:N=0",
     0.03125, 1.0, 5, {HELD, FALSE}),
    ("quarter-proximal", "berinde:h:N=1", "proximal-weak:h:beta={!r}:N=1",
     0.25, 1.0, 4, {FALSE}),
]


@pytest.mark.parametrize("name, check, spec, lo, hi, steps, verdicts", SEARCHES)
def test_search_matches_one_check_per_value(
    name, check, spec, lo, hi, steps, verdicts, capsys
):
    from gproxim.cli import run_check
    from gproxim.config import load_instance

    cfg = str(fixture_config_path(name))
    argv = ["search", "--config", cfg, "--check", check, "--lo", repr(lo),
            "--hi", repr(hi), "--steps", str(steps), "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    inst = load_instance(cfg)
    want = []
    for row in doc["sweep"]:
        value = row["alpha" if check.startswith("banach") else "beta"]
        rep = run_check(inst, spec.format(value))
        want.append((rep.verdict, rep.margin))
    got = [(row["verdict"], row["margin"]) for row in doc["sweep"]]
    assert json.dumps(got) == json.dumps(want)
    assert {v for v, _ in got} == verdicts


@pytest.mark.parametrize("name, check, hi, message", [
    ("halving-on-unit", "banach:g", "1", "alpha must lie in (0, 1), got 1.0"),
    ("quarter-proximal", "proximal-weak:g:N=0", "1.5", "beta must lie in (0, 1], got 1.5"),
    ("quarter-proximal", "proximal-weak:g:N=nan", "0.75",
     "N must be non-negative and finite, got nan"),
    ("quarter-proximal", "berinde:g:N=inf", "0.75",
     "N must be non-negative and finite, got inf"),
])
def test_search_with_a_bad_swept_value_exits_two(name, check, hi, message, capsys):
    argv = ["search", "--config", str(fixture_config_path(name)), "--check", check,
            "--lo", "0.5", "--hi", hi, "--steps", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("flags, message", [
    (["--hi", "inf"], "--hi: must be finite, got inf"),
    (["--hi=-inf"], "--hi: must be finite, got -inf"),
    (["--hi", "nan"], "--hi: must be finite, got nan"),
    (["--lo", "inf"], "--lo: must be finite, got inf"),
    (["--lo", "nan", "--steps", "1"], "--lo: must be finite, got nan"),
    (["--steps", "0"], "--steps: must be at least 1, got 0"),
    (["--steps", "-3"], "--steps: must be at least 1, got -3"),
    # finite ends whose span, or a multiple of it, overflows swept NaN or inf
    (["--lo=-1e308", "--hi", "1e308", "--steps", "3"],
     "--lo/--hi: span overflows, from -1e+308 to 1e+308"),
    (["--lo", "0", "--hi", "1e308", "--steps", "3"],
     "--lo/--hi: span overflows, from 0.0 to 1e+308"),
])
def test_search_with_a_bad_sweep_flag_exits_two_naming_it(flags, message, capsys):
    # before these were refused, a non-finite end swept NaN and a step count
    # below one swept --lo alone
    argv = ["search", "--config", str(fixture_config_path("quarter-proximal")),
            "--check", "proximal-weak:g:N=0", "--lo", "0.5", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_search_with_one_step_sweeps_lo(capsys):
    argv = ["search", "--config", str(fixture_config_path("quarter-proximal")),
            "--check", "proximal-weak:g:N=0", "--lo", "0.5", "--hi", "0.75",
            "--steps", "1", "--json"]
    assert main(argv) == 0
    sweep = json.loads(capsys.readouterr().out)["sweep"]
    assert sweep == [{"beta": 0.5, "verdict": "holds-on-sample", "margin": sweep[0]["margin"]}]


@pytest.mark.parametrize("gauge",["x2^2 - u2^2", "(x2^2 - u2^2)*1e308"],
                         ids=["kernel-rows", "scalar-rows"])
def test_search_computes_the_qualifying_pairs_once(gauge, tmp_path, monkeypatch, capsys):
    # with the scaled gauge every row's sum overflows, so the kernels give
    # each row up and the same pass runs it through the scalar loop
    import gproxim.properties as properties_module

    calls = []
    real = properties_module.qualifying_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(properties_module, "qualifying_pairs", counting)
    doc = json.loads(fixture_config_path("quarter-proximal").read_text())
    doc["g"] = gauge
    cfg = tmp_path / "quarter.json"
    cfg.write_text(json.dumps(doc))
    argv = ["search", "--config", str(cfg), "--check", "proximal-weak:g:N=0",
            "--lo", "0.03125", "--hi", "0.5", "--steps", "5", "--json"]
    assert main(argv) == 0
    assert len(calls) == 1
    sweep = json.loads(capsys.readouterr().out)["sweep"]
    assert [row["verdict"] for row in sweep] == ["falsified"] + ["holds-on-sample"] * 4


_COEF = {"beta", "n_cap", "vacuous"}
_NOTE = {"note"}
# Per planted config, the specs one verify --json runs on it: the verdict of
# each, and the keys its entry has beyond spec, check, verdict, witness, lhs
# and rhs.  The coefficient keys belong to the three contraction kinds, and
# note to the reports that carry one.
REPORT_KEYS = {
    "identity": [("identity:g", FALSE, _NOTE), ("identity:ok", HELD, set())],
    "symmetry": [("symmetry:g", FALSE, set()), ("symmetry:ok", HELD, set())],
    "triangle": [("triangle:g", FALSE, set()), ("triangle:ok", HELD, set())],
    "banach": [
        ("banach:g:alpha=0.5", FALSE, _COEF), ("banach:ok:alpha=0.9", HELD, _COEF)
    ],
    "proximal-weak": [
        ("proximal-weak:h:beta=0.9:N=1", FALSE, _COEF),
        ("proximal-weak:g:beta=0.0625:N=0", HELD, _COEF),
        ("berinde:h", FALSE, _COEF),
        ("berinde:g", HELD, _COEF),
    ],
    "convex-condition-one": [
        ("convex:g", FALSE, _NOTE),
        ("convex:ok", HELD, set()),
        ("starshaped:A", HELD, set()),
    ],
    "starshaped": [("starshaped:A", FALSE, _NOTE)],
    "semi-sharp": [("semi-sharp:g", FALSE, _NOTE), ("semi-sharp:ok", HELD, set())],
    "side-condition": [
        ("side-condition:g", FALSE, set()), ("side-condition:ok", HELD, _NOTE)
    ],
}


@pytest.mark.parametrize("name", list(REPORT_KEYS))
def test_report_entries_have_the_keys_of_their_kind(name, tmp_path, capsys):
    cfg = tmp_path / "planted.json"
    cfg.write_text(json.dumps(PLANTED[name][0]()))
    specs = [spec for spec, _, _ in REPORT_KEYS[name]]
    assert main(["verify", "--config", str(cfg), "--json", "--checks", *specs]) == 1
    entries = json.loads(capsys.readouterr().out)["checks"]
    common = {"spec", "check", "verdict", "witness", "lhs", "rhs"}
    assert [(e["spec"], e["verdict"], set(e) - common) for e in entries] == (
        REPORT_KEYS[name]
    )
    assert all(set(e) >= common for e in entries)
