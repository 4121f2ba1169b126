"""Fixed points and best proximity points under a bivariate gauge function.

The library represents subsets of a space as finite samples (exact point
lists or discretised boxes), describes gauges, maps and convex structures in
a small expression DSL, falsifies the contraction-type hypotheses on those
samples, and runs the constructive iteration schemes with convergence
certificates.  See the README for the config format and the CLI.
"""

from .expr import EvalError, Expr, ParseError, evaluate, format_expr, parse
from .gspace import (
    CheckReport,
    ConvexStructure,
    DimensionMismatch,
    GFunction,
    GSpaceError,
    NoProximalMate,
    Point,
    ProximalCore,
    SampleSet,
    SequencePrefix,
    ToleranceSet,
    check_convex_structure,
    check_semi_sharp,
    check_side_condition,
    check_starshaped,
    classify_sequence,
    enumerate_g_limits,
    eval_g,
    falsify_axiom,
    proximal_core,
    proximal_select,
)
from .properties import (
    MapSpec,
    check_banach_contraction,
    check_proximal_inequality,
    estimate_coefficient,
    estimate_proximal_coefficient,
)
from .solvers import (
    BerindeResult,
    DomainEscape,
    IteratedMap,
    Schedule,
    StageMap,
    Trace,
    berinde_scheme,
    picard,
    power_fixed_point,
    proximal_iterate,
    write_trace_csv,
)
from .config import ConfigError, Instance, instance_from_dict, load_instance
from .fixtures import FixtureReport, fixture_names, run_fixture, run_fixtures

__version__ = "0.1.0"

__all__ = [
    "EvalError",
    "Expr",
    "ParseError",
    "evaluate",
    "format_expr",
    "parse",
    "CheckReport",
    "ConvexStructure",
    "DimensionMismatch",
    "GFunction",
    "GSpaceError",
    "NoProximalMate",
    "Point",
    "ProximalCore",
    "SampleSet",
    "SequencePrefix",
    "ToleranceSet",
    "check_convex_structure",
    "check_semi_sharp",
    "check_side_condition",
    "check_starshaped",
    "classify_sequence",
    "enumerate_g_limits",
    "eval_g",
    "falsify_axiom",
    "proximal_core",
    "proximal_select",
    "MapSpec",
    "check_banach_contraction",
    "check_proximal_inequality",
    "estimate_coefficient",
    "estimate_proximal_coefficient",
    "BerindeResult",
    "DomainEscape",
    "IteratedMap",
    "Schedule",
    "StageMap",
    "Trace",
    "berinde_scheme",
    "picard",
    "power_fixed_point",
    "proximal_iterate",
    "write_trace_csv",
    "ConfigError",
    "Instance",
    "instance_from_dict",
    "load_instance",
    "FixtureReport",
    "fixture_names",
    "run_fixture",
    "run_fixtures",
]
