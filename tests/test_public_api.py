import ast
from pathlib import Path

import cyclecast
from cyclecast import cli

EXPORTS = [
    "ClusterSpec",
    "CorruptRecordError",
    "CostModel",
    "CyclecastError",
    "DegenerateInputError",
    "EmptyInputError",
    "EvaluationReport",
    "IllConditionedError",
    "IngestWarning",
    "IoFailureError",
    "MixedApplicationsError",
    "MixedInputSizesError",
    "NegativePredictionWarning",
    "NonPositiveReferenceError",
    "ProfileTable",
    "RankDeficientError",
    "RunTable",
    "SampleExceedsCoresError",
    "ShapeMismatchError",
    "SynthSpec",
    "TornRecordWarning",
    "TraceSet",
    "UnknownMachineError",
    "UnsupportedSchemaError",
    "WarningKind",
    "ZeroActualError",
    "aggregate_repetitions",
    "append_runs",
    "build_design_matrix",
    "evaluate",
    "fit_least_squares",
    "fit_scaling",
    "generate_profiles",
    "generate_trace",
    "load_model",
    "load_runs",
    "mape",
    "parse_cluster_spec",
    "parse_trace_csv",
    "pred25",
    "predict",
    "r2_paper",
    "r2_standard",
    "rmse",
    "save_model",
    "total_cpu_cycles",
    "write_trace_csv",
]


def test_the_public_surface_is_pinned():
    assert len(EXPORTS) == 47
    assert sorted(cyclecast.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(cyclecast, name) is not None


def test_the_cli_imports_no_private_name_of_the_library():
    # Parsing and validation policy lives in the library; cli.py wires
    # argparse to it through public names only.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("cyclecast"))
        for alias in node.names
    ]
    assert imported
    assert [pair for pair in imported if pair[1].startswith("_")] == []


# The bounds of the count rule, as a literal may spell them.
_COUNT_BOUNDS = {"2 ** 63", "2 ** 64", str(2**63), str(2**64)}


def test_constructors_outside_core_keep_no_rules_of_their_own():
    # The count, real and text rules live in core; every other
    # __post_init__ calls them rather than checking finiteness or the
    # 2**63 and 2**64 bounds by hand.
    source = Path(cli.__file__).parent
    found = []
    for path in sorted(source.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not (isinstance(function, ast.FunctionDef) and function.name == "__post_init__"):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "isfinite"
                ) or (
                    isinstance(node, ast.Compare)
                    and {ast.unparse(part) for part in [node.left, *node.comparators]} & _COUNT_BOUNDS
                ):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
