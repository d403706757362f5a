import ast
import re
import shlex
from pathlib import Path

import numpy as np

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
    "account_trace",
    "aggregate_repetitions",
    "append_runs",
    "evaluate",
    "fit_least_squares",
    "generate_profiles",
    "generate_trace",
    "load_model",
    "load_runs",
    "mape",
    "parse_cluster_spec",
    "parse_trace_csv",
    "pred25",
    "r2_paper",
    "r2_standard",
    "rmse",
    "save_model",
    "total_cpu_cycles",
    "write_trace_csv",
]


def test_the_public_surface_is_pinned():
    assert len(EXPORTS) == 45
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


_PROCESS_CALLS = {"fork", "pipe", "waitpid", "kill"}


def test_one_module_forks_and_none_imports_a_private_name_of_ingest():
    # The fork protocol lives in cyclecast._forked; the trace parser and
    # the trace emitter reach it through its forked() and part_count().
    forks, private = [], []
    for path in sorted(Path(cyclecast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "os" and node.attr in _PROCESS_CALLS:
                    forks.append(path.name)
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                if node.module == "os":
                    forks += [path.name for name in names if name in _PROCESS_CALLS]
                elif node.module in ("ingest", "cyclecast.ingest"):
                    private += [(path.name, name) for name in names if name.startswith("_")]
    assert forks and set(forks) == {"_forked.py"}
    assert private == []


def test_one_module_starts_a_thread_and_the_cli_hashes_nothing():
    # The default run id's hash runs on a thread that ingest.account_trace
    # starts and joins; cli.py only calls it.
    threads = []
    for path in sorted(Path(cyclecast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "threading.Thread":
                threads.append(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "threading":
                threads.append(path.name)
    assert threads and set(threads) == {"ingest.py"}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules and not modules & {"hashlib", "threading"}


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


def test_the_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # README's Library block is the documented API: run it as written
    # against a model file, so the two cannot drift apart.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library") :]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    model = cyclecast.CostModel(
        app="sort",
        a=(1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8),
        condition_estimate=31.09,
        training_residual=1.5e7,
        ref_input_bytes=12 * 2**30,
        line=(147.7, 5.0e11),
    )
    cyclecast.save_model(tmp_path / "sort-model.json", model)
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert capsys.readouterr().out.split() == [
        repr(model.predict(6, 10)), repr(model.predict(6, 10, 24 * 2**30))
    ]
    grid = np.arange(1, 33)
    assert names["surface"].tolist() == [
        model.predict(m, r) for m in grid.tolist() for r in grid.tolist()
    ]


def test_the_readme_ingest_example_appends_what_the_cli_appends(tmp_path, monkeypatch):
    # README's account_trace block, run on README's example trace and
    # cluster files, writes the store that README's ingest command writes.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def block(heading, fence):
        return re.search(f"{fence}\n(.*?)```", readme[readme.index(heading) :], re.DOTALL).group(1)

    (tmp_path / "run0.csv").write_text(block("**Trace CSV**", "```"))
    (tmp_path / "cluster.txt").write_text(block("**Cluster file**", "```"))
    command = block("Account a measured trace into the run store", "```sh")
    command = shlex.split(command.replace("\\\n", " "))
    assert command[:2] == ["cyclecast", "ingest"] and command[-2:] == ["--out", "runs.jsonl"]
    monkeypatch.chdir(tmp_path)
    assert cli.main([*command[1:-1], "cli.jsonl"]) == 0
    exec(compile(block("`account_trace` is `cyclecast ingest` as one call", "```python"),
                 "README.md", "exec"), {})
    assert (tmp_path / "runs.jsonl").read_bytes() == (tmp_path / "cli.jsonl").read_bytes()
