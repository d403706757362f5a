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


_PROCESS_CALLS = {"fork", "memfd_create", "waitpid", "kill"}


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


_UNPICKLERS = {"load", "loads", "Unpickler"}


def test_one_function_unpickles_and_only_ingest_imports_pickle():
    # A forked parse child hands over its part's machine codes pickled, and
    # ingest._received alone unpickles them, from the file that child
    # wrote: no other input can reach an unpickler.
    imports, unpickles = [], []

    def visit(path, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(path, child, f"{where}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Import):
                imports.extend((path.name, alias.name, alias.asname) for alias in child.names
                               if alias.name.split(".")[0] in ("pickle", "_pickle"))
            elif isinstance(child, ast.ImportFrom) and child.module in ("pickle", "_pickle"):
                imports.append((path.name, child.module, "from"))
            elif isinstance(child, ast.Attribute) and ast.unparse(child.value) == "pickle":
                if child.attr in _UNPICKLERS:
                    unpickles.append((path.name, where, child.attr))
            visit(path, child, where)

    for path in sorted(Path(cyclecast.__file__).parent.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    assert imports == [("ingest.py", "pickle", None)]
    assert unpickles == [("ingest.py", "_received", "load")]

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


def _block(heading: str, fence: str) -> str:
    """The body of README's first block fenced by fence after heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(f"{fence}\n(.*?)```", readme[readme.index(heading) :], re.DOTALL).group(1)


def test_the_readme_ingest_example_appends_what_the_cli_appends(tmp_path, monkeypatch):
    # README's account_trace block, run on README's example trace and
    # cluster files, writes the store that README's ingest command writes.
    (tmp_path / "run0.csv").write_text(_block("**Trace CSV**", "```"))
    (tmp_path / "cluster.txt").write_text(_block("**Cluster file**", "```"))
    command = _block("Account a measured trace into the run store", "```sh")
    command = shlex.split(command.replace("\\\n", " "))
    assert command[:2] == ["cyclecast", "ingest"] and command[-2:] == ["--out", "runs.jsonl"]
    monkeypatch.chdir(tmp_path)
    assert cli.main([*command[1:-1], "cli.jsonl"]) == 0
    exec(compile(_block("`account_trace` is `cyclecast ingest` as one call", "```python"),
                 "README.md", "exec"), {})
    assert (tmp_path / "runs.jsonl").read_bytes() == (tmp_path / "cli.jsonl").read_bytes()


def _tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*")}


def test_the_readme_simulate_example_writes_what_the_cli_writes(tmp_path, monkeypatch):
    # README's synth.simulate block, run on README's cluster file, writes
    # the store, trace files and surface.tsv that README's simulate and
    # report commands write.
    (tmp_path / "cluster.txt").write_text(_block("**Cluster file**", "```"))
    model = cyclecast.CostModel(
        app="synthetic",
        a=(1.0e11, 2.0e9, 3.0e7, 4.0e9, 5.0e7),
        condition_estimate=1.0,
        training_residual=0.0,
        ref_input_bytes=12 * 2**30,
    )
    for name in ("truth.json", "model.json"):
        cyclecast.save_model(tmp_path / name, model)
    commands = _block("Generate synthetic workloads from a truth model", "```sh")
    simulate, report = (shlex.split(line) for line in commands.replace("\\\n", " ").splitlines())
    outputs = {"synth.jsonl": "cli.jsonl", "traces/": "cli-traces", "report/": "cli-report"}
    assert simulate[:2] == ["cyclecast", "simulate"] and report[:2] == ["cyclecast", "report"]
    assert set(outputs) <= set(simulate + report)
    monkeypatch.chdir(tmp_path)
    for command in (simulate, report):
        assert cli.main([outputs.get(arg, arg) for arg in command[1:]]) == 0
    example = _block("`synth.simulate(spec, trace_dir=None, cluster=None)`", "```python")
    exec(compile(example, "README.md", "exec"), {})
    assert (tmp_path / "synth.jsonl").read_bytes() == (tmp_path / "cli.jsonl").read_bytes()
    traces = _tree(tmp_path / "traces")
    assert len(traces) == 8 * 8 * 10 and traces == _tree(tmp_path / "cli-traces")
    assert _tree(tmp_path / "report") == _tree(tmp_path / "cli-report") != {}


def test_the_cli_holds_no_grid_and_main_no_command_branch():
    # The grid's order lives in CostModel.tabulate and simulate's policy in
    # synth.simulate and its command; main parses, dispatches and reports.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert "argparse" in modules and "numpy" not in modules
    assert "simulate" in names and not names & {"generate_profiles", "write_traces"}
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert "args.command" not in ast.unparse(main)
