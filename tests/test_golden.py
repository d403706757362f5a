"""Golden SHA-256 digests of seeded CLI outputs, pinned across versions.

test_07 in test_acceptance compares two runs of the same code.  The
digests here were taken from an earlier version's output, so a change
that alters any random draw, any fitted bit or any output format fails
here even when it is self-consistent.

Truth models are written as literal JSON, not through the store, so the
inputs stay the same bytes whatever the library's API becomes.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
from pathlib import Path
from unittest import mock

import pytest
from conftest import split

from cyclecast import synth
from cyclecast.cli import main

GIB = 2**30
TRUTH_A = (1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8)
# Per-size factors on the truth surface: the runs grow along a line in
# input bytes that does not pass through the origin.
SIZE_FACTORS = {6: 0.55, 12: 1.0, 18: 1.45, 24: 1.9}
CLUSTER_TXT = "node-a 3.0e9 4\nnode-b 2.0e9 2\n"
# A truth small enough that each trace holds a few samples, on machines
# whose core counts send one to many samples, one to a few, and one (at
# 2**40 cores) to a single sample for every run.
TINY_A = (2.0e10, 1.0e8, 1.0e6, 1.0e8, 1.0e6)
TINY_CLUSTER_TXT = "one-core 1.0e9 1\nfour-core 2.0e9 4\nhuge 3.0e9 1099511627776\n"
# Interleaved machines, offsets out of order, decimal forms with and
# without exponents, and no newline after the last row.
HAND_TRACE = (
    "machine_id,offset_s,cpu_seconds\n"
    "node-b,3,1.25e0\n"
    "node-a,2,0.75\n"
    "node-a,0,5E-1\n"
    "node-b,1,.5\n"
    "node-a,1,1.5e+0\n"
    "node-b,2,2."
)

GOLDEN = {
    "runs.jsonl": "9ed61835ba66c73695e22b969615809896683edb23d04906a36979af8f5c88a0",
    "model.json": "b9d05d92f09d6df3229fdd765362d4780ff74beddb4b81544f8ae52de4c01fb4",
    "predict.out": "4f26d44bbf49351c44adf302f9ff91b07772f8a692e3ecb42f2441d86fce6829",
    "evaluate.out": "6ce88758ee767038149abd2a598fb020fa8430f9530361cf586aa0b9d53a79c6",
    "sizes.jsonl": "295af4247f11cd52ce4c41b0fbd4a11ec27a708a8e467e77cd1c8eaffa34104f",
    "scaled-model.json": "55d619985cb86014f63d9d238d047c5e7f76f5d9a3481ae5ea0c537f9d359998",
    "predict-sized.out": "a89d93f350553bd68caf9a7b9a2d6f646daded4d138d0a8a5645769a712f6415",
    "evaluate-sized.out": "1f13a5b4fcc704bc343d20d1ea6736856b3b1f0796a460102bdddbe7f997cd67",
    "surface.tsv": "50fbc8cfd2170c743896c947e1ef9519d9a3ae0d6887ce7ddba20fe89bce1843",
    "emitted.jsonl": "b2ca411e57f86a46c16ff008c1d881dd6fe2aa23c4b0ef5384362c8b53b0c93b",
    "trace.csv": "ead48d89b6c9b8c6e77350c5c48dc9a12d2d1c05a1e3c509871fed6e8cd27794",
    "tiny.jsonl": "af728182036e72c3290cb5d668ffea31c0919162d9418c4600c22c912a44ef32",
    "tiny-traces.csv": "cad1e8706216a704284e803c004bde5ecccc18ea020a1197ebbf084605837be4",
    "ingest.jsonl": "6c41a64033b67e985044a2e098b78fb079f900319215f2af1cff0faf7fcf7100",
    "ingest-hand.jsonl": "c5e30acc2b7f9bfc60f3db4f26604e7477a5d393875ebacb76f8ba36f8b9bc0a",
    "seed-max.jsonl": "dbcedf58787b08fd4463b3c988ab19dae36336658718606c6935de46afec02f0",
    "seed-two-words.jsonl": "faff285eeaa676579170ad0877bfe8d1dfc492de2b71d34c0ca2c4d804dcf244",
}


# The stdout of the two study scripts, at these arguments.
SCRIPT_GOLDEN = {
    ("input_scaling_study.py", "--noise", "0.02", "--seed", "3"):
        "3904ac7a5185db14ac415e0e050ddd523baecc542decb8d79d7a8e2627c75655",
    ("run_grid_experiment.py", "--seeds", "2", "--noise", "0", "0.02", "--reps", "1"):
        "6973ee8b9f8d8ce474731da1ba76af0ca60e55ed1bddd2bdd9ba69713ae789f4",
}
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# The --help text of the program and of each subcommand, at COLUMNS=80.
HELP_GOLDEN = {
    (): "81a4f6ab33598c2321d3e6348f3124f4614d827422ba4d225cc99e6f56a21f87",
    ("ingest",): "fdf421a3a34ab7855587129bb29db7f869de76030dbdc634e7e62c698d6aefc6",
    ("fit",): "1c1266c6ca3d753e9af2677e35ed797b0678e7df74133f2bff5b40ed6e1598dd",
    ("predict",): "f1b04a6abae7d54610add50e44c376dfd57f825d180d17ce6f24b19d426424b0",
    ("evaluate",): "feeb0e41b73f49d39e6584354d55bedef56ad653c074e7aee0c28be964458a2a",
    ("scale-fit",): "b4a6a741c07e363dd9c94c6fb79e289214d0fd8ae8ed2ece19905357edc12d87",
    ("simulate",): "adca4d39aa38258df6717859b20349238585646567ee3ddcb7eb50cd2678734b",
    ("report",): "5f28716fa61317d26ddbd96385a25964106cb3c4e693d3ce2e31a39f983abd89",
}


def _truth(path, gib, scaling=None, a=TRUTH_A):
    doc = {
        "basis": "quad-mr-v1",
        "app": "synthetic",
        "a": [v * SIZE_FACTORS[gib] for v in a],
        "condition": 1.0,
        "residual": 0.0,
        "ref_input_bytes": gib * GIB,
    }
    if scaling is not None:
        doc["scaling"] = scaling
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _run(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


def _emitted(root, truth):
    """Simulate with --emit-traces into root: a small noisy grid's store
    and one of its traces, and a tiny truth's store and every trace, on
    machines that take one sample or many.  The outputs' bytes by golden
    name."""
    cluster = root / "cluster.txt"
    cluster.write_text(CLUSTER_TXT, encoding="utf-8")
    _run(["simulate", "--truth", truth, "--grid", "4:8:4", "--reps", "1", "--noise", "0.02",
          "--seed", "5", "--out", root / "emitted.jsonl", "--emit-traces", root / "traces",
          "--cluster", cluster])
    tiny_cluster = root / "tiny-cluster.txt"
    tiny_cluster.write_text(TINY_CLUSTER_TXT, encoding="utf-8")
    _run(["simulate", "--truth", _truth(root / "tiny-truth.json", 12, a=TINY_A),
          "--grid", "4:8:4", "--reps", "2", "--noise", "0.02", "--seed", "9",
          "--out", root / "tiny.jsonl", "--emit-traces", root / "tiny-traces",
          "--cluster", tiny_cluster])
    return {
        "emitted.jsonl": (root / "emitted.jsonl").read_bytes(),
        "trace.csv": (root / "traces" / "synthetic-m004-r008-rep00.csv").read_bytes(),
        "tiny.jsonl": (root / "tiny.jsonl").read_bytes(),
        "tiny-traces.csv": b"".join(
            path.name.encode("utf-8") + b"\n" + path.read_bytes()
            for path in sorted((root / "tiny-traces").iterdir())
        ),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    truth = _truth(root / "truth.json", 12)
    runs, model = root / "runs.jsonl", root / "model.json"
    got = {}

    # The acceptance-7 pipeline: noiseless grid, fit, predict, evaluate.
    _run(["simulate", "--truth", truth, "--grid", "4:32:4", "--reps", "1",
          "--noise", "0", "--seed", "7", "--out", runs])
    _run(["fit", "--runs", runs, "--app", "synthetic", "--out", model])
    got["predict.out"] = _run(["predict", "--model", model, "--mappers", "6", "--reducers", "10"])
    got["evaluate.out"] = _run(["evaluate", "--model", model, "--runs", runs, "--app", "synthetic"])

    # A noisy store over four sizes, fitted into a copy of the model.
    sizes, scaled = root / "sizes.jsonl", root / "scaled-model.json"
    for gib in SIZE_FACTORS:
        _run(["simulate", "--truth", _truth(root / f"truth-{gib}.json", gib),
              "--grid", "4:32:4", "--reps", "3", "--noise", "0.03", "--seed", str(100 + gib),
              "--input-bytes", gib * GIB, "--out", sizes])
    shutil.copyfile(model, scaled)
    _run(["scale-fit", "--runs", sizes, "--app", "synthetic", "--model", scaled])
    _run(["report", "--model", scaled, "--grid", "2:20:3", "--out", root / "report"])

    # Sized predictions on a literal size line, so that these digests pin
    # the sizing policy alone and not the bits of a fitted line.
    line = {"slope": 150.0, "intercept": 5.0e11, "ref_bytes": 12 * GIB}
    sized = _truth(root / "sized-model.json", 12, scaling=line)
    got["predict-sized.out"] = _run(["predict", "--model", sized, "--mappers", "6",
                                     "--reducers", "10", "--input-bytes", 20 * GIB])
    got["evaluate-sized.out"] = _run(["evaluate", "--model", sized, "--runs", sizes,
                                      "--app", "synthetic"])

    got.update(_emitted(root, truth))

    # The emitted trace and a hand-written one, each ingested into its own store.
    cluster = root / "cluster.txt"
    hand = root / "hand.csv"
    hand.write_text(HAND_TRACE, encoding="utf-8")
    for store, trace in (("ingest.jsonl", root / "traces" / "synthetic-m004-r008-rep00.csv"),
                         ("ingest-hand.jsonl", hand)):
        _run(["ingest", "--traces", trace, "--cluster", cluster, "--app", "synthetic",
              "--mappers", "4", "--reducers", "8", "--input-bytes", 12 * GIB,
              "--out", root / store])
        got[store] = (root / store).read_bytes()

    # Seeds and grid values of two 32-bit words, the form a seed drawn
    # from [0, 2**63) mostly takes.
    _run(["simulate", "--truth", truth, "--grid", "4:8:4", "--reps", "2",
          "--seed", "18446744073709551615", "--out", root / "seed-max.jsonl"])
    _run(["simulate", "--truth", truth, "--grid", "4294967295:4294967296:1", "--reps", "2",
          "--seed", "4294967296", "--out", root / "seed-two-words.jsonl"])

    for name, path in (
        ("runs.jsonl", runs),
        ("model.json", model),
        ("sizes.jsonl", sizes),
        ("scaled-model.json", scaled),
        ("surface.tsv", root / "report" / "surface.tsv"),
        ("seed-max.jsonl", root / "seed-max.jsonl"),
        ("seed-two-words.jsonl", root / "seed-two-words.jsonl"),
    ):
        got[name] = path.read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(outputs, name):
    assert outputs[name] == GOLDEN[name]


@pytest.mark.parametrize("cores", [2, 3])
def test_split_emission_writes_the_serial_bytes(tmp_path, cores, no_child_left):
    # One run a part, so that the 4 and the 8 runs of the two cases are
    # cut into cores parts each, the later ones written by children.
    files, forks = {}, {}
    for side, side_cores in (("serial", 1), ("split", cores)):
        root = tmp_path / side
        root.mkdir()
        with split(synth, "_RUNS_PER_PART", 1, side_cores), mock.patch.object(
            os, "fork", side_effect=os.fork
        ) as fork:
            got = _emitted(root, _truth(root / "truth.json", 12))
        forks[side] = fork.call_count
        files[side] = {
            path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()
        }
    assert forks == {"serial": 0, "split": 2 * (cores - 1)}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == {
        name: GOLDEN[name] for name in got
    }
    assert files["split"] == files["serial"]


@pytest.mark.parametrize("argv", sorted(SCRIPT_GOLDEN), ids=lambda argv: argv[0])
def test_script_golden_digest(argv):
    spec = importlib.util.spec_from_file_location(Path(argv[0]).stem, SCRIPTS / argv[0])
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert script.main(list(argv[1:])) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == SCRIPT_GOLDEN[argv]


def _help(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exited:
            main(list(argv) + ["--help"])
    assert exited.value.code == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("argv", sorted(HELP_GOLDEN), ids=lambda argv: " ".join(argv) or "top")
def test_help_golden_digest(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    first, second = _help(argv), _help(argv)
    assert first == second
    assert hashlib.sha256(first).hexdigest() == HELP_GOLDEN[argv]
