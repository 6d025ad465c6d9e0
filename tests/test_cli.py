import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from catalan_sset import classify, cli
from catalan_sset.catalan import (
    enumerate_level,
    level_count,
    nondegenerate_count,
    nondegenerate_level,
)
from catalan_sset.classify import ClassificationReport

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"
# the benchmark's pinned stdout digests; read here, never written
DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text(encoding="utf-8")
)
# stdout digests the benchmark does not pin: the rank-1 verdict on inputs
# with several objects
PINS = {
    "verify-monads --input or2 --format json":
        "3248e8e99e872b81ce0316ec27164590a4bd43c90cf257671cdd2f026c1b5fb8",
    "verify-monads --input and2 --format json":
        "27c61a058314767d78766941f702b6399e072e61a5e2bf4ccf884f17e43f5d9c",
    "verify-monads --input chain3-max --format json":
        "e98f5d990a6902348fe8bbba28e0457f272b1814259aa387ca239ee30b222403",
    "verify-monads --input chain3-min --format json":
        "beab50f574aa730f4f5858c523ce7fe86a2a66a6c208057055ee279d2a6df9e6",
}
PINNED = {**DIGESTS, **PINS}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=120):
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "catalan_sset.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--max-n", "4")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip().startswith(("0", "1", "2", "3", "4"))]
    assert len(rows) == 5
    assert all(row.endswith("ok") for row in rows)
    assert "42" in rows[-1]


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--max-n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["simplices"] for row in doc] == [1, 2, 5, 14]
    assert all(row["match"] for row in doc)


def test_count_builds_no_level_and_runs_in_constant_memory(capsys):
    enumerate_level.cache_clear()
    nondegenerate_level.cache_clear()
    tracemalloc.start()
    try:
        code = cli.main(["count", "--max-n", "10"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(" ok\n") == 11
    assert enumerate_level.cache_info().currsize == 0
    assert nondegenerate_level.cache_info().currsize == 0
    assert peak < 1_000_000


def test_count_walk_memory_does_not_grow_with_the_level():
    """Level 12 holds 742 900 simplices; the walk that counts them keeps no
    leaf and tables only the last rows, so it peaks under the same bound."""
    tracemalloc.start()
    try:
        counts = (level_count(12), nondegenerate_count(12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == (742_900, 15_511)
    assert peak < 1_000_000


def test_count_reaches_the_enumeration_ceiling(capsys):
    code, out, _ = run(capsys, "count", "--max-n", "14")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 15
    assert all(row.endswith("  ok") for row in rows)


@pytest.mark.parametrize("command", sorted(PINNED))
def test_stdout_matches_the_pinned_digest(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(command.split())
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINNED[command]


def test_count_rejects_bad_levels(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--max-n", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--max-n", "15"])
    assert exc.value.code == 2


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=2 count=5"
    assert lines[1].startswith("000")
    assert sum(1 for line in lines[1:] if line.endswith("*")) == 2


def test_catalogue(capsys):
    code, out, _ = run(capsys, "catalogue")
    assert code == 0
    assert "A9" in out
    assert "catalogue verified" in out


def test_verify_identities_default(capsys):
    code, out, _ = run(capsys, "verify-identities", "--max-n", "4")
    assert code == 0
    assert "verdict=OK" in out


def test_verify_identities_on_input(capsys):
    code, out, _ = run(capsys, "verify-identities", "--input", "or2", "--max-n", "3")
    assert code == 0
    assert "verdict=OK" in out


def test_verify_identities_on_plain_input(capsys):
    code, out, _ = run(
        capsys, "verify-identities", "--input", "chain2-discrete", "--max-n", "3"
    )
    assert code == 0
    assert "nerve: checked" in out


def test_enumerate_level_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "0")
    assert code == 0
    assert out.splitlines()[0] == "n=0 count=1"
    assert out.splitlines()[1] == "- *"


def test_verify_theorem_text(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--input", "suite/and2.json")
    assert code == 0
    assert "maps=1 structures=1 verdict=OK" in out


def test_verify_theorem_json_output(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify-theorem",
        "--input",
        "or2",
        "--format",
        "json",
        "--output",
        str(target),
    )
    assert code == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["verdict"] == "OK"
    assert doc["maps"] == 2
    assert json.loads(out) == doc


def test_verify_monads(capsys):
    code, out, _ = run(capsys, "verify-monads", "--input", "sigma-or2")
    assert code == 0
    assert "maps=2 monads=2 verdict=OK" in out


def test_missing_input_file_is_usage_error(capsys):
    # only a bare name or a name under suite/ falls back to the bundled suite,
    # so a mistyped path ending in a suite name is still an error
    for path in ("does-not-exist", "/nonexistent/dir/or2.json", "no/such/chain3-max"):
        code, out, err = run(capsys, "verify-theorem", "--input", path)
        assert (code, out) == (2, ""), path
        assert err.startswith("error: ") and path in err, err


def test_order_probe(capsys):
    code, out, _ = run(capsys, "order-probe", "--n", "3")
    assert code == 0
    assert "inclusion order preserved" in out
    assert "NOT preserved" in out


def test_export_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "export", "--what", "catalan", "--n", "3", "--output", str(a))[0] == 0
    assert run(capsys, "export", "--what", "catalan", "--n", "3", "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text(encoding="utf-8"))
    assert doc["count"] == 14


def test_export_level_zero(capsys, tmp_path):
    target = tmp_path / "zero.json"
    code, _, _ = run(capsys, "export", "--what", "catalan", "--n", "0", "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text(encoding="utf-8"))["count"] == 1


def test_export_to_unwritable_path(capsys, tmp_path):
    code, _, err = run(
        capsys, "export", "--what", "catalan", "--n", "1",
        "--output", str(tmp_path / "missing-dir" / "out.json"),
    )
    assert code == 2
    assert "error" in err


def test_failing_verdict_exits_one(capsys, monkeypatch):
    fake = ClassificationReport(
        input_name="x",
        kind="monoidale",
        map_count=1,
        structure_count=2,
        correspondence=(),
        verdict="FAIL",
        failures=("injected",),
    )
    # the CLI looks the verdict up in ``classify`` when the command runs
    monkeypatch.setattr(classify, "verify_theorem", lambda b, input_name: fake)
    code, out, _ = run(capsys, "verify-theorem", "--input", "or2")
    assert code == 1
    assert "verdict=FAIL" in out


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"elements": ["0", "1"], "leq": [1, 2], "tensor": {}, "unit": "0"}',
        '{"elements": "01", "leq": [["0", "0"], ["0", "1"], ["1", "1"]],'
        ' "tensor": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "1"}, "unit": "0"}',
        "[" * 100000 + "]" * 100000,
        '{"elements": ["0", "1"], "leq": [["0", "0"], ["0", "1"], ["1", "1"]],'
        ' "tensor": {"0,0": "0", "0,1": 1, "1,0": "1", "1,1": "1"}, "unit": "0"}',
        '{"objects": ["*"], "cells": [{"from": "*", "to": "*", "name": 0},'
        ' {"from": "*", "to": "*", "name": "1"}],'
        ' "leq": [["0", "0"], ["0", "1"], ["1", "1"]],'
        ' "compose": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "1"},'
        ' "identities": {"*": "0"}, "obj_tensor": {"*,*": "*"},'
        ' "cell_tensor": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "1"},'
        ' "unit_object": "*"}',
        '{"elements": ["0", "1"], "leq": [["0", "0"], ["0", "1"], ["1", "1"]],'
        ' "tensor": {"0,0": "0", "0,1": "0", "0,1": "1", "1,0": "1", "1,1": "1"},'
        ' "unit": "0"}',
        '{"elements": ["0", "1"], "leq": [["0", "0"], ["0", "1"], ["1", "1"]],'
        ' "tensor": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "1"},'
        ' "unit": "1", "unit": "0"}',
    ],
    ids=[
        "not-json", "leq-not-pairs", "elements-a-string", "nested-too-deep",
        "tensor-value-a-number", "cell-name-a-number", "tensor-key-twice", "unit-twice",
    ],
)
def test_bad_input_file_exits_two_without_traceback(tmp_path, text):
    target = tmp_path / "bad.json"
    target.write_text(text, encoding="utf-8")
    proc = run_process("verify-theorem", "--input", str(target))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--input", "or2"],
        ["verify-monads", "--input", "trivial"],
        ["export", "--what", "catalan", "--n", "1"],
    ],
    ids=["verify-theorem", "verify-monads", "export"],
)
def test_output_to_a_directory_exits_two_without_traceback(tmp_path, argv):
    proc = run_process(*argv, "--output", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv,ceiling",
    [
        (["enumerate", "--n", "13"], 12),
        (["export", "--what", "catalan", "--n", "13", "--output", "-"], 12),
        (["enumerate", "--n", "14"], 12),
        (["verify-identities", "--input", "chain3-min", "--max-n", "5"], 4),
        (["verify-identities", "--max-n", "9"], 8),
        (["order-probe", "--n", "7"], 6),
    ],
    ids=[
        "enumerate-13",
        "export-13",
        "enumerate-14",
        "verify-identities-input-5",
        "verify-identities-9",
        "order-probe-7",
    ],
)
def test_levels_above_the_held_bound_exit_two_at_once(argv, ceiling):
    """Each level argument above its ceiling exits before any work: the
    uncapped runs take 38 s (identities at 9) to minutes, past the timeout."""
    proc = run_process(*argv, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    level = next(argv[k + 1] for k, a in enumerate(argv) if a in ("--n", "--max-n"))
    assert f"level {level} outside 0..{ceiling}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "name,table,key,value",
    [
        ("or2", "tensor", "0,ghost", "1"),
        ("sigma-or2", "compose", "nosuch,cell", "0"),
        ("sigma-or2", "identities", "ghost", "0"),
        ("sigma-or2", "obj_tensor", "*,ghost", "*"),
        ("sigma-or2", "cell_tensor", "0,nosuch", "1"),
    ],
    ids=["tensor", "compose", "identities", "obj_tensor", "cell_tensor"],
)
def test_a_table_entry_outside_its_domain_exits_two(capsys, tmp_path, name, table, key, value):
    doc = json.loads(
        (SRC / "catalan_sset" / "data" / "suite" / f"{name}.json").read_text(encoding="utf-8")
    )
    doc[table][key] = value
    target = tmp_path / "stray.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify-theorem", "--input", str(target))
    assert (code, out) == (2, "")
    subject = "monoidal poset" if name == "or2" else "monoidal 2-category"
    assert err == f"error: {subject}: INVALID (1): {table} key {key!r} is outside its domain\n"


# Three inputs that each fail one law at several places, so that the first
# message shows the order in which the validator visits the law: the poset
# and the plain 2-category break antisymmetry twice over, and the monoidal
# one has a tensor that is not monotone.
_ENDO = ("1A", "a", "b")
_UNORDERED = {
    "poset.json": {
        "elements": ["a", "b", "c", "d"],
        "leq": [[x, x] for x in "abcd"] + [["a", "b"], ["b", "a"], ["c", "d"], ["d", "c"]],
        "tensor": {f"{x},{y}": "a" for x in "abcd" for y in "abcd"},
        "unit": "a",
    },
    "bicat.json": {
        "objects": ["*"],
        "cells": [{"from": "*", "to": "*", "name": x} for x in "abcd"],
        "leq": [[x, x] for x in "abcd"] + [["a", "b"], ["b", "a"], ["c", "d"], ["d", "c"]],
        "compose": {f"{x},{y}": y if x == "a" else x for x in "abcd" for y in "abcd"},
        "identities": {"*": "a"},
    },
    # 1A <= a and b <= a; a and b are left zeros; the tensor sends
    # (f, g) to phi(f), where phi fixes 1A and b and sends a to b
    "monoidal.json": {
        "objects": ["I", "A"],
        "cells": [{"from": "I", "to": "I", "name": "1I"}]
        + [{"from": "A", "to": "A", "name": f} for f in _ENDO],
        "leq": [[f, f] for f in ("1I", *_ENDO)] + [["1A", "a"], ["b", "a"]],
        "compose": {
            "1I,1I": "1I",
            **{f"{g},{f}": f if g == "1A" else g for g in _ENDO for f in _ENDO},
        },
        "identities": {"I": "1I", "A": "1A"},
        "obj_tensor": {"I,I": "I", "I,A": "A", "A,I": "A", "A,A": "A"},
        "cell_tensor": {
            **{f"1I,{f}": f for f in ("1I", *_ENDO)},
            **{f"{f},1I": f for f in _ENDO},
            **{f"{f},{g}": "1A" if f == "1A" else "b" for f in _ENDO for g in _ENDO},
        },
        "unit_object": "I",
    },
}


def test_validation_messages_do_not_depend_on_the_hash_seed(tmp_path):
    for file, doc in _UNORDERED.items():
        (tmp_path / file).write_text(json.dumps(doc), encoding="utf-8")
    script = (
        "import sys\nfrom catalan_sset import cli\n"
        "for file in sys.argv[1:]:\n"
        "    print(cli.main(['verify-monads', '--input', file]), file=sys.stderr)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    errs = {
        subprocess.run(
            [sys.executable, "-c", script, *(str(tmp_path / f) for f in _UNORDERED)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
        ).stderr
        for seed in range(4)
    }
    assert errs == {
        "error: monoidal poset: INVALID (4): leq not antisymmetric on a, b\n2\n"
        "error: 2-category: INVALID (4): hom order not antisymmetric on a, b\n2\n"
        "error: monoidal 2-category: INVALID (5): "
        "cell tensor not monotone on 1A <= a, 1A <= 1A\n2\n"
    }


def _readme_block(heading: str) -> str:
    """The body of the first fenced block under ``## heading`` in the README."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    """The quick tour runs as written, and every command line exits 0."""
    exec(_readme_block("Library quick tour"), {})
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("Command line").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines]
    assert ["catalan-sset", "verify-theorem", "--input", "suite/or2.json"] in argvs
    for prog, *argv in argvs:
        assert prog == "catalan-sset"
        assert run(capsys, *argv)[0] == 0, argv
