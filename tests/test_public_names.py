"""Every name the benchmark's job script takes from the package still exists,
and the package's lazily resolved names are the ones it always exported.

``bench/job.py`` lies outside the default test paths, so a deletion in the
package that breaks it would otherwise pass the suite.  The script is read
with ``ast`` and never run or imported here.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalan_sset

JOB = Path(__file__).resolve().parents[1] / "bench" / "job.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def _resolve(module: str, name: str):
    """``from module import name``: an attribute, or else a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def _job_imports() -> dict[str, object]:
    """Local name -> object for every ``from catalan_sset... import`` in the job."""
    bound = {}
    for node in ast.walk(ast.parse(JOB.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("catalan_sset"):
            for alias in node.names:
                bound[alias.asname or alias.name] = _resolve(node.module, alias.name)
    return bound


def _callees(func: ast.expr, bound: dict):
    """The package objects a call expression may name."""
    if isinstance(func, ast.IfExp):
        yield from _callees(func.body, bound)
        yield from _callees(func.orelse, bound)
    elif isinstance(func, ast.Name) and func.id in bound:
        yield bound[func.id]
    elif (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and inspect.ismodule(bound.get(func.value.id))
    ):
        yield getattr(bound[func.value.id], func.attr)


def test_every_job_import_resolves():
    bound = _job_imports()
    assert {"resolve_input", "CatalanSet", "MonoidalNerve", "BicatNerve", "sset"} <= set(bound)


def test_every_module_attribute_the_job_reads_exists():
    bound = _job_imports()
    tree = ast.parse(JOB.read_text(encoding="utf-8"))
    read = 0
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and inspect.ismodule(bound.get(node.value.id))
        ):
            assert hasattr(bound[node.value.id], node.attr), f"{node.value.id}.{node.attr}"
            read += 1
    assert read > 0


def test_every_keyword_the_job_passes_is_accepted():
    bound = _job_imports()
    checked = 0
    for node in ast.walk(ast.parse(JOB.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        names = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        for callee in _callees(node.func, bound):
            inspect.signature(callee).bind_partial(**names)
            checked += bool(names)
    assert checked > 0


# the names the package re-exported eagerly before it resolved them lazily,
# by defining module
REEXPORTS = {
    "catalan": (
        "CatalanSet", "DEFAULT_CHECK_BOUND", "DEFAULT_COUNT_BOUND", "HARD_LEVEL_BOUND",
        "LaxMatrix", "MOTZKIN", "act", "catalan_number", "enumerate_level",
        "lax_from_bits", "level_export", "nondegenerate_count", "nondegenerate_level",
        "reference_counts",
    ),
    "catalogue": ("NamedSimplex", "catalogue", "named", "verify_catalogue"),
    "classify": (
        "ClassificationReport", "MonadStructure", "SkewMonoidale",
        "direct_classification", "maps_from_catalan", "monads", "skew_monoidales",
        "verify_monad_remark", "verify_theorem",
    ),
    "delta": ("MonotoneMap", "all_maps", "compose", "degeneracy", "face", "identity"),
    "bicats": ("PosetalBicat", "PosetalMonoidalBicat", "embed", "suspend"),
    "inputs": ("load_path", "load_suite", "resolve_input", "suite_names"),
    "models": (
        "IdealRelation", "InterpolativeRelation", "adjoint_ideals", "compose_ideals",
        "enumerate_square_ideals", "ideal_leq", "ideal_pullback", "ideal_to_lax",
        "identity_ideal", "lax_to_ideal", "lax_to_relation", "relation_pullback",
        "relation_to_lax",
    ),
    "nerve": ("BicatNerve", "MonoidalNerve"),
    "posets": ("MonoidalPoset", "validate_monoidal_poset"),
    "sset": (
        "Boundary", "TruncatedSimplicialSet", "boundary_of", "compatible_boundaries",
        "coskeletal_filler_report", "enumerate_truncated_maps", "fillers",
        "is_compatible_boundary",
    ),
    "tamari": ("dyck_crosscheck", "matrix_to_word", "order_probe"),
}


def test_every_declared_name_exists():
    for info in pkgutil.iter_modules(catalan_sset.__path__):
        mod = importlib.import_module(f"catalan_sset.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"catalan_sset.{info.name}.{name}"


def test_every_package_name_is_its_defining_modules_attribute():
    defined_in = {name: module for module, names in REEXPORTS.items() for name in names}
    assert len(defined_in) == 69
    assert sorted(catalan_sset.__all__) == sorted(defined_in)
    for name, module in defined_in.items():
        home = importlib.import_module(f"catalan_sset.{module}")
        assert getattr(catalan_sset, name) is getattr(home, name), name
    namespace = {}
    exec("from catalan_sset import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(defined_in)
    with pytest.raises(AttributeError):
        catalan_sset.no_such_name


def _modules_after(argv: list[str]) -> set[str]:
    """The package modules, and ``dataclasses`` if loaded, that a fresh
    interpreter holds after one CLI run.  The child starts with ``-S``, so no
    ``.pth`` file of the host's site-packages loads a module for it."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "from catalan_sset import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "assert code == 0, code\n"
        "print(' '.join(m for m in sys.modules\n"
        "               if m.startswith('catalan_sset.') or m == 'dataclasses'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_each_verb_loads_only_the_layers_it_runs():
    counted = _modules_after(["count", "--max-n", "2"])
    assert "catalan_sset.tamari" in counted
    assert not counted & {
        "catalan_sset.nerve", "catalan_sset.classify", "catalan_sset.models", "dataclasses",
    }
    verdict = _modules_after(["verify-theorem", "--input", "and2"])
    assert {"catalan_sset.classify", "catalan_sset.nerve"} <= verdict
    assert not verdict & {"catalan_sset.models", "catalan_sset.tamari", "dataclasses"}
