"""Every name the benchmark's job script takes from the package still exists.

``bench/job.py`` lies outside the default test paths, so a deletion in the
package that breaks it would otherwise pass the suite.  The script is read
with ``ast`` and never run or imported here.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import catalan_sset

JOB = Path(__file__).resolve().parents[1] / "bench" / "job.py"


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


def test_every_declared_name_exists():
    for info in pkgutil.iter_modules(catalan_sset.__path__):
        mod = importlib.import_module(f"catalan_sset.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"catalan_sset.{info.name}.{name}"
    init = Path(catalan_sset.__file__).read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(init)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert hasattr(catalan_sset, alias.asname or alias.name), alias.name
