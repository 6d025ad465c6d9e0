"""Every law check of the validators, the associativity inequality of the
skew-monoidale census, each row-law check of the relation and ideal models,
the map search's naturality check and the comparison in the replay behind
it, the length check of nerve membership and both checks of the catalogue's
self-verification is needed, and so is each step of the two fast paths
(the run tables of ``catalan.act`` and the generated row reader of the
``models`` pullbacks): cutting any one of them from a copy of the package
makes the tests that pin it fail.

Each mutant is a (module, snippet, test modules) triple.  The snippet, an
exact piece of source, is cut from a fresh copy of ``src/``, or, given as
an (old, new) pair, old is replaced by new; then the named test modules
run in a child process with that copy first on ``PYTHONPATH``.  A snippet
that is no longer in its module fails the test, so the list cannot go
stale silently.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAWS = ("tests/test_posets_bicats.py", "tests/test_classify.py")
MODELS = ("tests/test_models.py",)
SSET = ("tests/test_sset.py",)
CATALAN = ("tests/test_catalan.py",)
NERVE = ("tests/test_nerve.py",)
CATALOGUE = ("tests/test_catalogue.py",)

MUTANTS = {
    "order reflexive": (
        "posets.py",
        '[f"{what} not reflexive at {a}" for a in names if (a, a) not in leq]\n        + ',
        LAWS,
    ),
    "order antisymmetric": (
        "posets.py",
        '\n        + [f"{what} not antisymmetric on {a}, {b}" for a, b in pairs'
        " if a != b and (b, a) in leq]",
        LAWS,
    ),
    "order transitive": (
        "posets.py",
        '\n        + [f"{what} not transitive: " + transitive.format(a, b, c)\n'
        "           for a, b in pairs for c in names if (b, c) in leq and (a, c) not in leq]",
        LAWS,
    ),
    "poset unit law": (
        "posets.py",
        '    bad += [f"unit law fails at {a}" for a in els'
        " if t[(m.unit, a)] != a or t[(a, m.unit)] != a]\n",
        LAWS,
    ),
    "poset associativity": (
        "posets.py",
        '    bad += [f"associativity fails at ({a}, {b}, {c})"\n'
        "            for a, b in grid for c in els if t[(t[(a, b)], c)] != t[(a, t[(b, c)])]]\n",
        LAWS,
    ),
    "poset tensor monotone on the left": (
        "posets.py",
        "            if (t[(a, c)], t[(b, c)]) not in m.leq:\n"
        '                bad.append(f"tensor not monotone on the left: {a} <= {b}, with {c}")\n',
        LAWS,
    ),
    "poset tensor monotone on the right": (
        "posets.py",
        "            if (t[(c, a)], t[(c, b)]) not in m.leq:\n"
        '                bad.append(f"tensor not monotone on the right: {a} <= {b}, with {c}")\n',
        LAWS,
    ),
    "composition right unit": (
        "bicats.py",
        "        if c[(f, one[k.src(f)])] != f:\n"
        '            bad.append(f"right unit law fails at {f}")\n',
        LAWS,
    ),
    "composition left unit": (
        "bicats.py",
        "        if c[(one[k.dst(f)], f)] != f:\n"
        '            bad.append(f"left unit law fails at {f}")\n',
        LAWS,
    ),
    "composition associative": (
        "bicats.py",
        '    bad += [f"associativity fails at {h} . {g} . {f}"\n'
        "            for f in names for g in names if (g, f) in c\n"
        "            for h in names if (h, g) in c and c[(h, c[(g, f)])] != c[(c[(h, g)], f)]]\n",
        LAWS,
    ),
    "composition monotone": (
        "bicats.py",
        '    _monotone(bad, names, k.leq, {(f, g): h for (g, f), h in c.items()}, "composition")\n',
        LAWS,
    ),
    "cell tensor endpoints": (
        "bicats.py",
        "        elif (b.src(h), b.dst(h)) != (\n"
        "            b.obj_tensor[(b.src(f), b.src(g))], b.obj_tensor[(b.dst(f), b.dst(g))]\n"
        "        ):\n"
        '            bad.append(f"cell tensor ({f}, {g}) has wrong endpoints")\n',
        LAWS,
    ),
    "cell tensor strictly unital": (
        "bicats.py",
        '    bad += [f"cell tensor not strictly unital at {f}"\n'
        "            for f in names if t[(f, idi)] != f or t[(idi, f)] != f]\n",
        LAWS,
    ),
    "tensor of identities": (
        "bicats.py",
        '    bad += [f"tensor of identities at ({x}, {y}) is not an identity"\n'
        "            for x in objs for y in objs"
        " if t[(one[x], one[y])] != one[b.obj_tensor[(x, y)]]]\n",
        LAWS,
    ),
    "cell tensor associative": (
        "bicats.py",
        '    bad += [f"cell tensor not associative at ({f}, {g}, {h})"\n'
        "            for f, g in product(names, names) for h in names\n"
        "            if t[(t[(f, g)], h)] != t[(f, t[(g, h)])]]\n",
        LAWS,
    ),
    "tensor functorial": (
        "bicats.py",
        '    bad += [f"tensor not functorial on ({f2}.{f1}, {g2}.{g1})"\n'
        "            for f1, f2 in composable for g1, g2 in composable\n"
        "            if t[(c[(f2, f1)], c[(g2, g1)])] != c[(t[(f2, g2)], t[(f1, g1)])]]\n",
        LAWS,
    ),
    "cell tensor monotone": (
        "bicats.py",
        '    _monotone(bad, names, b.leq, t, "cell tensor")\n',
        LAWS,
    ),
    "skew monoidale associativity": (
        "classify.py",
        "        b.leq_cells(assoc_left, assoc_right)\n        and ",
        LAWS,
    ),
    # the models' row laws; the identity re-check in ``enumerate_square_ideals``
    # is left out, since every generated column top is at least its index, so
    # every candidate holds the identity ideal and no cut of it can be killed
    "relation reflexive": (
        "models.py",
        "    for v in range(n + 1):\n"
        "        if not rows[v] >> v & 1:\n"
        '            raise NotInterpolativeError(f"not reflexive: missing {(v, v)}")\n',
        MODELS,
    ),
    "relation symmetric": (
        "models.py",
        "    for a, r in enumerate(rows):\n"
        "        for b in range(n + 1):\n"
        "            if r >> b & 1 and not rows[b] >> a & 1:\n"
        '                raise NotInterpolativeError(f"not symmetric: {(a, b)} without {(b, a)}")\n',
        MODELS,
    ),
    "relation interpolative": (
        "models.py",
        "            if r >> k & 1 and gaps:\n"
        "                j = (gaps & -gaps).bit_length() - 1\n"
        "                raise NotInterpolativeError(\n"
        '                    f"interpolation fails: {(i, k)} present, {(i, j)}/{(j, k)} not"\n'
        "                )\n",
        MODELS,
    ),
    "ideal rows closed upward": ("models.py", "up and ", MODELS),
    "ideal rows inside the row before": (
        "models.py",
        " and all(r & ~before == 0 for before, r in zip(rows, rows[1:]))",
        MODELS,
    ),
    "ideal contains the identity": (
        "models.py",
        "    if not ideal_leq(identity_ideal(n), b):\n"
        '        raise MissingIdentityIdealError("identity ideal not contained")\n',
        MODELS,
    ),
    "map search naturality": (
        "sset.py",
        "        if bad:\n"
        "            xi, x = bad[0]\n"
        "            raise AssertionError(\n"
        '                f"enumerated map fails naturality at {xi} on {x!r}; "\n'
        '                "face-consistent assignments must extend naturally"\n'
        "            )\n",
        SSET,
    ),
    # with the comparison cut, the replay reports every pair it visits
    "replay comparison": (
        "sset.py",
        "if moved[row[k]] != images[m][j]:\n" + " " * 24,
        SSET,
    ),
    "nerve contains: lengths": (
        "nerve.py",
        "        if len(objs) != len(_subsets(n, r)) or len(cells) != len(_subsets(n, r + 1)):\n"
        "            return False\n",
        NERVE,
    ),
    "catalogue: recorded faces": (
        "catalogue.py",
        "            if got != want:\n"
        "                mismatches.append(\n"
        '                    f"{ns.name}: d_{idx} is {got!r}, recorded {face_label(ref)} = {want!r}"\n'
        "                )\n",
        CATALOGUE,
    ),
    "catalogue: each level is the non-degenerate census": (
        "catalogue.py",
        "    for level, entries in by_level.items():\n"
        "        if entries != set(census.nondegenerate(level)):\n"
        "            mismatches.append(\n"
        '                f"level {level}: named entries differ from the non-degenerate simplices"\n'
        "            )\n",
        CATALOGUE,
    ),
    # without the shift, every run table reads the lowest five source bits
    "act: next run": ("catalan.py", "        src >>= _CHUNK\n", CATALAN),
    # slot 0 of the reader reads the table at the map's value, not its row
    "row reader: rows indirection": (
        "models.py",
        (
            '(f"t[r[v{p}]], " for p in range(k))',
            '(f"t[r[v{p}]], " if p else "t[v0], " for p in range(k))',
        ),
        MODELS,
    ),
}


def _run_targets(
    tmp_path, module: str, snippet: str | tuple[str, str], targets: tuple[str, ...]
) -> subprocess.CompletedProcess:
    """Run the ``targets`` test modules on a copy of ``src/`` with ``snippet``
    cut from ``module``, or replaced there when it is an (old, new) pair."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "catalan_sset" / module
    text = path.read_text(encoding="utf-8")
    old, new = (snippet, "") if isinstance(snippet, str) else snippet
    if old:
        assert text.count(old) == 1, f"snippet not found once in {module}: {old!r}"
        text = text.replace(old, new)
        compile(text, str(path), "exec")  # a cut that breaks the syntax kills nothing
        path.write_text(text, encoding="utf-8")
    path_var = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path_var),
        timeout=600,
    )


@pytest.mark.slow
def test_the_uncut_copy_passes(tmp_path):
    proc = _run_targets(
        tmp_path, "posets.py", "", LAWS + MODELS + SSET + CATALAN + NERVE + CATALOGUE
    )
    assert proc.returncode == 0, proc.stdout[-2000:]


@pytest.mark.slow
@pytest.mark.parametrize("law", sorted(MUTANTS))
def test_cutting_a_law_check_fails_the_tests(tmp_path, law):
    proc = _run_targets(tmp_path, *MUTANTS[law])
    # 1: some test failed; 2 would mean the run broke before testing anything
    assert proc.returncode == 1, f"{law} survives:\n{proc.stdout[-2000:]}"
