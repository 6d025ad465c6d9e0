"""The probe, a posetal monoidal 2-category that is neither an embedding nor
a suspension; componentwise products; and the single-entry perturbations of
a 2-category's tables.  Imported by the test modules; pytest does not
collect it.

The probe has objects ``I`` (the unit) and ``A`` with ``A x A = A``;
``hom(I, I) = {1I}``, ``hom(I, A) = {e}`` and ``hom(A, I)`` is empty.
``hom(A, A)`` is the chain ``z < 1A < t < s``, composed as the monoid
{0, 1, t, t^2 = t^3} (``z`` absorbs, ``t.t = s``), and ``g.e = e`` for every
g.  The cell tensor is the left projection on ``hom(A, A)``, with
``e x f = z``, ``f x e = f`` and ``e x e = e``.  In an embedding each hom
holds at most one cell, and in a suspension composition and tensor are one
commutative operation, so in neither can ``t.(t x 1)`` and ``t.(1 x t)``
differ; here they do, so the associativity inequality of a skew monoidale
is what refuses the multiplication ``t``.
"""

from __future__ import annotations

from catalan_sset.bicats import Cell, PosetalBicat, PosetalMonoidalBicat

ENDO = ("z", "1A", "t", "s")


def _endo_compose(g: str, f: str) -> str:
    if "z" in (g, f):
        return "z"
    if "1A" in (g, f):
        return f if g == "1A" else g
    return "s"


def probe() -> PosetalMonoidalBicat:
    cells = (Cell("1I", "I", "I"), Cell("e", "I", "A")) + tuple(Cell(f, "A", "A") for f in ENDO)
    names = [c.name for c in cells]
    compose = {("1I", "1I"): "1I", ("e", "1I"): "e"}
    compose.update({(g, "e"): "e" for g in ENDO})
    compose.update({(g, f): _endo_compose(g, f) for g in ENDO for f in ENDO})
    cell_tensor = {(f, g): f for f in ENDO for g in ENDO}
    cell_tensor.update({("e", f): "z" for f in ENDO})
    cell_tensor.update({(f, "e"): f for f in ENDO})
    cell_tensor[("e", "e")] = "e"
    cell_tensor.update({("1I", f): f for f in names})
    cell_tensor.update({(f, "1I"): f for f in names})
    return PosetalMonoidalBicat(
        objects=("I", "A"),
        cells=cells,
        leq=frozenset((f, f) for f in names)
        | {(f, g) for i, f in enumerate(ENDO) for g in ENDO[i + 1:]},
        compose=compose,
        identities={"I": "1I", "A": "1A"},
        obj_tensor={(x, y): "I" if x == y == "I" else "A" for x in "IA" for y in "IA"},
        cell_tensor=cell_tensor,
        unit_object="I",
    )


def pair_name(u: str, v: str) -> str:
    """The name of a pair of names in a product: no comma, so the tables of
    an input file could still spell it."""
    return f"{u}&{v}"


def product(b1: PosetalMonoidalBicat, b2: PosetalMonoidalBicat) -> PosetalMonoidalBicat:
    """The componentwise product: objects, cells, order, composition and both
    tensors are taken factor by factor."""

    def on_pairs(t1, t2):
        return {(pair_name(a1, a2), pair_name(c1, c2)): pair_name(t1[(a1, c1)], t2[(a2, c2)])
                for (a1, c1) in t1 for (a2, c2) in t2}

    return PosetalMonoidalBicat(
        objects=tuple(pair_name(x, y) for x in b1.objects for y in b2.objects),
        cells=tuple(Cell(*map(pair_name, f, g)) for f in b1.cells for g in b2.cells),
        leq=frozenset((pair_name(f1, g1), pair_name(f2, g2))
                      for f1, f2 in b1.leq for g1, g2 in b2.leq),
        compose=on_pairs(b1.compose, b2.compose),
        identities={pair_name(x, y): pair_name(i, j)
                    for x, i in b1.identities.items() for y, j in b2.identities.items()},
        obj_tensor=on_pairs(b1.obj_tensor, b2.obj_tensor),
        cell_tensor=on_pairs(b1.cell_tensor, b2.cell_tensor),
        unit_object=pair_name(b1.unit_object, b2.unit_object),
    )


def plain(b: PosetalBicat) -> PosetalBicat:
    """The underlying 2-category of a monoidal one."""
    return PosetalBicat(b.objects, b.cells, b.leq, dict(b.compose), dict(b.identities))


def _with(b: PosetalMonoidalBicat, **tables) -> PosetalMonoidalBicat:
    fields = dict(
        objects=b.objects, cells=b.cells, leq=b.leq, compose=b.compose,
        identities=b.identities, obj_tensor=b.obj_tensor, cell_tensor=b.cell_tensor,
        unit_object=b.unit_object,
    )
    return PosetalMonoidalBicat(**{**fields, **tables})


def perturbations(b: PosetalMonoidalBicat):
    """Every single-entry change to ``b``'s tables, as (label, changed copy):
    each ``compose`` and ``cell_tensor`` value replaced by every other cell
    parallel to it, each ``obj_tensor`` value by every other object, each
    ``leq`` pair removed and each missing pair of parallel cells added."""
    for table in ("compose", "cell_tensor"):
        entries = getattr(b, table)
        for key, value in entries.items():
            for other in b.hom(b.src(value), b.dst(value)):
                if other != value:
                    yield (table, key, other), _with(b, **{table: {**entries, key: other}})
    for key, value in b.obj_tensor.items():
        for other in b.objects:
            if other != value:
                yield ("obj_tensor", key, other), _with(b, obj_tensor={**b.obj_tensor, key: other})
    for pair in sorted(b.leq):
        yield ("leq", pair, "removed"), _with(b, leq=b.leq - {pair})
    for c in b.cells:
        for g in b.hom(c.src, c.dst):
            if (c.name, g) not in b.leq:
                yield ("leq", (c.name, g), "added"), _with(b, leq=b.leq | {(c.name, g)})
