"""Finite strict 2-categories with poset homs, optionally monoidal.

Everything is table-driven and finite: objects, named 1-cells with sources
and targets, an order on parallel cells, a total composition table, and for
the monoidal variant tensor tables on objects and cells with a strict unit.
Between parallel 1-cells the order supplies at most one 2-cell, so all
2-dimensional equations reduce to comparisons in the tables, and validation
can check every law exhaustively.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import NotCommutativeError
from .posets import MonoidalPoset, ValidationReport, require_valid, validate_monoidal_poset

__all__ = [
    "Cell",
    "PosetalBicat",
    "PosetalMonoidalBicat",
    "validate_bicat",
    "validate_monoidal_bicat",
    "suspend",
    "embed",
]


class Cell(NamedTuple):
    name: str
    src: str
    dst: str


class PosetalBicat:
    """Objects, 1-cells, hom-poset order, composition and identities."""

    __slots__ = ("objects", "cells", "leq", "compose", "identities", "_src", "_dst", "_hom")

    def __init__(
        self, objects: tuple[str, ...], cells: tuple[Cell, ...], leq: frozenset,
        compose: Mapping[tuple[str, str], str], identities: Mapping[str, str],
    ):
        self.objects = objects
        self.cells = cells
        self.leq = leq
        self.compose = compose
        self.identities = identities
        # cell name -> source and target; (source, target) -> the hom's cells in order
        self._src, self._dst, self._hom = {}, {}, {}
        for c in cells:
            self._src[c.name] = c.src
            self._dst[c.name] = c.dst
            self._hom[(c.src, c.dst)] = self._hom.get((c.src, c.dst), ()) + (c.name,)

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def src(self, f: str) -> str:
        return self._src[f]

    def dst(self, f: str) -> str:
        return self._dst[f]

    def leq_cells(self, f: str, g: str) -> bool:
        return (f, g) in self.leq

    def compose_cells(self, g: str, f: str) -> str:
        """g after f."""
        return self.compose[(g, f)]

    def identity_of(self, x: str) -> str:
        return self.identities[x]


class PosetalMonoidalBicat(PosetalBicat):
    """A posetal 2-category with strict tensor tables and a unit object."""

    __slots__ = ("obj_tensor", "cell_tensor", "unit_object")

    def __init__(
        self, objects, cells, leq, compose, identities,
        obj_tensor: Mapping[tuple[str, str], str], cell_tensor: Mapping[tuple[str, str], str],
        unit_object: str,
    ):
        super().__init__(objects, cells, leq, compose, identities)
        self.obj_tensor = obj_tensor
        self.cell_tensor = cell_tensor
        self.unit_object = unit_object

    def tensor_objects(self, x: str, y: str) -> str:
        return self.obj_tensor[(x, y)]

    def tensor_cells(self, f: str, g: str) -> str:
        return self.cell_tensor[(f, g)]


def validate_bicat(k: PosetalBicat) -> ValidationReport:
    bad: list[str] = []
    objs = k.objects
    if len(set(objs)) != len(objs) or not objs:
        return ValidationReport("2-category", ("objects must be non-empty and distinct",))
    names = [c.name for c in k.cells]
    if len(set(names)) != len(names):
        bad.append("cell names must be distinct")
    if any("," in n for n in names):
        bad.append("cell names must not contain commas")
    nameset = set(names)
    for c in k.cells:
        if c.src not in objs or c.dst not in objs:
            bad.append(f"cell {c.name} has unknown endpoints")
    for (f, g) in k.leq:
        if f not in nameset or g not in nameset:
            bad.append(f"leq pair ({f}, {g}) mentions unknown cells")
        elif (k.src(f), k.dst(f)) != (k.src(g), k.dst(g)):
            bad.append(f"leq pair ({f}, {g}) compares non-parallel cells")
    for f in names:
        if (f, f) not in k.leq:
            bad.append(f"hom order not reflexive at {f}")
    for (f, g) in k.leq:
        if f != g and (g, f) in k.leq:
            bad.append(f"hom order not antisymmetric on {f}, {g}")
        for h in nameset:
            if (g, h) in k.leq and (f, h) not in k.leq:
                bad.append(f"hom order not transitive: {f} <= {g} <= {h}")
    for x in objs:
        if x not in k.identities or k.identities[x] not in nameset:
            bad.append(f"missing identity cell for {x}")
        else:
            e = k.identities[x]
            if (k.src(e), k.dst(e)) != (x, x):
                bad.append(f"identity of {x} is not an endo-cell")
    if bad:
        return ValidationReport("2-category", tuple(bad))
    # composition: totality, endpoints, units, associativity, monotonicity
    for g in names:
        for f in names:
            if k.dst(f) != k.src(g):
                continue
            if (g, f) not in k.compose:
                bad.append(f"composite {g} . {f} undefined")
                continue
            h = k.compose[(g, f)]
            if h not in nameset or (k.src(h), k.dst(h)) != (k.src(f), k.dst(g)):
                bad.append(f"composite {g} . {f} = {h} has wrong endpoints")
    if bad:
        return ValidationReport("2-category", tuple(bad))
    for f in names:
        if k.compose_cells(f, k.identity_of(k.src(f))) != f:
            bad.append(f"right unit law fails at {f}")
        if k.compose_cells(k.identity_of(k.dst(f)), f) != f:
            bad.append(f"left unit law fails at {f}")
    for f in names:
        for g in names:
            if k.dst(f) != k.src(g):
                continue
            for h in names:
                if k.dst(g) != k.src(h):
                    continue
                if k.compose_cells(h, k.compose_cells(g, f)) != k.compose_cells(
                    k.compose_cells(h, g), f
                ):
                    bad.append(f"associativity fails at {h} . {g} . {f}")
    for (f, f2) in k.leq:
        for (g, g2) in k.leq:
            if k.dst(f) != k.src(g):
                continue
            if (k.compose_cells(g, f), k.compose_cells(g2, f2)) not in k.leq:
                bad.append(
                    f"composition not monotone on {f} <= {f2}, {g} <= {g2}"
                )
    return ValidationReport("2-category", tuple(bad))


def validate_monoidal_bicat(b: PosetalMonoidalBicat) -> ValidationReport:
    base = validate_bicat(b)
    if not base.ok:
        return ValidationReport("monoidal 2-category", base.violations)
    bad: list[str] = []
    objs = b.objects
    names = [c.name for c in b.cells]
    if b.unit_object not in objs:
        bad.append(f"unit object {b.unit_object} unknown")
    for x in objs:
        for y in objs:
            if (x, y) not in b.obj_tensor or b.obj_tensor[(x, y)] not in objs:
                bad.append(f"object tensor undefined or out of range on ({x}, {y})")
    for f in names:
        for g in names:
            if (f, g) not in b.cell_tensor:
                bad.append(f"cell tensor undefined on ({f}, {g})")
    if bad:
        return ValidationReport("monoidal 2-category", tuple(bad))
    nameset = set(names)
    for f in names:
        for g in names:
            h = b.cell_tensor[(f, g)]
            if h not in nameset:
                bad.append(f"cell tensor ({f}, {g}) = {h} unknown")
                continue
            want_src = b.obj_tensor[(b.src(f), b.src(g))]
            want_dst = b.obj_tensor[(b.dst(f), b.dst(g))]
            if (b.src(h), b.dst(h)) != (want_src, want_dst):
                bad.append(f"cell tensor ({f}, {g}) has wrong endpoints")
    if bad:
        return ValidationReport("monoidal 2-category", tuple(bad))
    i = b.unit_object
    for x in objs:
        if b.obj_tensor[(i, x)] != x or b.obj_tensor[(x, i)] != x:
            bad.append(f"object tensor not strictly unital at {x}")
        for y in objs:
            for z in objs:
                if b.obj_tensor[(b.obj_tensor[(x, y)], z)] != b.obj_tensor[
                    (x, b.obj_tensor[(y, z)])
                ]:
                    bad.append(f"object tensor not associative at ({x}, {y}, {z})")
    idi = b.identities[i]
    for f in names:
        if b.cell_tensor[(f, idi)] != f or b.cell_tensor[(idi, f)] != f:
            bad.append(f"cell tensor not strictly unital at {f}")
    for x in objs:
        for y in objs:
            if b.cell_tensor[(b.identities[x], b.identities[y])] != b.identities[
                b.obj_tensor[(x, y)]
            ]:
                bad.append(f"tensor of identities at ({x}, {y}) is not an identity")
    for f in names:
        for g in names:
            for h in names:
                if b.cell_tensor[(b.cell_tensor[(f, g)], h)] != b.cell_tensor[
                    (f, b.cell_tensor[(g, h)])
                ]:
                    bad.append(f"cell tensor not associative at ({f}, {g}, {h})")
    # functoriality (interchange included): (f2.f1) x (g2.g1) = (f2 x g2).(f1 x g1)
    for f1 in names:
        for f2 in names:
            if b.dst(f1) != b.src(f2):
                continue
            for g1 in names:
                for g2 in names:
                    if b.dst(g1) != b.src(g2):
                        continue
                    lhs = b.cell_tensor[
                        (b.compose_cells(f2, f1), b.compose_cells(g2, g1))
                    ]
                    rhs = b.compose_cells(
                        b.cell_tensor[(f2, g2)], b.cell_tensor[(f1, g1)]
                    )
                    if lhs != rhs:
                        bad.append(
                            f"tensor not functorial on ({f2}.{f1}, {g2}.{g1})"
                        )
    # the interchange instance with identities, spelled out
    for f in names:
        for g in names:
            a = b.compose_cells(
                b.cell_tensor[(f, b.identities[b.dst(g)])],
                b.cell_tensor[(b.identities[b.src(f)], g)],
            )
            c = b.compose_cells(
                b.cell_tensor[(b.identities[b.dst(f)], g)],
                b.cell_tensor[(f, b.identities[b.src(g)])],
            )
            if a != c:
                bad.append(f"interchange fails on ({f}, {g})")
    for (f, f2) in b.leq:
        for (g, g2) in b.leq:
            if (b.cell_tensor[(f, g)], b.cell_tensor[(f2, g2)]) not in b.leq:
                bad.append(f"cell tensor not monotone on {f} <= {f2}, {g} <= {g2}")
    return ValidationReport("monoidal 2-category", tuple(bad))


def suspend(m: MonoidalPoset) -> PosetalMonoidalBicat:
    """One object whose endo-cells are the poset, composed by the tensor.

    Needs a commutative tensor: with a single object the tensor of cells
    must agree with composition up to interchange, which forces symmetry.
    """
    require_valid(validate_monoidal_poset(m))
    if not m.is_commutative():
        raise NotCommutativeError(
            "suspension needs a commutative tensor; got a non-commutative one"
        )
    obj = "*"
    cells = tuple(Cell(e, obj, obj) for e in m.elements)
    table = {(a, b): m.tensor[(a, b)] for a in m.elements for b in m.elements}
    b = PosetalMonoidalBicat(
        objects=(obj,),
        cells=cells,
        leq=frozenset(m.leq),
        compose=dict(table),
        identities={obj: m.unit},
        obj_tensor={(obj, obj): obj},
        cell_tensor=dict(table),
        unit_object=obj,
    )
    require_valid(validate_monoidal_bicat(b))
    return b


def embed(m: MonoidalPoset) -> PosetalMonoidalBicat:
    """The poset as objects with one cell per related pair and discrete homs."""
    require_valid(validate_monoidal_poset(m))

    def cell_name(a: str, b: str) -> str:
        return f"{a}->{b}"

    cells = tuple(Cell(cell_name(a, b), a, b) for (a, b) in sorted(m.leq))
    cell_tensor = {}
    for (a, b) in m.leq:
        for (c, d) in m.leq:
            cell_tensor[(cell_name(a, b), cell_name(c, d))] = cell_name(
                m.tensor[(a, c)], m.tensor[(b, d)]
            )
    compose = {}
    for (a, b) in m.leq:
        for (b2, c) in m.leq:
            if b == b2:
                compose[(cell_name(b, c), cell_name(a, b))] = cell_name(a, c)
    b = PosetalMonoidalBicat(
        objects=tuple(m.elements),
        cells=cells,
        leq=frozenset((c.name, c.name) for c in cells),
        compose=compose,
        identities={e: cell_name(e, e) for e in m.elements},
        obj_tensor=dict(m.tensor),
        cell_tensor=cell_tensor,
        unit_object=m.unit,
    )
    require_valid(validate_monoidal_bicat(b))
    return b
