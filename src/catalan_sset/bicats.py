"""Finite strict 2-categories with poset homs, optionally monoidal.

Everything is table-driven and finite: objects, named 1-cells with sources
and targets, an order on parallel cells, a total composition table, and for
the monoidal variant tensor tables on objects and cells with a strict unit.
Between parallel 1-cells the order supplies at most one 2-cell, so all
2-dimensional equations reduce to comparisons in the tables, and validation
can check every law exhaustively.
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, NamedTuple

from .errors import InvalidInputError, NotCommutativeError
from .posets import (
    MonoidalPoset, ValidationReport, _entries, _order_faults, require_valid,
    validate_monoidal_poset,
)

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


def _monotone(bad: list[str], names, leq, table: Mapping, what: str) -> None:
    """Report each f <= f2, g <= g2 with ``table[(f, g)]`` defined but not
    below ``table[(f2, g2)]``, in the order of ``names``."""
    pairs = [(f, g) for f in names for g in names if (f, g) in leq]
    for f, f2 in pairs:
        for g, g2 in pairs:
            if (f, g) in table and (table[(f, g)], table[(f2, g2)]) not in leq:
                bad.append(f"{what} not monotone on {f} <= {f2}, {g} <= {g2}")


def validate_bicat(k: PosetalBicat) -> ValidationReport:
    objs = k.objects
    if len(set(objs)) != len(objs) or not objs:
        return ValidationReport("2-category", ("objects must be non-empty and distinct",))
    bad: list[str] = []
    names = [c.name for c in k.cells]
    nameset = set(names)
    if len(nameset) != len(names):
        bad.append("cell names must be distinct")
    if any("," in n for n in names):
        bad.append("cell names must not contain commas")
    bad += [f"cell {c.name} has unknown endpoints"
            for c in k.cells if c.src not in objs or c.dst not in objs]
    for f, g in sorted(k.leq):
        if f not in nameset or g not in nameset:
            bad.append(f"leq pair ({f}, {g}) mentions unknown cells")
        elif (k.src(f), k.dst(f)) != (k.src(g), k.dst(g)):
            bad.append(f"leq pair ({f}, {g}) compares non-parallel cells")
    bad += _order_faults(names, k.leq, "hom order", "{0} <= {1} <= {2}")
    for x, e in _entries(bad, k.identities, objs, "missing identity cell for {0}", "identities"):
        if e not in nameset:
            bad.append(f"missing identity cell for {x}")
        elif (k.src(e), k.dst(e)) != (x, x):
            bad.append(f"identity of {x} is not an endo-cell")
    if bad:
        return ValidationReport("2-category", tuple(bad))
    composable = [(g, f) for g in names for f in names if k.dst(f) == k.src(g)]
    for (g, f), h in _entries(
        bad, k.compose, composable, "composite {0[0]} . {0[1]} undefined", "compose"
    ):
        if h not in nameset or (k.src(h), k.dst(h)) != (k.src(f), k.dst(g)):
            bad.append(f"composite {g} . {f} = {h} has wrong endpoints")
    if bad:
        return ValidationReport("2-category", tuple(bad))
    c, one = k.compose, k.identities
    for f in names:
        if c[(f, one[k.src(f)])] != f:
            bad.append(f"right unit law fails at {f}")
        if c[(one[k.dst(f)], f)] != f:
            bad.append(f"left unit law fails at {f}")
    bad += [f"associativity fails at {h} . {g} . {f}"
            for f in names for g in names if (g, f) in c
            for h in names if (h, g) in c and c[(h, c[(g, f)])] != c[(c[(h, g)], f)]]
    _monotone(bad, names, k.leq, {(f, g): h for (g, f), h in c.items()}, "composition")
    return ValidationReport("2-category", tuple(bad))


def validate_monoidal_bicat(b: PosetalMonoidalBicat) -> ValidationReport:
    base = validate_bicat(b)
    if not base.ok:
        return ValidationReport("monoidal 2-category", base.violations)
    bad: list[str] = []
    objs, names = b.objects, [c.name for c in b.cells]
    nameset = set(names)
    if b.unit_object not in objs:
        bad.append(f"unit object {b.unit_object} unknown")
    undefined = "object tensor undefined or out of range on ({0[0]}, {0[1]})"
    for key, z in _entries(bad, b.obj_tensor, product(objs, objs), undefined, "obj_tensor"):
        if z not in objs:
            bad.append(undefined.format(key))
    entries = list(_entries(
        bad, b.cell_tensor, product(names, names), "cell tensor undefined on ({0[0]}, {0[1]})",
        "cell_tensor",
    ))
    if bad:
        return ValidationReport("monoidal 2-category", tuple(bad))
    for (f, g), h in entries:
        if h not in nameset:
            bad.append(f"cell tensor ({f}, {g}) = {h} unknown")
        elif (b.src(h), b.dst(h)) != (
            b.obj_tensor[(b.src(f), b.src(g))], b.obj_tensor[(b.dst(f), b.dst(g))]
        ):
            bad.append(f"cell tensor ({f}, {g}) has wrong endpoints")
    if bad:
        return ValidationReport("monoidal 2-category", tuple(bad))
    # with the endpoints above, the object tensor's unit and associativity
    # laws are the cell tensor's on identity cells, so they need no check
    t, c, one = b.cell_tensor, b.compose, b.identities
    idi = one[b.unit_object]
    bad += [f"cell tensor not strictly unital at {f}"
            for f in names if t[(f, idi)] != f or t[(idi, f)] != f]
    bad += [f"tensor of identities at ({x}, {y}) is not an identity"
            for x in objs for y in objs if t[(one[x], one[y])] != one[b.obj_tensor[(x, y)]]]
    bad += [f"cell tensor not associative at ({f}, {g}, {h})"
            for f, g in product(names, names) for h in names
            if t[(t[(f, g)], h)] != t[(f, t[(g, h)])]]
    # functoriality: (f2.f1) x (g2.g1) = (f2 x g2).(f1 x g1); interchange follows
    composable = [(f1, f2) for f1 in names for f2 in names if (f2, f1) in c]
    bad += [f"tensor not functorial on ({f2}.{f1}, {g2}.{g1})"
            for f1, f2 in composable for g1, g2 in composable
            if t[(c[(f2, f1)], c[(g2, g1)])] != c[(t[(f2, g2)], t[(f1, g1)])]]
    _monotone(bad, names, b.leq, t, "cell tensor")
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
    return PosetalMonoidalBicat(
        objects=(obj,),
        cells=cells,
        leq=frozenset(m.leq),
        compose=dict(table),
        identities={obj: m.unit},
        obj_tensor={(obj, obj): obj},
        cell_tensor=dict(table),
        unit_object=obj,
    )


def embed(m: MonoidalPoset) -> PosetalMonoidalBicat:
    """The poset as objects with one cell per related pair and discrete homs."""
    require_valid(validate_monoidal_poset(m))

    def cell_name(a: str, b: str) -> str:
        return f"{a}->{b}"

    cells = tuple(Cell(cell_name(a, b), a, b) for (a, b) in sorted(m.leq))
    # the laws of the result follow from the poset's, which are checked above;
    # only the names can clash, as with elements a, c, a->b, b->c
    if len({c.name for c in cells}) != len(cells):
        raise InvalidInputError("element names with '->' give two cells one name")
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
    return PosetalMonoidalBicat(
        objects=tuple(m.elements),
        cells=cells,
        leq=frozenset((c.name, c.name) for c in cells),
        compose=compose,
        identities={e: cell_name(e, e) for e in m.elements},
        obj_tensor=dict(m.tensor),
        cell_tensor=cell_tensor,
        unit_object=m.unit,
    )
