"""Nerves of validated posetal inputs, as truncated simplicial sets.

The monoidal nerve of a posetal monoidal 2-category stores, per simplex, an
object for every interval and a 1-cell for every triple i < j < k running
from the tensor of the outer interval objects to the inner one; from level
3 upward each quadruple must satisfy one hom-poset inequality, and nothing
more is ever required because parallel 2-cells in a poset are equal.  The
plain nerve of a posetal 2-category stores an object per vertex and a
1-cell per interval with a triple inequality.

From level 3 (monoidal) or level 2 (plain) every stored object and cell
of a simplex lies in one of its faces, so a simplex is its boundary plus
the inequalities: ``fillers`` assembles the one candidate from the faces
and keeps it when ``contains`` accepts it, instead of scanning the level.

Both nerves pull back along a monotone map through one cached restriction
plan, ``_restriction``: the stored data is restricted, collapsed intervals
receive the unit object (monoidal) or the identity cell on their first
vertex (plain), and collapsed triples receive identity cells, which is
exactly what strictness makes of the general degeneracy formulas.  ``act``
reads the plan as two ``itemgetter`` gathers per map, cached beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter

from . import delta
from .bicats import (
    PosetalBicat,
    PosetalMonoidalBicat,
    require_valid,
    validate_bicat,
    validate_monoidal_bicat,
)
from .catalan import intervals, interval_index
from .delta import MonotoneMap
from .errors import DomainMismatchError
from .sset import TruncatedSimplicialSet

__all__ = [
    "MonoidalNerveSimplex",
    "BicatNerveSimplex",
    "MonoidalNerve",
    "BicatNerve",
    "triples",
    "triple_index",
]


@lru_cache(maxsize=None)
def triples(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(combinations(range(n + 1), 3))


@lru_cache(maxsize=None)
def triple_index(n: int) -> dict[tuple[int, int, int], int]:
    return {t: k for k, t in enumerate(triples(n))}


@lru_cache(maxsize=None)
def _restriction(xi: MonotoneMap) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where each object and cell of a simplex pulled back along xi comes from.

    An object is read at position k of the source simplex, or is the unit
    when k is -1; a cell is read at position k, or when k < 0 it is the
    identity on object ~k of the pulled-back simplex: a collapsed triple
    gets the identity on its outer interval, the unit's when all collapse.
    The plain nerve reads its interval cells from the object part.
    """
    v, m = xi.values, xi.domain_top
    idx, tdx = interval_index(xi.codomain_top), triple_index(xi.codomain_top)
    objs = tuple(idx[(v[p], v[q])] if v[p] < v[q] else -1 for (p, q) in intervals(m))
    cells = tuple(
        tdx[(v[p], v[q], v[r])] if v[p] < v[q] < v[r] else ~interval_index(m)[(p, r)]
        for (p, q, r) in triples(m)
    )
    return objs, cells


def _gather(positions: tuple[int, ...]):
    """A function taking a tuple t to ``tuple(t[k] for k in positions)`` in
    one ``itemgetter`` call; ``itemgetter`` returns a bare item for one
    position and needs at least one, so those two cases are wrapped."""
    if len(positions) == 1:
        (k,) = positions
        return lambda t: (t[k],)
    return itemgetter(*positions) if positions else lambda t: ()


@lru_cache(maxsize=None)
def _monoidal_plan(xi: MonotoneMap):
    """``_restriction`` as gathers for ``MonoidalNerve.act``: objects from
    ``x.objects + (unit,)``, cells from ``x.cells`` followed by the identities
    of the pulled-back objects."""
    obj_src, cell_src = _restriction(xi)
    width = len(triples(xi.codomain_top))
    return _gather(obj_src), _gather(tuple(k if k >= 0 else width + ~k for k in cell_src))


@lru_cache(maxsize=None)
def _bicat_plan(xi: MonotoneMap):
    """``_restriction`` as gathers for ``BicatNerve.act``: vertices from
    ``x.vertices``, cells from ``x.cells`` followed by the identities of the
    pulled-back vertices, a collapsed interval (p, q) reading vertex p's."""
    width = len(intervals(xi.codomain_top))
    cells = tuple(
        k if k >= 0 else width + p
        for (p, _), k in zip(intervals(xi.domain_top), _restriction(xi)[0])
    )
    return _gather(xi.values), _gather(cells)


def _merge(slots: list, sources, values) -> bool:
    """Write values[k] into slots[sources[k]]; False if a filled slot differs."""
    for k, v in zip(sources, values):
        if slots[k] is None:
            slots[k] = v
        elif slots[k] != v:
            return False
    return True


@dataclass(frozen=True, slots=True)
class MonoidalNerveSimplex:
    """Objects per interval (canonical order) and cells per triple (lex order)."""

    n: int
    objects: tuple[str, ...]
    cells: tuple[str, ...]

    def __repr__(self) -> str:
        return f"NrvM({self.n}|{','.join(self.objects)}|{','.join(self.cells)})"


@dataclass(frozen=True, slots=True)
class BicatNerveSimplex:
    """Objects per vertex and cells per interval (canonical order)."""

    n: int
    vertices: tuple[str, ...]
    cells: tuple[str, ...]

    def cell_at(self, i: int, j: int) -> str:
        return self.cells[interval_index(self.n)[(i, j)]]

    def __repr__(self) -> str:
        return f"NrvK({self.n}|{','.join(self.vertices)}|{','.join(self.cells)})"


class MonoidalNerve(TruncatedSimplicialSet):
    """The nerve of a posetal monoidal 2-category, truncated at ``top_level``."""

    def __init__(self, b: PosetalMonoidalBicat, top_level: int = 4, validate: bool = True):
        if validate:
            require_valid(validate_monoidal_bicat(b))
        super().__init__(top_level)
        self.b = b

    # -- enumeration ----------------------------------------------------

    def _quad_ok(self, objs, cells, n, quad) -> bool:
        b = self.b
        i, j, k, l = quad
        idx = interval_index(n)
        tdx = triple_index(n)
        a_ij = objs[idx[(i, j)]]
        a_kl = objs[idx[(k, l)]]
        lhs = b.compose_cells(
            cells[tdx[(i, j, l)]],
            b.tensor_cells(cells[tdx[(j, k, l)]], b.identity_of(a_ij)),
        )
        rhs = b.compose_cells(
            cells[tdx[(i, k, l)]],
            b.tensor_cells(b.identity_of(a_kl), cells[tdx[(i, j, k)]]),
        )
        return b.leq_cells(lhs, rhs)

    def _enumerate(self, n: int) -> tuple[MonoidalNerveSimplex, ...]:
        b = self.b
        pos = intervals(n)
        idx = interval_index(n)
        tris = triples(n)
        tdx = triple_index(n)
        # triples become checkable once their last interval (the outer one,
        # latest in canonical order) is assigned
        tri_ready: list[list[tuple[int, int, int]]] = [[] for _ in pos]
        for t in tris:
            i, j, k = t
            tri_ready[max(idx[(i, j)], idx[(j, k)], idx[(i, k)])].append(t)
        # quadruples become checkable once their lex-last triple is assigned
        quad_ready: list[list[tuple[int, int, int, int]]] = [[] for _ in tris]
        for quad in combinations(range(n + 1), 4):
            _, j, k, l = quad
            quad_ready[tdx[(j, k, l)]].append(quad)

        results: list[MonoidalNerveSimplex] = []
        objs: list[str] = [""] * len(pos)
        cells: list[str] = [""] * len(tris)

        def assign_cells(t_pos: int) -> None:
            if t_pos == len(tris):
                results.append(MonoidalNerveSimplex(n, tuple(objs), tuple(cells)))
                return
            i, j, k = tris[t_pos]
            dom = b.tensor_objects(objs[idx[(j, k)]], objs[idx[(i, j)]])
            cod = objs[idx[(i, k)]]
            for cell in b.hom(dom, cod):
                cells[t_pos] = cell
                if all(
                    self._quad_ok(objs, cells, n, quad)
                    for quad in quad_ready[t_pos]
                ):
                    assign_cells(t_pos + 1)

        def assign_objects(o_pos: int) -> None:
            if o_pos == len(pos):
                assign_cells(0)
                return
            for obj in b.objects:
                objs[o_pos] = obj
                ok = True
                for (i, j, k) in tri_ready[o_pos]:
                    dom = b.tensor_objects(objs[idx[(j, k)]], objs[idx[(i, j)]])
                    if not b.hom(dom, objs[idx[(i, k)]]):
                        ok = False
                        break
                if ok:
                    assign_objects(o_pos + 1)

        if n == 0:
            return (MonoidalNerveSimplex(0, (), ()),)
        assign_objects(0)
        return tuple(results)

    def contains(self, x: MonoidalNerveSimplex) -> bool:
        """Whether x is a simplex: known objects, every cell in its hom, and
        every quadruple's inequality."""
        b, n = self.b, x.n
        idx = interval_index(n)
        objs, cells = x.objects, x.cells
        if len(objs) != len(idx) or len(cells) != len(triples(n)):
            return False
        if not all(o in b.objects for o in objs):
            return False
        for (i, j, k), cell in zip(triples(n), cells):
            dom = b.tensor_objects(objs[idx[(j, k)]], objs[idx[(i, j)]])
            if cell not in b.hom(dom, objs[idx[(i, k)]]):
                return False
        return all(
            self._quad_ok(objs, cells, n, quad)
            for quad in combinations(range(n + 1), 4)
        )

    def fillers(self, n: int, entries: tuple, pruned: list | None = None) -> list:
        """From level 3 every interval and triple lies in a face, so the
        entries determine the one candidate; it fills when ``contains`` it.
        Nothing is recorded in ``pruned``."""
        if n < 3:
            return super().fillers(n, entries, pruned)
        self._check_level(n)
        objs: list = [None] * len(intervals(n))
        cells: list = [None] * len(triples(n))
        for i, face in enumerate(entries):
            obj_src, cell_src = _restriction(delta.face(i, n))
            if not (
                _merge(objs, obj_src, face.objects) and _merge(cells, cell_src, face.cells)
            ):
                return []
        x = MonoidalNerveSimplex(n, tuple(objs), tuple(cells))
        return [x] if self.contains(x) else []

    # -- simplicial-set interface ----------------------------------------

    def act(self, xi: MonotoneMap, x: MonoidalNerveSimplex) -> MonoidalNerveSimplex:
        if xi.codomain_top != x.n:
            raise DomainMismatchError("map endpoints do not match the simplex level")
        objs_of, cells_of = _monoidal_plan(xi)
        objs = objs_of(x.objects + (self.b.unit_object,))
        cells = cells_of(x.cells + tuple(map(self.b.identities.__getitem__, objs)))
        return MonoidalNerveSimplex(xi.domain_top, objs, cells)


class BicatNerve(TruncatedSimplicialSet):
    """The nerve of a posetal 2-category, truncated at ``top_level``."""

    def __init__(self, k: PosetalBicat, top_level: int = 4, validate: bool = True):
        if validate:
            require_valid(validate_bicat(k))
        super().__init__(top_level)
        self.k = k

    def _enumerate(self, n: int) -> tuple[BicatNerveSimplex, ...]:
        k = self.k
        pos = intervals(n)
        idx = interval_index(n)
        results: list[BicatNerveSimplex] = []
        cells: list[str] = [""] * len(pos)

        def assign_cells(c_pos: int, verts) -> None:
            if c_pos == len(pos):
                results.append(BicatNerveSimplex(n, verts, tuple(cells)))
                return
            i, j = pos[c_pos]
            for cell in k.hom(verts[i], verts[j]):
                cells[c_pos] = cell
                # the outer interval closes every triple (i, q, j)
                if all(
                    k.leq_cells(
                        k.compose_cells(cells[idx[(q, j)]], cells[idx[(i, q)]]),
                        cell,
                    )
                    for q in range(i + 1, j)
                ):
                    assign_cells(c_pos + 1, verts)

        for verts in product(k.objects, repeat=n + 1):
            assign_cells(0, verts)
        return tuple(results)

    def contains(self, x: BicatNerveSimplex) -> bool:
        """Whether x is a simplex: known vertices, every cell in its hom, and
        every triple's inequality."""
        k, n = self.k, x.n
        verts, cells = x.vertices, x.cells
        if len(verts) != n + 1 or len(cells) != len(intervals(n)):
            return False
        if not all(v in k.objects for v in verts):
            return False
        if not all(
            cell in k.hom(verts[i], verts[j])
            for (i, j), cell in zip(intervals(n), cells)
        ):
            return False
        return all(
            k.leq_cells(k.compose_cells(x.cell_at(q, j), x.cell_at(i, q)), x.cell_at(i, j))
            for (i, q, j) in triples(n)
        )

    def fillers(self, n: int, entries: tuple, pruned: list | None = None) -> list:
        """From level 2 every vertex and interval lies in a face, so the
        entries determine the one candidate; it fills when ``contains`` it.
        Nothing is recorded in ``pruned``."""
        if n < 2:
            return super().fillers(n, entries, pruned)
        self._check_level(n)
        verts: list = [None] * (n + 1)
        cells: list = [None] * len(intervals(n))
        for i, face in enumerate(entries):
            xi = delta.face(i, n)
            if not (
                _merge(verts, xi.values, face.vertices)
                and _merge(cells, _restriction(xi)[0], face.cells)
            ):
                return []
        x = BicatNerveSimplex(n, tuple(verts), tuple(cells))
        return [x] if self.contains(x) else []

    def act(self, xi: MonotoneMap, x: BicatNerveSimplex) -> BicatNerveSimplex:
        if xi.codomain_top != x.n:
            raise DomainMismatchError("map endpoints do not match the simplex level")
        verts_of, cells_of = _bicat_plan(xi)
        verts = verts_of(x.vertices)
        cells = cells_of(x.cells + tuple(map(self.k.identities.__getitem__, verts)))
        return BicatNerveSimplex(xi.domain_top, verts, cells)
