"""Nerves of validated posetal inputs, as truncated simplicial sets.

Both nerves are one construction (Street, "The algebra of oriented
simplexes", JPAA 49, 1987; Duskin, TAC 9, 2002) at two ranks.  A rank-r
nerve stores, per simplex, an object on every r-subset of its vertices and
a cell on every (r+1)-subset, in the hom that the objects on the subset's
faces give, and requires one hom-poset inequality on every (r+2)-subset;
nothing more is ever required because parallel 2-cells in a poset are
equal.  The monoidal nerve of a posetal monoidal 2-category, read as a
one-object tricategory, has rank 2: an object per interval and a cell per
triple.  The plain nerve of a posetal 2-category has rank 1: an object per
vertex and a cell per interval.

From level r+1 every stored object and cell of a simplex lies in one of
its faces, so a simplex is its boundary plus the inequalities: ``fillers``
assembles the one candidate from the faces and keeps it when ``contains``
accepts it, instead of scanning the level.

Both nerves pull back along a monotone map by one rule, cached per map
and rank in ``_restriction``: a subset the map keeps reads the datum on
its image; a collapsed object is the unit (vertices never collapse), and a
collapsed cell is the identity on the pulled-back object of its subset
without the second vertex, which is exactly what strictness makes of the
general degeneracy formulas.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

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
    "triple_index",
]


@lru_cache(maxsize=None)
def _subsets(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The size-subsets of the vertices of [n] in storage order: intervals
    by length, then left endpoint; every other size lexicographically."""
    return intervals(n) if size == 2 else tuple(combinations(range(n + 1), size))


@lru_cache(maxsize=None)
def _positions(n: int, size: int) -> dict[tuple[int, ...], int]:
    return {s: k for k, s in enumerate(_subsets(n, size))}


def triple_index(n: int) -> dict[tuple[int, int, int], int]:
    return _positions(n, 3)


def _faces(s: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """d_0 s, ..., d_last s: s without each of its vertices in turn."""
    return tuple(s[:i] + s[i + 1:] for i in range(len(s)))


@lru_cache(maxsize=None)
def _restriction(xi: MonotoneMap, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where each object and each cell of a rank-``rank`` simplex pulled
    back along xi comes from, as ``(objects_from, cells_from)`` in storage
    order.

    The entry of a subset s is k, the position of its image among the
    source simplex's subsets of its size, or ~k when xi collapses s, k
    being the position of s without its second vertex, ``s[:1] + s[2:]``,
    among the pulled-back simplex's subsets of one size less.
    """
    v, m, n = xi.values, xi.domain_top, xi.codomain_top

    def sources(size: int) -> tuple[int, ...]:
        kept, collapsed = _positions(n, size), _positions(m, size - 1)
        images = [tuple(v[p] for p in s) for s in _subsets(m, size)]
        return tuple(
            kept[image] if image in kept else ~collapsed[s[:1] + s[2:]]
            for s, image in zip(_subsets(m, size), images)
        )

    return sources(rank), sources(rank + 1)


def _merge(slots: list, sources, values) -> bool:
    """Write values[k] into slots[sources[k]]; False if a filled slot differs."""
    for k, v in zip(sources, values):
        if slots[k] is None:
            slots[k] = v
        elif slots[k] != v:
            return False
    return True


class _NerveSimplex(NamedTuple):
    """A nerve simplex: its level, its objects and its cells in storage
    order.  A tuple of its fields, so hashing, equality and field reads run
    in C; it equals the plain tuple ``(n, objects, cells)``, and so a
    monoidal and a plain nerve simplex with the same fields are equal.  No
    level, face table, image list or position dict holds both kinds."""

    n: int
    objects: tuple[str, ...]
    cells: tuple[str, ...]

    def __repr__(self) -> str:
        return f"{self.tag}({self.n}|{','.join(self.objects)}|{','.join(self.cells)})"


class MonoidalNerveSimplex(_NerveSimplex):
    """Objects per interval (canonical order) and cells per triple (lex
    order); equal to a ``BicatNerveSimplex`` or a tuple with the same fields."""

    __slots__ = ()
    tag = "NrvM"


class BicatNerveSimplex(_NerveSimplex):
    """Objects per vertex and cells per interval (canonical order); equal to
    a ``MonoidalNerveSimplex`` or a tuple with the same fields."""

    __slots__ = ()
    tag = "NrvK"


class _PosetalNerve(TruncatedSimplicialSet):
    """The rank-``rank`` nerve: a subclass gives the rank, the simplex
    type, the hom of a cell and the inequality of an (rank+2)-subset.
    ``unit`` is what a collapsed object reads: the unit object at rank 2,
    and None at rank 1, where no object collapses."""

    rank: int
    simplex: type

    def __init__(self, bicat: PosetalBicat, top_level: int, unit: str | None):
        super().__init__(top_level)
        self._objects = bicat.objects
        self._identities = bicat.identities
        self._unit = unit

    def _hom(self, objs, n: int, s: tuple[int, ...]) -> tuple[str, ...]:
        """The cells the (rank+1)-subset s may carry, given the objects."""
        raise NotImplementedError

    def _holds(self, objs, cells, n: int, s: tuple[int, ...]) -> bool:
        """The hom-poset inequality of the (rank+2)-subset s."""
        raise NotImplementedError

    def _enumerate(self, n: int) -> tuple[_NerveSimplex, ...]:
        r = self.rank
        obj_sets, cell_sets = _subsets(n, r), _subsets(n, r + 1)
        opos, cpos = _positions(n, r), _positions(n, r + 1)
        # a cell's hom is read once its last object is set, and kept while
        # later objects vary; an inequality is checked once its last cell is set
        cells_ready: list[list[int]] = [[] for _ in obj_sets]
        for c, s in enumerate(cell_sets):
            cells_ready[max(map(opos.__getitem__, _faces(s)))].append(c)
        ineqs_ready: list[list] = [[] for _ in cell_sets]
        for s in _subsets(n, r + 2):
            ineqs_ready[max(map(cpos.__getitem__, _faces(s)))].append(s)

        results: list[_NerveSimplex] = []
        objs: list[str] = [""] * len(obj_sets)
        cells: list[str] = [""] * len(cell_sets)
        homs: list[tuple[str, ...]] = [()] * len(cell_sets)

        def assign_cells(c_pos: int) -> None:
            if c_pos == len(cells):
                results.append(self.simplex(n, tuple(objs), tuple(cells)))
                return
            for cell in homs[c_pos]:
                cells[c_pos] = cell
                if all(self._holds(objs, cells, n, s) for s in ineqs_ready[c_pos]):
                    assign_cells(c_pos + 1)

        def assign_objects(o_pos: int) -> None:
            if o_pos == len(objs):
                assign_cells(0)
                return
            for obj in self._objects:
                objs[o_pos] = obj
                for c in cells_ready[o_pos]:
                    homs[c] = self._hom(objs, n, cell_sets[c])
                    if not homs[c]:
                        break
                else:
                    assign_objects(o_pos + 1)

        assign_objects(0)
        return tuple(results)

    def contains(self, x: _NerveSimplex) -> bool:
        """Whether x is a simplex: a level >= 0, known objects, every cell in
        its hom, and every inequality."""
        r, n = self.rank, x.n
        objs, cells = x.objects, x.cells
        if n < 0:
            return False
        if len(objs) != len(_subsets(n, r)) or len(cells) != len(_subsets(n, r + 1)):
            return False
        if not all(o in self._objects for o in objs):
            return False
        if not all(
            cell in self._hom(objs, n, s) for s, cell in zip(_subsets(n, r + 1), cells)
        ):
            return False
        return all(self._holds(objs, cells, n, s) for s in _subsets(n, r + 2))

    def fillers(self, n: int, entries: tuple, pruned: list | None = None) -> list:
        """From level rank+1 every object and cell lies in a face, so the
        entries determine the one candidate; it fills when ``contains`` it.
        Nothing is recorded in ``pruned``."""
        r = self.rank
        if n <= r:
            return super().fillers(n, entries, pruned)
        self._check_level(n)
        objs: list = [None] * len(_subsets(n, r))
        cells: list = [None] * len(_subsets(n, r + 1))
        for i, face in enumerate(entries):
            objs_from, cells_from = _restriction(delta.face(i, n), r)
            if not (
                _merge(objs, objs_from, face.objects) and _merge(cells, cells_from, face.cells)
            ):
                return []
        x = self.simplex(n, tuple(objs), tuple(cells))
        return [x] if self.contains(x) else []

    def act(self, xi: MonotoneMap, x: _NerveSimplex) -> _NerveSimplex:
        if xi.codomain_top != x.n:
            raise DomainMismatchError("map endpoints do not match the simplex level")
        objs_from, cells_from = _restriction(xi, self.rank)
        unit, identities = self._unit, self._identities
        objs = tuple([x.objects[k] if k >= 0 else unit for k in objs_from])
        cells = tuple([x.cells[k] if k >= 0 else identities[objs[~k]] for k in cells_from])
        return tuple.__new__(self.simplex, (xi.domain_top, objs, cells))


class MonoidalNerve(_PosetalNerve):
    """The nerve of a posetal monoidal 2-category, truncated at ``top_level``."""

    rank = 2
    simplex = MonoidalNerveSimplex

    def __init__(self, b: PosetalMonoidalBicat, top_level: int = 4, validate: bool = True):
        if validate:
            require_valid(validate_monoidal_bicat(b))
        super().__init__(b, top_level, b.unit_object)
        self.b = b

    def _hom(self, objs, n, s):
        """The triple (i, j, k) runs from a_jk (x) a_ij to a_ik."""
        b, idx = self.b, interval_index(n)
        i, j, k = s
        return b.hom(b.tensor_objects(objs[idx[(j, k)]], objs[idx[(i, j)]]), objs[idx[(i, k)]])

    def _holds(self, objs, cells, n, s):
        b, idx, tdx = self.b, interval_index(n), triple_index(n)
        i, j, k, l = s
        lhs = b.compose_cells(
            cells[tdx[(i, j, l)]],
            b.tensor_cells(cells[tdx[(j, k, l)]], b.identity_of(objs[idx[(i, j)]])),
        )
        rhs = b.compose_cells(
            cells[tdx[(i, k, l)]],
            b.tensor_cells(b.identity_of(objs[idx[(k, l)]]), cells[tdx[(i, j, k)]]),
        )
        return b.leq_cells(lhs, rhs)


class BicatNerve(_PosetalNerve):
    """The nerve of a posetal 2-category, truncated at ``top_level``."""

    rank = 1
    simplex = BicatNerveSimplex

    def __init__(self, k: PosetalBicat, top_level: int = 4, validate: bool = True):
        if validate:
            require_valid(validate_bicat(k))
        super().__init__(k, top_level, None)
        self.k = k

    def _hom(self, objs, n, s):
        i, j = s
        return self.k.hom(objs[i], objs[j])

    def _holds(self, objs, cells, n, s):
        k, idx = self.k, interval_index(n)
        i, q, j = s
        return k.leq_cells(k.compose_cells(cells[idx[(q, j)]], cells[idx[(i, q)]]), cells[idx[(i, j)]])
