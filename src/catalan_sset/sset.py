"""Truncated simplicial sets and the generic machinery over them.

A concrete simplicial set implements ``_enumerate`` and ``act``; the
memoised levels, face tables and act indices, faces, degeneracies, the one
degeneracy rule (``degeneracy_index``, read by the degeneracy test and by
truncated maps), boundary and filler search, the simplicial-identity
harness and the enumeration of truncated simplicial maps are all derived
here and work against any implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterator, NamedTuple, Sequence

from . import delta
from .delta import MonotoneMap
from .errors import LevelOutOfRangeError

Code = Any

__all__ = [
    "TruncatedSimplicialSet",
    "Boundary",
    "IdentityReport",
    "IdentityViolation",
    "FillerReport",
    "TruncatedMap",
    "MapEnumeration",
    "RejectionWitness",
    "boundary_of",
    "is_compatible_boundary",
    "compatible_boundaries",
    "fillers",
    "coskeletal_filler_report",
    "enumerate_truncated_maps",
]


class TruncatedSimplicialSet:
    """Base class: finitely many simplices per level, defined up to ``top_level``."""

    def __init__(self, top_level: int):
        if top_level < 0:
            raise LevelOutOfRangeError("top_level must be >= 0")
        self.top_level = top_level
        self._levels: dict[int, Sequence[Code]] = {}
        self._face_tables: dict[int, tuple[tuple[Code, ...], ...]] = {}
        self._act_indices: dict[MonotoneMap, tuple[int, ...]] = {}

    # -- interface -----------------------------------------------------

    def _enumerate(self, n: int) -> Sequence[Code]:
        raise NotImplementedError

    def act(self, xi: MonotoneMap, x: Code) -> Code:
        raise NotImplementedError

    # -- derived operations ---------------------------------------------

    def level(self, n: int) -> Sequence[Code]:
        """The simplices at level n, enumerated once per instance."""
        self._check_level(n)
        if n not in self._levels:
            self._levels[n] = self._enumerate(n)
        return self._levels[n]

    def face_table(self, n: int) -> tuple[tuple[Code, ...], ...]:
        """Row k holds the faces d_0..d_n of ``level(n)[k]``, computed once by
        ``face``; each is replaced by the equal object of ``level(n-1)`` if any."""
        self._check_level(n, low=1)
        if n not in self._face_tables:
            canon = {y: y for y in self.level(n - 1)}
            rows = []
            for x in self.level(n):
                faces = (self.face(i, n, x) for i in range(n + 1))
                rows.append(tuple(canon.get(f, f) for f in faces))
            self._face_tables[n] = tuple(rows)
        return self._face_tables[n]

    def act_index(self, xi: MonotoneMap) -> tuple[int, ...]:
        """Entry k is the position in ``level(xi.domain_top)`` of ``act(xi, x)``
        for x = ``level(xi.codomain_top)[k]``, computed once per map."""
        if xi not in self._act_indices:
            self._act_indices[xi] = self._act_positions(xi)
        return self._act_indices[xi]

    def _act_positions(self, xi: MonotoneMap) -> tuple[int, ...]:
        position = {y: k for k, y in enumerate(self.level(xi.domain_top))}
        return tuple(position[self.act(xi, x)] for x in self.level(xi.codomain_top))

    def fillers(self, n: int, entries: tuple, pruned: list | None = None) -> list[Code]:
        """The simplices of ``level(n)`` whose faces d_0..d_n are ``entries``.

        The default scans the face table in level order and appends
        ``(candidate, i, d_i(candidate))`` to ``pruned`` for each rejected
        candidate, i its first face that differs.  A subclass that builds
        fillers from the entries instead may override it and record nothing.
        """
        if n == 0:
            return list(self.level(0)) if entries == () else []
        out = []
        for x, row in zip(self.level(n), self.face_table(n)):
            if row == entries:
                out.append(x)
            elif pruned is not None:
                i = next(i for i in range(n + 1) if row[i] != entries[i])
                pruned.append((x, i, row[i]))
        return out

    def _check_level(self, n: int, low: int = 0) -> None:
        if not low <= n <= self.top_level:
            raise LevelOutOfRangeError(
                f"level {n} outside [{low}, {self.top_level}]"
            )

    def face(self, i: int, n: int, x: Code) -> Code:
        return self.act(delta.face(i, n), x)

    def degeneracy(self, i: int, n: int, x: Code) -> Code:
        return self.act(delta.degeneracy(i, n), x)

    def degeneracy_index(self, x: Code, n: int) -> int | None:
        """The first i with x == s_i(d_i(x)), or None when x is non-degenerate."""
        for i in range(n):
            if self.degeneracy(i, n - 1, self.face(i, n, x)) == x:
                return i
        return None

    def is_degenerate(self, x: Code, n: int) -> bool:
        """Whether x == s_i(d_i(x)) for some i; level 0 is rejected."""
        self._check_level(n, low=1)
        return self.degeneracy_index(x, n) is not None

    def nondegenerate(self, n: int) -> tuple[Code, ...]:
        self._check_level(n)
        if n == 0:
            return tuple(self.level(0))
        return tuple(x for x in self.level(n) if not self.is_degenerate(x, n))

    def verify_simplicial_identities(self, n_max: int) -> "IdentityReport":
        """Exhaustively check the face/degeneracy relations on levels <= n_max.

        An identity is checked whenever every level it touches stays inside
        [0, n_max].
        """
        self._check_level(n_max)
        checked = 0
        violations: list[IdentityViolation] = []

        def note(law: str, n: int, x: Code, idx: str, lhs: Code, rhs: Code) -> None:
            violations.append(
                IdentityViolation(law, n, x, f"{idx} on {x!r}: {lhs!r} != {rhs!r}")
            )

        for n in range(n_max + 1):
            for x in self.level(n):
                if n >= 2:
                    for j in range(n + 1):
                        dj = self.face(j, n, x)
                        for i in range(j):
                            lhs = self.face(i, n - 1, dj)
                            rhs = self.face(j - 1, n - 1, self.face(i, n, x))
                            checked += 1
                            if lhs != rhs:
                                note("d_i d_j = d_{j-1} d_i", n, x, f"i={i} j={j}", lhs, rhs)
                if n + 2 <= n_max:
                    for j in range(n + 1):
                        sj = self.degeneracy(j, n, x)
                        for i in range(j + 1):
                            lhs = self.degeneracy(i, n + 1, sj)
                            rhs = self.degeneracy(j + 1, n + 1, self.degeneracy(i, n, x))
                            checked += 1
                            if lhs != rhs:
                                note("s_i s_j = s_{j+1} s_i", n, x, f"i={i} j={j}", lhs, rhs)
                if n + 1 <= n_max:
                    for j in range(n + 1):
                        sj = self.degeneracy(j, n, x)
                        for i in range(n + 2):
                            got = self.face(i, n + 1, sj)
                            if i < j:
                                want = self.degeneracy(j - 1, n - 1, self.face(i, n, x))
                                law = "d_i s_j = s_{j-1} d_i (i < j)"
                            elif i in (j, j + 1):
                                want = x
                                law = "d_i s_j = id (i in {j, j+1})"
                            else:
                                want = self.degeneracy(j, n - 1, self.face(i - 1, n, x))
                                law = "d_i s_j = s_j d_{i-1} (i > j+1)"
                            checked += 1
                            if got != want:
                                note(law, n, x, f"i={i} j={j}", got, want)
        return IdentityReport(checked, tuple(violations))


# -- reports ------------------------------------------------------------


class IdentityViolation(NamedTuple):
    law: str
    level: int
    simplex: Code
    detail: str


class IdentityReport(NamedTuple):
    checked: int
    violations: tuple[IdentityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"checked={self.checked} violations=0 verdict=OK"
        first = self.violations[0]
        return (
            f"checked={self.checked} violations={len(self.violations)} verdict=FAIL "
            f"first: {first.law} at level {first.level}: {first.detail}"
        )


# -- boundaries and fillers ----------------------------------------------


class Boundary(NamedTuple):
    """An (n+1)-tuple of (n-1)-level simplices standing where faces would."""

    dimension: int
    entries: tuple


def boundary_of(X: TruncatedSimplicialSet, x: Code, n: int) -> Boundary:
    return Boundary(n, tuple(X.face(i, n, x) for i in range(n + 1)))


def is_compatible_boundary(X: TruncatedSimplicialSet, b: Boundary) -> bool:
    n = b.dimension
    if n < 2:
        return True
    return all(
        X.face(j, n - 1, b.entries[i]) == X.face(i, n - 1, b.entries[j + 1])
        for j in range(n)
        for i in range(j + 1)
    )


def compatible_boundaries(X: TruncatedSimplicialSet, n: int) -> Iterator[Boundary]:
    """All compatible boundaries at dimension n, assembled by backtracking."""
    X._check_level(n - 1)
    cells = X.level(n - 1)
    face_rows = dict(zip(cells, X.face_table(n - 1))) if n >= 2 else None
    # entry e >= 1 must have d_0 = d_{e-1}(entry 0), so its candidates are
    # read from the group of that d_0, kept in level order
    by_first_face: dict[Code, list[Code]] = {}
    if face_rows is not None:
        for x, row in face_rows.items():
            by_first_face.setdefault(row[0], []).append(x)
    chosen: list[Code] = []

    def rec(e: int) -> Iterator[Boundary]:
        if e == n + 1:
            yield Boundary(n, tuple(chosen))
            return
        if face_rows is None or e == 0:
            candidates = cells
        else:
            candidates = by_first_face.get(face_rows[chosen[0]][e - 1], ())
        for x in candidates:
            if face_rows is not None and e >= 1:
                row = face_rows[x]
                if any(face_rows[chosen[i]][e - 1] != row[i] for i in range(1, e)):
                    continue
            chosen.append(x)
            yield from rec(e + 1)
            chosen.pop()

    yield from rec(0)


def fillers(X: TruncatedSimplicialSet, b: Boundary) -> list[Code]:
    """The face-table scan, whatever X overrides: the oracle for ``X.fillers``."""
    return TruncatedSimplicialSet.fillers(X, b.dimension, b.entries)


class FillerReport(NamedTuple):
    dimension: int
    boundary_count: int
    violations: tuple[tuple[Boundary, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def coskeletal_filler_report(X: TruncatedSimplicialSet, n: int) -> FillerReport:
    """Count fillers of every compatible n-boundary; unique fillers pass."""
    total = 0
    violations = []
    for b in compatible_boundaries(X, n):
        total += 1
        k = len(fillers(X, b))
        if k != 1:
            violations.append((b, k))
    return FillerReport(n, total, tuple(violations))


# -- truncated simplicial maps --------------------------------------------


class TruncatedMap:
    """A simplicial map between truncations, tabulated on non-degenerate simplices."""

    __slots__ = ("source", "target", "r", "images")

    def __init__(self, source, target, r, images):
        self.source = source
        self.target = target
        self.r = r
        self.images = dict(images)

    def __call__(self, n: int, x: Code) -> Code:
        """The tabulated image, or f(s_i y) = s_i f(y) along x's degeneracy index."""
        i = None if (n, x) in self.images else self.source.degeneracy_index(x, n)
        if i is None:
            return self.images[(n, x)]
        return self.target.degeneracy(i, n - 1, self(n - 1, self.source.face(i, n, x)))

    def full_table(self) -> dict:
        return {
            (n, x): self(n, x)
            for n in range(self.r + 1)
            for x in self.source.level(n)
        }

    def __repr__(self):
        parts = ", ".join(
            f"{x!r}|->{y!r}" for (_, x), y in sorted(self.images.items(), key=lambda kv: (kv[0][0], repr(kv[0][1])))
        )
        return f"TruncatedMap({parts})"


class RejectionWitness(NamedTuple):
    level: int
    simplex: Code
    candidate: Code
    face_index: int
    required: Code
    found: Code


class MapEnumeration(NamedTuple):
    maps: list[TruncatedMap]
    rejections: list[RejectionWitness]


@lru_cache(maxsize=None)
def _maps(m: int, n: int) -> tuple[MonotoneMap, ...]:
    """``delta.all_maps(m, n)``, built and validated once per process."""
    return tuple(delta.all_maps(m, n))


def naturality_failures(f: TruncatedMap) -> list[tuple[MonotoneMap, Code]]:
    """Every monotone map with endpoints <= r is replayed against f's table:
    the pairs (xi, x) with f(act(xi, x)) != act(xi, f(x)), in order of n, m,
    xi and x.

    The images of each level are interned to ids.  The source side is read
    as positions from ``X.act_index``; the target acts once per distinct
    image and its result is interned into the ids of its level, -1 when it
    is no image there, so each comparison is between two ints.
    """
    X, Y, r = f.source, f.target, f.r
    ids: list[dict[Code, int]] = []  # image -> id, per level
    image_ids: list[list[int]] = []  # the id of f(x), per level and position
    for n in range(r + 1):
        ids_n: dict[Code, int] = {}
        image_ids.append([ids_n.setdefault(f(n, x), len(ids_n)) for x in X.level(n)])
        ids.append(ids_n)
    bad = []
    for n in range(r + 1):
        xs, source_ids, distinct = X.level(n), image_ids[n], tuple(ids[n])
        for m in range(r + 1):
            ids_m, target_ids = ids[m], image_ids[m]
            for xi in _maps(m, n):
                moved = [ids_m.get(Y.act(xi, y), -1) for y in distinct]
                for k, j in enumerate(X.act_index(xi)):
                    if moved[source_ids[k]] != target_ids[j]:
                        bad.append((xi, xs[k]))
    return bad


def enumerate_truncated_maps(
    X: TruncatedSimplicialSet,
    Y: TruncatedSimplicialSet,
    r: int,
) -> MapEnumeration:
    """All simplicial maps between the r-truncations of X and Y.

    Candidate images are chosen only on non-degenerate simplices of X
    (naturality forces the degenerate ones), from ``Y.fillers`` of the
    images of their faces, read through a ``TruncatedMap`` over the partial
    assignment; ``rejections`` holds the candidates a scanning
    ``Y.fillers`` pruned.  Every completed assignment is then re-checked
    against every monotone map with endpoints <= r.
    """
    X._check_level(r)
    Y._check_level(r)

    nd = [(n, x) for n in range(r + 1) for x in X.nondegenerate(n)]
    partial = TruncatedMap(X, Y, r, {})
    images = partial.images
    rejections: list[RejectionWitness] = []
    maps: list[TruncatedMap] = []

    def rec(k: int) -> None:
        if k == len(nd):
            maps.append(TruncatedMap(X, Y, r, images))
            return
        n, x = nd[k]
        required = tuple(partial(n - 1, X.face(i, n, x)) for i in range(n + 1)) if n else ()
        pruned: list = []
        candidates = Y.fillers(n, required, pruned)
        rejections.extend(
            RejectionWitness(n, x, y, i, required[i], found) for y, i, found in pruned
        )
        for y in candidates:
            images[(n, x)] = y
            rec(k + 1)
            del images[(n, x)]

    rec(0)
    for f in maps:
        bad = naturality_failures(f)
        if bad:
            xi, x = bad[0]
            raise AssertionError(
                f"enumerated map fails naturality at {xi} on {x!r}; "
                "face-consistent assignments must extend naturally"
            )
    return MapEnumeration(maps, rejections)
