"""Two further presentations of a level, with conversions and the ideal calculus.

A simplex can equivalently be given as a reflexive symmetric relation with
the interpolation property (the pairs marking intervals whose bit is 0), or
as a reflexive square ideal: a pair set containing the identity ideal and
closed downward in its first coordinate and upward in its second.  Both
presentations transform along monotone maps by plain inverse image, which
for ideals also agrees with sandwiching between the adjoint ideals of the
map.

Both are stored as one bitmask per row, so inverse image is a gather of
rows through a per-map preimage table, and composing or comparing ideals
is integer arithmetic on rows.  The conversions to and from interval tables
still read pairs, through ``entry`` and the ``pairs`` view.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple

from .catalan import LaxMatrix, intervals, lax_from_bits
from .delta import MonotoneMap
from .errors import (
    MissingIdentityIdealError,
    NotAnIdealError,
    NotInterpolativeError,
    ShapeMismatchError,
)

__all__ = [
    "InterpolativeRelation",
    "IdealRelation",
    "lax_to_relation",
    "relation_to_lax",
    "relation_pullback",
    "lax_to_ideal",
    "ideal_to_lax",
    "identity_ideal",
    "compose_ideals",
    "ideal_leq",
    "adjoint_ideals",
    "ideal_pullback",
    "enumerate_square_ideals",
]


def _rows_from_pairs(pairs, row_top: int, col_top: int, error: type) -> tuple[int, ...]:
    """Row masks of the pairs in [row_top] x [col_top]; a pair off the grid
    raises ``error``."""
    rows = [0] * (row_top + 1)
    for (a, b) in pairs:
        if not (0 <= a <= row_top and 0 <= b <= col_top):
            raise error(f"pair {(a, b)} outside [{row_top}] x [{col_top}]")
        rows[a] |= 1 << b
    return tuple(rows)


def _pairs_of_rows(rows: tuple) -> frozenset:
    return frozenset(
        (a, b) for a, r in enumerate(rows) for b in range(r.bit_length()) if r >> b & 1
    )


class _RelationFields(NamedTuple):
    n: int
    rows: tuple[int, ...]


class InterpolativeRelation(_RelationFields):
    """A reflexive symmetric relation on [n] with the interpolation property.

    Stored as one bitmask per row: bit b of ``rows[a]`` says (a, b) is
    related.  ``pairs`` is a derived view; a pair outside [n] x [n] raises
    ``NotInterpolativeError``.  A tuple of its fields, so hashing, equality
    and field reads run in C; it equals the plain tuple ``(n, rows)``.
    """

    __slots__ = ()

    def __new__(cls, n: int, pairs: Iterable[tuple[int, int]]):
        return tuple.__new__(cls, (n, _rows_from_pairs(pairs, n, n, NotInterpolativeError)))

    def __getnewargs__(self):  # copy and pickle rebuild through ``__new__``
        return self.n, self.pairs

    @property
    def pairs(self) -> frozenset:
        return _pairs_of_rows(self.rows)


class _IdealFields(NamedTuple):
    m_top: int
    n_top: int
    rows: tuple[int, ...]


class IdealRelation(_IdealFields):
    """An ideal [m_top] -/-> [n_top]: pairs (j, i) in [n_top] x [m_top],
    closed under shrinking j and growing i.

    Stored as one bitmask per j in [n_top]: bit i of ``rows[j]`` says
    (j, i) is in the ideal.  ``pairs`` is a derived view; a pair outside
    the grid raises ``NotAnIdealError``.  A tuple of its fields, so
    hashing, equality and field reads run in C; it equals the plain tuple
    ``(m_top, n_top, rows)``.
    """

    __slots__ = ()

    def __new__(cls, m_top: int, n_top: int, pairs: Iterable[tuple[int, int]]):
        rows = _rows_from_pairs(pairs, n_top, m_top, NotAnIdealError)
        return tuple.__new__(cls, (m_top, n_top, rows))

    def __getnewargs__(self):
        return self.m_top, self.n_top, self.pairs

    @property
    def pairs(self) -> frozenset:
        return _pairs_of_rows(self.rows)


@lru_cache(maxsize=None)
def _gather_table(values: tuple[int, ...], n: int) -> tuple[int, ...]:
    """For a monotone map with these values into [n]: each row mask over [n]
    sent to the mask of its preimage over the domain."""
    fibre = [0] * (n + 1)
    for p, v in enumerate(values):
        fibre[v] |= 1 << p
    table = [0] * (1 << (n + 1))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | fibre[low.bit_length() - 1]
    return tuple(table)


def _gather(xi: MonotoneMap, rows: tuple[int, ...]) -> tuple[int, ...]:
    """Rows of the pairs (p, q) whose image (xi(p), xi(q)) lies in ``rows``:
    row p is the preimage of row xi(p)."""
    table = _gather_table(xi.values, xi.codomain_top)
    return tuple([table[rows[v]] for v in xi.values])


# -- interpolative relations ----------------------------------------------


def _check_interpolative(n: int, pairs: frozenset) -> None:
    for v in range(n + 1):
        if (v, v) not in pairs:
            raise NotInterpolativeError(f"not reflexive: missing {(v, v)}")
    for (a, b) in pairs:
        if (b, a) not in pairs:
            raise NotInterpolativeError(f"not symmetric: {(a, b)} without {(b, a)}")
    for (a, b) in pairs:
        i, k = min(a, b), max(a, b)
        for j in range(i, k + 1):
            if (i, j) not in pairs or (j, k) not in pairs:
                raise NotInterpolativeError(
                    f"interpolation fails: {(i, k)} present, {(i, j)}/{(j, k)} not"
                )


def lax_to_relation(x: LaxMatrix) -> InterpolativeRelation:
    """Relate the endpoints of every 0-interval, plus the diagonal."""
    pairs = {(v, v) for v in range(x.n + 1)}
    for (i, j) in intervals(x.n):
        if x.entry(i, j) == 0:
            pairs.add((i, j))
            pairs.add((j, i))
    return InterpolativeRelation(x.n, frozenset(pairs))


def relation_to_lax(rel: InterpolativeRelation) -> LaxMatrix:
    pairs = rel.pairs
    _check_interpolative(rel.n, pairs)
    bits = (0 if (i, j) in pairs else 1 for (i, j) in intervals(rel.n))
    return lax_from_bits(rel.n, bits)


def relation_pullback(xi: MonotoneMap, rel: InterpolativeRelation) -> InterpolativeRelation:
    if xi.codomain_top != rel.n:
        raise ShapeMismatchError("pullback endpoints do not match")
    return tuple.__new__(InterpolativeRelation, (xi.domain_top, _gather(xi, rel.rows)))


# -- square ideals ---------------------------------------------------------


def _is_ideal(pairs: Iterable[tuple[int, int]], m_top: int, n_top: int) -> bool:
    # stepwise closure is equivalent to the full law
    ps = set(pairs)
    for (j, i) in ps:
        if not (0 <= j <= n_top and 0 <= i <= m_top):
            return False
        if j > 0 and (j - 1, i) not in ps:
            return False
        if i < m_top and (j, i + 1) not in ps:
            return False
    return True


def identity_ideal(n: int) -> IdealRelation:
    return IdealRelation(
        n, n, frozenset((j, i) for i in range(n + 1) for j in range(i + 1))
    )


def lax_to_ideal(x: LaxMatrix) -> IdealRelation:
    """(j, i) is related when j <= i, or when j > i and the interval bit is 0."""
    n = x.n
    pairs = {(j, i) for i in range(n + 1) for j in range(i + 1)}
    for (i, j) in intervals(n):
        if x.entry(i, j) == 0:
            pairs.add((j, i))
    return IdealRelation(n, n, frozenset(pairs))


def ideal_to_lax(b: IdealRelation) -> LaxMatrix:
    if b.m_top != b.n_top:
        raise ShapeMismatchError("only square ideals present a simplex")
    n = b.n_top
    pairs = b.pairs
    if not _is_ideal(pairs, n, n):
        raise NotAnIdealError("pair set violates the ideal closure law")
    if not all((j, i) in pairs for i in range(n + 1) for j in range(i + 1)):
        raise MissingIdentityIdealError("identity ideal not contained")
    bits = (0 if (j, i) in pairs else 1 for (i, j) in intervals(n))
    return lax_from_bits(n, bits)


def compose_ideals(a: IdealRelation, b: IdealRelation) -> IdealRelation:
    """Relational composite a . b of b : L -/-> M followed by a : M -/-> N."""
    if b.n_top != a.m_top:
        raise ShapeMismatchError(
            f"cannot compose: middle ordinals [{b.n_top}] vs [{a.m_top}]"
        )
    # row j of the composite ORs the rows of b that the set bits of row j
    # of a pick out, lowest bit first
    b_rows = b.rows
    rows = []
    for r in a.rows:
        acc = 0
        while r:
            low = r & -r
            acc |= b_rows[low.bit_length() - 1]
            r ^= low
        rows.append(acc)
    return tuple.__new__(IdealRelation, (b.m_top, a.n_top, tuple(rows)))


def ideal_leq(a: IdealRelation, b: IdealRelation) -> bool:
    if (a.m_top, a.n_top) != (b.m_top, b.n_top):
        raise ShapeMismatchError("cannot compare ideals of different shapes")
    return all(x & ~y == 0 for x, y in zip(a.rows, b.rows))


def adjoint_ideals(xi: MonotoneMap) -> tuple[IdealRelation, IdealRelation]:
    """The adjoint pair of a monotone map: direct image below, inverse above.

    The first ideal runs [m] -/-> [n] with pairs {(j, i) : j <= xi(i)}, the
    second [n] -/-> [m] with pairs {(i, j) : xi(i) <= j}; they satisfy
    1 <= upper . lower and lower . upper <= 1.
    """
    m, n = xi.domain_top, xi.codomain_top
    lower = IdealRelation(
        m,
        n,
        frozenset(
            (j, i) for i in range(m + 1) for j in range(n + 1) if j <= xi.values[i]
        ),
    )
    upper = IdealRelation(
        n,
        m,
        frozenset(
            (i, j) for i in range(m + 1) for j in range(n + 1) if xi.values[i] <= j
        ),
    )
    return lower, upper


def ideal_pullback(xi: MonotoneMap, b: IdealRelation) -> IdealRelation:
    """Inverse image of a square ideal along a monotone map."""
    if b.m_top != b.n_top or xi.codomain_top != b.n_top:
        raise ShapeMismatchError("pullback needs a square ideal at the map's target")
    m = xi.domain_top
    return tuple.__new__(IdealRelation, (m, m, _gather(xi, b.rows)))


def enumerate_square_ideals(n: int) -> tuple[IdealRelation, ...]:
    """Every square ideal on [n] containing the identity ideal.

    Candidates are generated column by column as diagonal-containing
    prefixes {0..k} and then re-checked against the raw closure law, so the
    count does not lean on the interval-table model.
    """
    out = []
    for tops in product(*[range(i, n + 1) for i in range(n + 1)]):
        pairs = frozenset(
            (j, i) for i in range(n + 1) for j in range(tops[i] + 1)
        )
        if _is_ideal(pairs, n, n) and all(
            (j, i) in pairs for i in range(n + 1) for j in range(i + 1)
        ):
            out.append(IdealRelation(n, n, pairs))
    return tuple(out)
