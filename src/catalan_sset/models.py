"""Two further presentations of a level, with conversions and the ideal calculus.

A simplex can equivalently be given as a reflexive symmetric relation with
the interpolation property (the pairs marking intervals whose bit is 0), or
as a reflexive square ideal: a pair set containing the identity ideal and
closed downward in its first coordinate and upward in its second.  Both
transform along monotone maps by plain inverse image, which for ideals also
agrees with sandwiching between the adjoint ideals of the map.

Both are stored as one bitmask per row.  Every law check, conversion,
adjoint pair and census candidate works on rows; pairs appear only at the
public edge, where the constructors take them and ``pairs`` gives them back.
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


class _PairEdge:
    """Where pairs meet rows, for both relation types: the ``pairs`` view,
    and ``_make`` (so ``_replace``), copy and pickle rebuilding through the
    pairs constructor, so that no way in skips its grid check.  ``_make``
    also refuses rows that do not come back as given, such as a negative
    or a missing row, with the type's ``_error``."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        *tops, rows = fields
        made = cls(*tops, _pairs_of_rows(rows))
        if made.rows != tuple(rows):
            raise cls._error(f"rows {tuple(rows)} do not fit the grid; they read as {made.rows}")
        return made

    def __getnewargs__(self):
        return (*self[:-1], self.pairs)

    @property
    def pairs(self) -> frozenset:
        return _pairs_of_rows(self.rows)


class _RelationFields(NamedTuple):
    n: int
    rows: tuple[int, ...]


class InterpolativeRelation(_PairEdge, _RelationFields):
    """A reflexive symmetric relation on [n] with the interpolation property.

    Stored as one bitmask per row: bit b of ``rows[a]`` says (a, b) is
    related.  ``pairs`` is a derived view; a pair outside [n] x [n] raises
    ``NotInterpolativeError``.  A tuple of its fields, so hashing, equality
    and field reads run in C; it equals the plain tuple ``(n, rows)``.
    """

    __slots__ = ()
    _error = NotInterpolativeError

    def __new__(cls, n: int, pairs: Iterable[tuple[int, int]]):
        return tuple.__new__(cls, (n, _rows_from_pairs(pairs, n, n, cls._error)))


class _IdealFields(NamedTuple):
    m_top: int
    n_top: int
    rows: tuple[int, ...]


class IdealRelation(_PairEdge, _IdealFields):
    """An ideal [m_top] -/-> [n_top]: pairs (j, i) in [n_top] x [m_top],
    closed under shrinking j and growing i.

    Stored as one bitmask per j in [n_top]: bit i of ``rows[j]`` says
    (j, i) is in the ideal.  ``pairs`` is a derived view; a pair outside
    the grid raises ``NotAnIdealError``.  A tuple of its fields, so
    hashing, equality and field reads run in C; it equals the plain tuple
    ``(m_top, n_top, rows)``.
    """

    __slots__ = ()
    _error = NotAnIdealError

    def __new__(cls, m_top: int, n_top: int, pairs: Iterable[tuple[int, int]]):
        rows = _rows_from_pairs(pairs, n_top, m_top, cls._error)
        return tuple.__new__(cls, (m_top, n_top, rows))


@lru_cache(maxsize=None)
def _row_reader(k: int):
    """``read(r, t, v)``, the tuple of ``t[r[v[p]]]`` for p < k, unrolled
    once per row count k.  The source is built from integers only."""
    names = "".join(f"v{p}, " for p in range(k))
    slots = "".join(f"t[r[v{p}]], " for p in range(k))
    scope: dict = {}
    exec(f"def read(r, t, v):\n    {names}= v\n    return ({slots})\n", scope)
    return scope["read"]


@lru_cache(maxsize=None)
def _gather(xi: MonotoneMap):
    """``(domain_top, read, table, values)`` for pulling rows back along xi:
    ``read(rows, table, values)`` gives the rows of the pairs (p, q) whose
    image (xi(p), xi(q)) lies in ``rows``, row p being the preimage of row
    xi(p).  ``table`` sends each row mask over the codomain to the mask of
    its preimage over the domain."""
    fibre = [0] * (xi.codomain_top + 1)
    for p, v in enumerate(xi.values):
        fibre[v] |= 1 << p
    table = [0]
    for f in fibre:
        table += [t | f for t in table]
    return xi.domain_top, _row_reader(len(xi.values)), tuple(table), xi.values


# -- interpolative relations ----------------------------------------------


def _check_interpolative(n: int, rows: tuple[int, ...]) -> None:
    """Reflexive, symmetric, interpolative; a failure names its first pair in row order."""
    for v in range(n + 1):
        if not rows[v] >> v & 1:
            raise NotInterpolativeError(f"not reflexive: missing {(v, v)}")
    for a, r in enumerate(rows):
        for b in range(n + 1):
            if r >> b & 1 and not rows[b] >> a & 1:
                raise NotInterpolativeError(f"not symmetric: {(a, b)} without {(b, a)}")
    for i, r in enumerate(rows):
        for k in range(i + 1, n + 1):
            # the j in [i, k] with (i, j) or, by symmetry, (j, k) unrelated
            gaps = ((2 << k) - (1 << i)) & ~(r & rows[k])
            if r >> k & 1 and gaps:
                j = (gaps & -gaps).bit_length() - 1
                raise NotInterpolativeError(
                    f"interpolation fails: {(i, k)} present, {(i, j)}/{(j, k)} not"
                )


def lax_to_relation(x: LaxMatrix) -> InterpolativeRelation:
    """Relate the endpoints of every 0-interval, plus the diagonal."""
    rows = [1 << v for v in range(x.n + 1)]
    for (i, j), bit in zip(intervals(x.n), x.bit_tuple()):
        if not bit:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple.__new__(InterpolativeRelation, (x.n, tuple(rows)))


def relation_to_lax(rel: InterpolativeRelation) -> LaxMatrix:
    _check_interpolative(rel.n, rel.rows)
    bits = (0 if rel.rows[i] >> j & 1 else 1 for (i, j) in intervals(rel.n))
    return lax_from_bits(rel.n, bits)


def relation_pullback(xi: MonotoneMap, rel: InterpolativeRelation) -> InterpolativeRelation:
    if xi.codomain_top != rel.n:
        raise ShapeMismatchError("pullback endpoints do not match")
    m, read, table, values = _gather(xi)
    return tuple.__new__(InterpolativeRelation, (m, read(rel.rows, table, values)))


# -- square ideals ---------------------------------------------------------


def _is_ideal(rows: tuple[int, ...], m_top: int) -> bool:
    """Each row closed upward in i and inside the row before: the stepwise law."""
    up = all(r << 1 & ((2 << m_top) - 1) & ~r == 0 for r in rows)
    return up and all(r & ~before == 0 for before, r in zip(rows, rows[1:]))


def identity_ideal(n: int) -> IdealRelation:
    """Row j holds every i >= j."""
    return tuple.__new__(IdealRelation, (n, n, tuple((2 << n) - (1 << j) for j in range(n + 1))))


def lax_to_ideal(x: LaxMatrix) -> IdealRelation:
    """(j, i) is related when j <= i, or when j > i and the interval bit is
    0: the identity ideal joined with the relation."""
    both = zip(identity_ideal(x.n).rows, lax_to_relation(x).rows)
    return tuple.__new__(IdealRelation, (x.n, x.n, tuple(d | r for d, r in both)))


def ideal_to_lax(b: IdealRelation) -> LaxMatrix:
    if b.m_top != b.n_top:
        raise ShapeMismatchError("only square ideals present a simplex")
    n, rows = b.n_top, b.rows
    if not _is_ideal(rows, n):
        raise NotAnIdealError("pair set violates the ideal closure law")
    if not ideal_leq(identity_ideal(n), b):
        raise MissingIdentityIdealError("identity ideal not contained")
    bits = (0 if rows[j] >> i & 1 else 1 for (i, j) in intervals(n))
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
    # xi is monotone, so the i with xi(i) >= j are those past the values below j
    lower = tuple((2 << m) - (1 << sum(v < j for v in xi.values)) for j in range(n + 1))
    upper = tuple((2 << n) - (1 << v) for v in xi.values)
    return (
        tuple.__new__(IdealRelation, (m, n, lower)), tuple.__new__(IdealRelation, (n, m, upper))
    )


def ideal_pullback(xi: MonotoneMap, b: IdealRelation) -> IdealRelation:
    """Inverse image of a square ideal along a monotone map."""
    if b.m_top != b.n_top or xi.codomain_top != b.n_top:
        raise ShapeMismatchError("pullback needs a square ideal at the map's target")
    m, read, table, values = _gather(xi)
    return tuple.__new__(IdealRelation, (m, m, read(b.rows, table, values)))


def enumerate_square_ideals(n: int) -> tuple[IdealRelation, ...]:
    """Every square ideal on [n] containing the identity ideal.

    Candidates are generated column by column as diagonal-containing
    prefixes {0..k} and then re-checked against the raw closure law, so the
    count does not lean on the interval-table model.
    """
    identity = identity_ideal(n)
    out = []
    for tops in product(*[range(i, n + 1) for i in range(n + 1)]):
        rows = tuple(sum(1 << i for i, t in enumerate(tops) if j <= t) for j in range(n + 1))
        b = tuple.__new__(IdealRelation, (n, n, rows))
        if _is_ideal(rows, n) and ideal_leq(identity, b):
            out.append(b)
    return tuple(out)
