"""Two further presentations of a level, with conversions and the ideal calculus.

A simplex can equivalently be given as a reflexive symmetric relation with
the interpolation property (the pairs marking intervals whose bit is 0), or
as a reflexive square ideal: a pair set containing the identity ideal and
closed downward in its first coordinate and upward in its second.  Both
presentations transform along monotone maps by plain inverse image, which
for ideals also agrees with sandwiching between the adjoint ideals of the
map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

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
    "full_ideal",
    "compose_ideals",
    "ideal_leq",
    "adjoint_ideals",
    "ideal_pullback",
    "enumerate_square_ideals",
]


@dataclass(frozen=True, slots=True)
class InterpolativeRelation:
    """A reflexive symmetric relation on [n] with the interpolation property."""

    n: int
    pairs: frozenset


@dataclass(frozen=True, slots=True)
class IdealRelation:
    """An ideal [m_top] -/-> [n_top]: pairs (j, i) in [n_top] x [m_top],
    closed under shrinking j and growing i."""

    m_top: int
    n_top: int
    pairs: frozenset


# -- interpolative relations ----------------------------------------------


def _check_interpolative(n: int, pairs: frozenset) -> None:
    for (a, b) in pairs:
        if not (0 <= a <= n and 0 <= b <= n):
            raise NotInterpolativeError(f"pair {(a, b)} outside [{n}] x [{n}]")
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
    _check_interpolative(rel.n, rel.pairs)
    bits = (0 if (i, j) in rel.pairs else 1 for (i, j) in intervals(rel.n))
    return lax_from_bits(rel.n, bits)


def _gather_pairs(xi: MonotoneMap, pairs: frozenset) -> frozenset:
    """The pairs (p, q) of [m] x [m] whose image under xi lies in ``pairs``."""
    m = xi.domain_top
    return frozenset(
        (p, q)
        for p in range(m + 1)
        for q in range(m + 1)
        if (xi.values[p], xi.values[q]) in pairs
    )


def relation_pullback(xi: MonotoneMap, rel: InterpolativeRelation) -> InterpolativeRelation:
    if xi.codomain_top != rel.n:
        raise ShapeMismatchError("pullback endpoints do not match")
    return InterpolativeRelation(xi.domain_top, _gather_pairs(xi, rel.pairs))


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


def full_ideal(m_top: int, n_top: int) -> IdealRelation:
    return IdealRelation(
        m_top,
        n_top,
        frozenset(product(range(n_top + 1), range(m_top + 1))),
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
    if not _is_ideal(b.pairs, n, n):
        raise NotAnIdealError("pair set violates the ideal closure law")
    if not all((j, i) in b.pairs for i in range(n + 1) for j in range(i + 1)):
        raise MissingIdentityIdealError("identity ideal not contained")
    bits = (0 if (j, i) in b.pairs else 1 for (i, j) in intervals(n))
    return lax_from_bits(n, bits)


def compose_ideals(a: IdealRelation, b: IdealRelation) -> IdealRelation:
    """Relational composite a . b of b : L -/-> M followed by a : M -/-> N."""
    if b.n_top != a.m_top:
        raise ShapeMismatchError(
            f"cannot compose: middle ordinals [{b.n_top}] vs [{a.m_top}]"
        )
    mids = {k for (_, k) in a.pairs} | {k for (k, _) in b.pairs}
    pairs = frozenset(
        (j, i)
        for j in range(a.n_top + 1)
        for i in range(b.m_top + 1)
        if any((j, k) in a.pairs and (k, i) in b.pairs for k in mids)
    )
    return IdealRelation(b.m_top, a.n_top, pairs)


def ideal_leq(a: IdealRelation, b: IdealRelation) -> bool:
    if (a.m_top, a.n_top) != (b.m_top, b.n_top):
        raise ShapeMismatchError("cannot compare ideals of different shapes")
    return a.pairs <= b.pairs


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
    return IdealRelation(m, m, _gather_pairs(xi, b.pairs))


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
