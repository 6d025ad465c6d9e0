"""Order-preserving maps between the finite ordinals [n] = {0, ..., n}.

The generators are the injections delta_i (which skip the value i) and the
surjections sigma_i (which repeat the value i); they induce the face and
degeneracy actions used in the rest of the package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

from .errors import (
    DomainMismatchError,
    IndexOutOfRangeError,
    NonMonotoneError,
    OutOfRangeError,
)

__all__ = [
    "MonotoneMap",
    "identity",
    "face",
    "degeneracy",
    "compose",
    "all_maps",
]


class _MonotoneFields(NamedTuple):
    domain_top: int
    codomain_top: int
    values: tuple[int, ...]


class MonotoneMap(_MonotoneFields):
    """A weakly increasing function [domain_top] -> [codomain_top], stored pointwise.

    A tuple of its three fields, so hashing, equality and field reads run
    in C; it equals the plain tuple ``(domain_top, codomain_top, values)``.
    """

    __slots__ = ()

    def __new__(cls, domain_top: int, codomain_top: int, values):
        values = tuple(values)
        if domain_top < 0 or codomain_top < 0:
            raise OutOfRangeError("ordinal tops must be non-negative")
        if len(values) != domain_top + 1:
            raise OutOfRangeError(f"expected {domain_top + 1} values, got {len(values)}")
        for p, (a, b) in enumerate(zip(values, values[1:])):
            if b < a:
                raise NonMonotoneError(f"values decrease at position {p}: {a} > {b}")
        for v in values:
            if not 0 <= v <= codomain_top:
                raise OutOfRangeError(f"value {v} outside [0, {codomain_top}]")
        return tuple.__new__(cls, (domain_top, codomain_top, values))

    @classmethod
    def _make(cls, iterable) -> MonotoneMap:
        """Build through the checks of ``__new__``; ``_replace`` calls this."""
        return cls(*iterable)

    def __call__(self, p: int) -> int:
        return self.values[p]

    def __str__(self) -> str:
        inside = ",".join(map(str, self.values))
        return f"[{self.domain_top}]->[{self.codomain_top}]:({inside})"


def identity(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, tuple(range(n + 1)))


@lru_cache(maxsize=None)
def face(i: int, n: int) -> MonotoneMap:
    """delta_i : [n-1] -> [n], the injection whose image omits i."""
    if n < 1 or not 0 <= i <= n:
        raise IndexOutOfRangeError(f"no face index {i} at level {n}")
    return MonotoneMap(n - 1, n, tuple(p if p < i else p + 1 for p in range(n)))


@lru_cache(maxsize=None)
def degeneracy(i: int, n: int) -> MonotoneMap:
    """sigma_i : [n+1] -> [n], the surjection that hits i twice."""
    if n < 0 or not 0 <= i <= n:
        raise IndexOutOfRangeError(f"no degeneracy index {i} at level {n}")
    return MonotoneMap(n + 1, n, tuple(p if p <= i else p - 1 for p in range(n + 2)))


def compose(outer: MonotoneMap, inner: MonotoneMap) -> MonotoneMap:
    """The composite outer . inner (inner applied first)."""
    if inner.codomain_top != outer.domain_top:
        raise DomainMismatchError(f"cannot compose {outer} after {inner}")
    return MonotoneMap(
        inner.domain_top,
        outer.codomain_top,
        tuple(outer.values[v] for v in inner.values),
    )


def all_maps(m: int, n: int) -> Iterator[MonotoneMap]:
    """Every monotone map [m] -> [n], in lexicographic order of value tuples."""
    for values in combinations_with_replacement(range(n + 1), m + 1):
        yield MonotoneMap(m, n, values)
