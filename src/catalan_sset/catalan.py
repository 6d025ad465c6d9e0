"""The Catalan simplicial set as boolean interval tables.

An n-simplex stores one bit per interval 0 <= i < j <= n, subject to an
outward closure law: a 1 on any interval forces a 1 on every enclosing
interval, equivalently x(i, k) = 0 forces x(i, j) = x(j, k) = 0 for
i <= j <= k.  Levels count 1, 2, 5, 14, 42, ...; the simplices that fail
the degeneracy test are counted by 1, 1, 2, 4, 9, 21, ...

Intervals are ordered canonically by (length, left endpoint) and a simplex
is packed into an integer whose highest bit carries the first interval in
that order, so integer order equals lexicographic order on bit tuples and
enumeration output comes out sorted.  Pulling back along a monotone map
reads x'(p, q) = x(xi(p), xi(q)) when xi(p) < xi(q) and inserts 0 when the
endpoints collapse.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

from . import sset
from .delta import MonotoneMap
from .errors import (
    DomainMismatchError,
    InvalidInputError,
    LevelTooLargeError,
)

__all__ = [
    "HARD_LEVEL_BOUND",
    "DEFAULT_COUNT_BOUND",
    "DEFAULT_CHECK_BOUND",
    "MOTZKIN",
    "LaxMatrix",
    "intervals",
    "interval_index",
    "lax_from_bits",
    "enumerate_level",
    "level_count",
    "act",
    "catalan_number",
    "reference_counts",
    "nondegenerate_level",
    "nondegenerate_count",
    "level_export",
    "CatalanSet",
]

HARD_LEVEL_BOUND = 14     # enumeration ceiling; growth is roughly 4x per level
DEFAULT_COUNT_BOUND = 10  # counting stops here unless overridden
DEFAULT_CHECK_BOUND = 6   # exhaustive structural checks stop here

#: reference counts of non-degenerate simplices per level, 0..14
MOTZKIN = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835, 113634)


@lru_cache(maxsize=None)
def intervals(n: int) -> tuple[tuple[int, int], ...]:
    """Intervals of [n] in canonical order: by length, then left endpoint."""
    return tuple(
        (i, i + d) for d in range(1, n + 1) for i in range(0, n - d + 1)
    )


@lru_cache(maxsize=None)
def interval_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(intervals(n))}


class LaxMatrix(NamedTuple):
    """One simplex: its level ``n`` and the packed interval bits.

    A tuple of its two fields, so hashing, equality and field reads run in
    C; it equals the plain tuple ``(n, bits)``.
    """

    n: int
    bits: int

    def entry(self, i: int, j: int) -> int:
        count = self.n * (self.n + 1) // 2
        pos = interval_index(self.n)[(i, j)]
        return (self.bits >> (count - 1 - pos)) & 1

    def bit_tuple(self) -> tuple[int, ...]:
        count = self.n * (self.n + 1) // 2
        return tuple((self.bits >> (count - 1 - k)) & 1 for k in range(count))

    def __repr__(self) -> str:
        word = "".join(map(str, self.bit_tuple()))
        return f"Lax({self.n}:{word})" if word else f"Lax({self.n}:)"


def lax_from_bits(n: int, bits: Iterable[int]) -> LaxMatrix:
    """Build a simplex from bits in canonical interval order, checking closure."""
    seq = tuple(int(b) for b in bits)
    count = n * (n + 1) // 2
    if n < 0 or len(seq) != count:
        raise InvalidInputError(f"level {n} needs {count} bits, got {len(seq)}")
    if any(b not in (0, 1) for b in seq):
        raise InvalidInputError("entries must be 0 or 1")
    idx = interval_index(n)
    for (i, j), k in idx.items():
        if j - i >= 2 and seq[k] < max(seq[idx[(i, j - 1)]], seq[idx[(i + 1, j)]]):
            raise InvalidInputError(
                f"closure fails at interval ({i}, {j}): inner 1 under outer 0"
            )
    packed = 0
    for b in seq:
        packed = (packed << 1) | b
    return LaxMatrix(n, packed)


def _ballot_leaves(n: int, nondegenerate: bool) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The packed bits of each simplex at level n, in chunks, unsorted.

    A simplex is fixed by r(i), the largest j with x(i, j) = 0: row i holds
    zeros on (i, i+1) ... (i, r(i)) and ones beyond, and r runs over the
    weakly increasing sequences with i <= r(i) <= n.  A simplex is
    degenerate iff some i < n has r(i) = r(i+1) >= i+1 while no p < i has
    r(p) = i; every extension of a prefix meeting that test meets it too,
    so with ``nondegenerate`` the walk skips the whole subtree.

    The walk splits at row h = max(0, n - 5).  Rows 0 .. h-1 are walked on
    an explicit stack of prefixes.  The choices on the last rows h .. n
    depend only on r(h-1) and, with ``nondegenerate``, on the bits of
    ``hit`` from h-1 up, so their zero masks are tabulated once per such
    state, in a dict local to the call: at most 7 states (127 with
    ``nondegenerate``) of at most 132 masks each, whatever n is.  Each
    prefix yields one chunk ``(comp, table)``: its leaves are ``comp ^ z``
    for z in its state's table.  Prefix and suffix bits are disjoint, so
    that is one leaf per simplex, and XOR with a fixed ``comp`` is a
    bijection, so a chunk holds exactly ``len(table)`` leaves and a count
    never builds one.
    """
    if n < 0:
        raise LevelTooLargeError("level must be >= 0")
    if n > HARD_LEVEL_BOUND:
        raise LevelTooLargeError(
            f"level {n} above the enumeration ceiling {HARD_LEVEL_BOUND}"
        )
    idx = interval_index(n)
    count = len(idx)
    full = (1 << count) - 1
    # zero_masks[i][r - i]: the bits of (i, i+1) ... (i, r)
    zero_masks = []
    for i in range(n + 1):
        row = [0]
        for j in range(i + 1, n + 1):
            row.append(row[-1] | 1 << (count - 1 - idx[(i, j)]))
        zero_masks.append(row)

    def walk(start, prev, hit, stop):
        """(r(stop-1), zeros on rows start .. stop-1, hit) for every way to
        fill those rows after a prefix with r(start-1) = prev; bit v of hit
        is set when some earlier row p has r(p) = v."""
        stack = [(start, prev, 0, hit)]
        while stack:
            i, prev, zeros, hit = stack.pop()
            if i == stop:
                yield prev, zeros, hit
                continue
            masks = zero_masks[i]
            for r in range(max(i, prev), n + 1):
                if nondegenerate and r == prev >= i > 0 and not hit >> (i - 1) & 1:
                    continue
                stack.append((i + 1, r, zeros | masks[r - i], hit | 1 << r))

    h = max(0, n - 5)
    tables = {}
    for prev, zeros, hit in walk(0, 0, 0, h):
        state = (prev, hit >> max(h - 1, 0)) if nondegenerate else prev
        table = tables.get(state)
        if table is None:
            table = tables[state] = tuple(z for _, z, _ in walk(h, prev, hit, n + 1))
        yield full ^ zeros, table


def _ballot_level(n: int, nondegenerate: bool) -> tuple[LaxMatrix, ...]:
    """The leaves of the ballot walk as simplices, in canonical order,
    wrapped in C as ``act`` builds its results."""
    leaves = sorted(chain.from_iterable(
        map(comp.__xor__, table) for comp, table in _ballot_leaves(n, nondegenerate)
    ))
    return tuple(map(tuple.__new__, repeat(LaxMatrix), zip(repeat(n), leaves)))


@lru_cache(maxsize=None)
def enumerate_level(n: int) -> tuple[LaxMatrix, ...]:
    """All simplices at a level, in lexicographic (canonical) order."""
    return _ballot_level(n, nondegenerate=False)


@lru_cache(maxsize=None)
def _level_positions(n: int) -> dict[int, int]:
    """The position in ``enumerate_level(n)`` of each simplex, by its bits."""
    return {x.bits: k for k, x in enumerate(enumerate_level(n))}


def level_count(n: int) -> int:
    """The number of simplices at a level: the ballot walk's leaves, counted
    a chunk at a time from its suffix tables, so no leaf is built and no
    level is cached."""
    return sum(len(table) for _, table in _ballot_leaves(n, nondegenerate=False))


@lru_cache(maxsize=None)
def _act_table(xi: MonotoneMap) -> tuple[tuple[int, int], ...]:
    """One (shift, bit) pair per interval (p, q) of the domain that xi keeps
    apart: the source bit of (xi(p), xi(q)) sits ``shift`` places up, and
    ``bit`` is the place of (p, q) in the pulled-back simplex.  Collapsed
    intervals get no pair, so they read 0."""
    m, n = xi.domain_top, xi.codomain_top
    count_m, count_n = m * (m + 1) // 2, n * (n + 1) // 2
    idx_n = interval_index(n)
    v = xi.values
    return tuple(
        (count_n - 1 - idx_n[(v[p], v[q])], 1 << (count_m - 1 - k))
        for k, (p, q) in enumerate(intervals(m))
        if v[p] < v[q]
    )


def _act_bits(table: tuple[tuple[int, int], ...], src: int) -> int:
    """The packed bits of a pulled-back simplex, from the source's bits."""
    bits = 0
    for shift, bit in table:
        if src >> shift & 1:
            bits |= bit
    return bits


def act(xi: MonotoneMap, x: LaxMatrix) -> LaxMatrix:
    """Pull back a simplex along a monotone map (contravariant action)."""
    if xi.codomain_top != x.n:
        raise DomainMismatchError(
            f"map into [{xi.codomain_top}] cannot act on a level-{x.n} simplex"
        )
    return tuple.__new__(LaxMatrix, (xi.domain_top, _act_bits(_act_table(xi), x.bits)))


def catalan_number(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def reference_counts(n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Closed-form level counts and the fixed non-degenerate reference, 0..n_max."""
    if n_max < 0 or n_max >= len(MOTZKIN):
        raise LevelTooLargeError(
            f"reference values available for 0..{len(MOTZKIN) - 1}"
        )
    return (
        tuple(catalan_number(n + 1) for n in range(n_max + 1)),
        MOTZKIN[: n_max + 1],
    )


@lru_cache(maxsize=None)
def nondegenerate_level(n: int) -> tuple[LaxMatrix, ...]:
    """The non-degenerate simplices at a level, in canonical order."""
    return _ballot_level(n, nondegenerate=True)


def nondegenerate_count(n: int) -> int:
    """The number of non-degenerate simplices at a level, counted like
    ``level_count``."""
    return sum(len(table) for _, table in _ballot_leaves(n, nondegenerate=True))


def level_export(n: int) -> dict:
    """JSON-ready view of a level; bit order is the canonical interval order."""
    sims = enumerate_level(n)
    nd = set(nondegenerate_level(n))
    return {
        "n": n,
        "count": len(sims),
        "simplices": [list(x.bit_tuple()) for x in sims],
        "nondegenerate": [x in nd for x in sims],
    }


class CatalanSet(sset.TruncatedSimplicialSet):
    """The simplicial-set interface over the interval-table model."""

    def __init__(self, top_level: int = DEFAULT_CHECK_BOUND):
        if top_level > HARD_LEVEL_BOUND:
            raise LevelTooLargeError(
                f"top level {top_level} above the ceiling {HARD_LEVEL_BOUND}"
            )
        super().__init__(top_level)

    _enumerate = staticmethod(enumerate_level)

    def act(self, xi: MonotoneMap, x: LaxMatrix) -> LaxMatrix:
        self._check_level(xi.codomain_top)
        self._check_level(xi.domain_top)
        return act(xi, x)

    def _act_positions(self, xi: MonotoneMap) -> tuple[int, ...]:
        """Positions looked up by the pulled-back bits: no ``LaxMatrix`` is built."""
        self._check_level(xi.domain_top)
        table = _act_table(xi)
        position = _level_positions(xi.domain_top)
        return tuple(
            position[_act_bits(table, x.bits)] for x in self.level(xi.codomain_top)
        )
