"""Balanced-word coordinates for a level, the rotation order, and order probes.

The bijection fixed here: for each vertex i of a simplex read off
r(i) = the largest j with x(i, j) = 0 (taking x(i, i) = 0).  The sequence r
is weakly increasing with i <= r(i) <= n, and is drawn as the monotone
lattice path whose (t+1)-st horizontal step sits at height r(t) + 1.
Reading vertical steps as 'U' and horizontal steps as 'D' yields a balanced
word of length 2(n+1).  The rotation order on balanced words is generated
by covers that replace a factor 'D p' (p a primitive balanced factor) with
'p D'.

Containment of the associated ideals gives a second, simpler order; faces
and degeneracies always respect it, while the rotation order breaks under
some face maps from level 3 upward.  ``order_probe`` reports both.
"""

from __future__ import annotations

from typing import NamedTuple

from . import delta
from .catalan import LaxMatrix, act, enumerate_level
from .errors import LevelOutOfRangeError

__all__ = [
    "ballot",
    "ballot_to_word",
    "matrix_to_word",
    "rotation_covers",
    "upward_closure",
    "dyck_count",
    "dyck_crosscheck",
    "inclusion_leq",
    "OrderProbeReport",
    "order_probe",
]


def ballot(x: LaxMatrix) -> tuple[int, ...]:
    """r(i) = largest j >= i with x(i, j) = 0, scanning while zeros last."""
    out = []
    for i in range(x.n + 1):
        r = i
        for j in range(i + 1, x.n + 1):
            if x.entry(i, j) == 0:
                r = j
            else:
                break
        out.append(r)
    return tuple(out)


def ballot_to_word(r: tuple[int, ...]) -> str:
    n = len(r) - 1
    parts = ["U" * (r[0] + 1), "D"]
    for t in range(1, n + 1):
        parts.append("U" * (r[t] - r[t - 1]))
        parts.append("D")
    return "".join(parts)


def matrix_to_word(x: LaxMatrix) -> str:
    return ballot_to_word(ballot(x))


def rotation_covers(word: str) -> list[str]:
    """Words one rotation above: each 'D' before a primitive factor moves past it."""
    out = []
    size = len(word)
    for p in range(size - 1):
        if word[p] == "D" and word[p + 1] == "U":
            h = 0
            for q in range(p + 1, size):
                h += 1 if word[q] == "U" else -1
                if h == 0:
                    out.append(word[:p] + word[p + 1 : q + 1] + "D" + word[q + 1 :])
                    break
    return out


def upward_closure(words) -> dict[str, frozenset]:
    """For each word, the set of words reachable by rotations (itself included):
    the word joined with its covers' closures, each built once in a dict local
    to the call, by recursion as deep as the longest rotation chain above it."""
    closures = {}

    def closure(w):
        if w not in closures:
            closures[w] = frozenset({w}).union(*map(closure, rotation_covers(w)))
        return closures[w]

    return {w: closure(w) for w in words}


def dyck_count(semilength: int) -> int:
    """The number of balanced words of the given semilength, building none.

    ``ways[h]`` counts the prefixes that end at height h: each letter takes
    a prefix one step up, or one step down when it is above height 0.
    """
    if semilength < 0:
        return 0
    ways = [1] + [0] * semilength
    for _ in range(2 * semilength):
        ways = [(ways[h - 1] if h else 0) + (ways[h + 1] if h < semilength else 0)
                for h in range(semilength + 1)]
    return ways[0]


def dyck_crosscheck(n: int) -> int:
    """Count level n through balanced words alone (no table enumeration)."""
    return dyck_count(n + 1)


def inclusion_leq(x: LaxMatrix, y: LaxMatrix) -> bool:
    """Ideal containment: every 1 of y is a 1 of x."""
    return y.bits & ~x.bits == 0


class OrderProbeReport(NamedTuple):
    level: int
    inclusion_violations: tuple
    rotation_violations: tuple

    @property
    def inclusion_ok(self) -> bool:
        return not self.inclusion_violations

    @property
    def rotation_ok(self) -> bool:
        return not self.rotation_violations

    def summary(self) -> str:
        lines = [
            f"level {self.level}: inclusion order "
            + ("preserved by all face/degeneracy maps" if self.inclusion_ok
               else f"VIOLATED ({len(self.inclusion_violations)} pairs)"),
        ]
        if self.rotation_ok:
            lines.append(
                f"level {self.level}: rotation order preserved by all face/degeneracy maps"
            )
        else:
            label, x, y = self.rotation_violations[0]
            lines.append(
                f"level {self.level}: rotation order NOT preserved "
                f"({len(self.rotation_violations)} witnesses); e.g. {label} on "
                f"{x!r} <= {y!r}"
            )
        return "\n".join(lines)


def order_probe(n: int) -> OrderProbeReport:
    """Check both orders on level n against every face and degeneracy map.

    Each map acts once on each simplex of level n.  The rotation order on
    levels n - 1, n and n + 1 is read through one upward closure, built from
    the words of level n and of their images.
    """
    if n < 0:
        raise LevelOutOfRangeError("probe level must be >= 0")
    here = enumerate_level(n)
    maps = [(f"d_{i}", delta.face(i, n)) for i in range(n + 1) if n >= 1]
    maps += [(f"s_{i}", delta.degeneracy(i, n)) for i in range(n + 1)]
    # per map: its label, the images of ``here`` and their words, by index
    images = []
    for label, xi in maps:
        fx = [act(xi, x) for x in here]
        images.append((label, fx, [matrix_to_word(f) for f in fx]))
    words = [matrix_to_word(x) for x in here]
    ups = upward_closure(set(words).union(*(fw for _, _, fw in images)))
    inclusion_bad, rotation_bad = [], []
    for i, x in enumerate(here):
        for j, y in enumerate(here):
            incl = inclusion_leq(x, y)
            rot = words[j] in ups[words[i]]
            if not (incl or rot):
                continue
            for label, fx, fw in images:
                if incl and not inclusion_leq(fx[i], fx[j]):
                    inclusion_bad.append((label, x, y))
                if rot and fw[j] not in ups[fw[i]]:
                    rotation_bad.append((label, x, y))
    return OrderProbeReport(n, tuple(inclusion_bad), tuple(rotation_bad))
