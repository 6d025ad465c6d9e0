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
    "word_to_ballot",
    "matrix_to_word",
    "rotation_covers",
    "upward_closure",
    "dyck_words",
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


def word_to_ballot(word: str) -> tuple[int, ...]:
    heights = []
    h = 0
    for ch in word:
        if ch == "U":
            h += 1
        else:
            heights.append(h)
    return tuple(v - 1 for v in heights)


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
    """For each word, the set of words reachable by rotations (itself included)."""
    ups = {}
    for w in words:
        seen = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for v in frontier:
                for u in rotation_covers(v):
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        ups[w] = frozenset(seen)
    return ups


def dyck_words(semilength: int) -> list[str]:
    """All balanced words, by direct backtracking over prefixes ('U' first)."""
    out: list[str] = []
    stack = [("", 0, 0)]
    while stack:
        word, ups, downs = stack.pop()
        if downs == semilength:
            out.append(word)
            continue
        # pushed last, popped first: the 'U' branch is walked before the 'D' one
        if downs < ups:
            stack.append((word + "D", ups, downs + 1))
        if ups < semilength:
            stack.append((word + "U", ups + 1, downs))
    return out


def dyck_count(semilength: int) -> int:
    """The number of leaves of the ``dyck_words`` walk, without the words.

    The walk splits at the midpoint of the word.  Its prefixes of length
    ``semilength`` are walked on an explicit stack.  How a word goes on
    depends only on the state (ups, downs) its prefix reaches, so the
    completions of each reached state are walked once, in a dict local to
    the call, and each prefix adds its state's count.  Every completion
    ends at (semilength, semilength), so a leaf is one completion of one
    prefix, and no word is built.
    """

    def walk(ups, downs, stop):
        """The state (ups, downs) of every extension to length ``stop``."""
        stack = [(ups, downs)]
        while stack:
            ups, downs = stack.pop()
            if ups + downs == stop:
                yield ups, downs
                continue
            if downs < ups:
                stack.append((ups, downs + 1))
            if ups < semilength:
                stack.append((ups + 1, downs))

    completions = {}
    count = 0
    for state in walk(0, 0, semilength):
        found = completions.get(state)
        if found is None:
            found = completions[state] = sum(1 for _ in walk(*state, 2 * semilength))
        count += found
    return count


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


def _rotation_leq_table(n: int) -> dict[LaxMatrix, dict]:
    words = {x: matrix_to_word(x) for x in enumerate_level(n)}
    ups = upward_closure(set(words.values()))
    return {"words": words, "ups": ups}


def order_probe(n: int) -> OrderProbeReport:
    """Check both orders on level n against every face and degeneracy map."""
    if n < 0:
        raise LevelOutOfRangeError("probe level must be >= 0")
    here = enumerate_level(n)
    t_here = _rotation_leq_table(n)
    t_down = _rotation_leq_table(n - 1) if n >= 1 else None
    t_up = _rotation_leq_table(n + 1)

    maps = []
    if n >= 1:
        maps.extend((f"d_{i}", delta.face(i, n), t_down) for i in range(n + 1))
    maps.extend((f"s_{i}", delta.degeneracy(i, n), t_up) for i in range(n + 1))

    def rot_leq(tbl, a, b):
        return tbl["words"][b] in tbl["ups"][tbl["words"][a]]

    inclusion_bad = []
    rotation_bad = []
    for x in here:
        for y in here:
            incl = inclusion_leq(x, y)
            rot = rot_leq(t_here, x, y)
            if not (incl or rot):
                continue
            for label, xi, tbl in maps:
                fx, fy = act(xi, x), act(xi, y)
                if incl and not inclusion_leq(fx, fy):
                    inclusion_bad.append((label, x, y))
                if rot and not rot_leq(tbl, fx, fy):
                    rotation_bad.append((label, x, y))
    return OrderProbeReport(n, tuple(inclusion_bad), tuple(rotation_bad))
