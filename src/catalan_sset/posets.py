"""Finite monoidal posets given by explicit tables."""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import InvalidInputError

__all__ = [
    "MonoidalPoset",
    "ValidationReport",
    "validate_monoidal_poset",
    "require_valid",
]


class ValidationReport(NamedTuple):
    subject: str
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def first(self) -> str:
        return self.violations[0] if self.violations else ""

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: valid"
        return f"{self.subject}: INVALID ({len(self.violations)}): {self.first()}"


def require_valid(report: ValidationReport) -> None:
    if not report.ok:
        raise InvalidInputError(report.summary())


class MonoidalPoset(NamedTuple):
    """A finite poset with a monotone, associative, unital binary operation."""

    elements: tuple[str, ...]
    leq: frozenset
    tensor: Mapping[tuple[str, str], str]
    unit: str

    def is_commutative(self) -> bool:
        return all(
            self.tensor[(a, b)] == self.tensor[(b, a)]
            for a in self.elements
            for b in self.elements
        )


def _order_faults(names, leq, what: str, transitive: str) -> list[str]:
    """Reflexivity, antisymmetry and transitivity of ``leq`` on ``names``, in
    the order of ``names``; ``transitive`` formats a failure from its three
    names."""
    pairs = [(a, b) for a in names for b in names if (a, b) in leq]
    return (
        [f"{what} not reflexive at {a}" for a in names if (a, a) not in leq]
        + [f"{what} not antisymmetric on {a}, {b}" for a, b in pairs if a != b and (b, a) in leq]
        + [f"{what} not transitive: " + transitive.format(a, b, c)
           for a, b in pairs for c in names if (b, c) in leq and (a, c) not in leq]
    )


def _entries(bad: list[str], table: Mapping, domain, undefined: str, name: str):
    """Yield the entries of a total ``table`` in the order of ``domain``.

    A missing key is reported as ``undefined.format(key)``; once every key
    is visited, so is each key of ``table`` outside ``domain``, in the
    table's order and spelled as in an input file.
    """
    domain = list(domain)
    for key in domain:
        if key in table:
            yield key, table[key]
        else:
            bad.append(undefined.format(key))
    inside = set(domain)
    for key in table:
        if key not in inside:
            shown = key if isinstance(key, str) else ",".join(key)
            bad.append(f"{name} key {shown!r} is outside its domain")


def validate_monoidal_poset(m: MonoidalPoset) -> ValidationReport:
    """Exhaustively check the poset laws and the tensor laws on the tables."""
    els = m.elements
    eset = set(els)
    if len(eset) != len(els) or not els:
        return ValidationReport(
            "monoidal poset", ("elements must be a non-empty list without repeats",)
        )
    bad: list[str] = []
    if any("," in e for e in els):
        bad.append("element names must not contain commas")
    bad += [f"leq pair ({a}, {b}) mentions unknown elements"
            for a, b in sorted(m.leq) if a not in eset or b not in eset]
    bad += _order_faults(els, m.leq, "leq", "{0} <= {1} <= {2} but not {0} <= {2}")
    if m.unit not in eset:
        bad.append(f"unit {m.unit} is not an element")
    grid = [(a, b) for a in els for b in els]
    undefined = "tensor undefined on ({0[0]}, {0[1]})"
    for (a, b), v in _entries(bad, m.tensor, grid, undefined, "tensor"):
        if v not in eset:
            bad.append(f"tensor({a}, {b}) = {v} is not an element")
    if bad:
        return ValidationReport("monoidal poset", tuple(bad))
    t = m.tensor
    bad += [f"unit law fails at {a}" for a in els if t[(m.unit, a)] != a or t[(a, m.unit)] != a]
    bad += [f"associativity fails at ({a}, {b}, {c})"
            for a, b in grid for c in els if t[(t[(a, b)], c)] != t[(a, t[(b, c)])]]
    for a, b in [p for p in grid if p in m.leq]:
        for c in els:
            if (t[(a, c)], t[(b, c)]) not in m.leq:
                bad.append(f"tensor not monotone on the left: {a} <= {b}, with {c}")
            if (t[(c, a)], t[(c, b)]) not in m.leq:
                bad.append(f"tensor not monotone on the right: {a} <= {b}, with {c}")
    return ValidationReport("monoidal poset", tuple(bad))
