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


def validate_monoidal_poset(m: MonoidalPoset) -> ValidationReport:
    """Exhaustively check the poset laws and the tensor laws on the tables."""
    bad: list[str] = []
    els = m.elements
    if len(set(els)) != len(els) or not els:
        bad.append("elements must be a non-empty list without repeats")
        return ValidationReport("monoidal poset", tuple(bad))
    if any("," in e for e in els):
        bad.append("element names must not contain commas")
    eset = set(els)
    for (a, b) in m.leq:
        if a not in eset or b not in eset:
            bad.append(f"leq pair ({a}, {b}) mentions unknown elements")
    for a in els:
        if (a, a) not in m.leq:
            bad.append(f"leq not reflexive at {a}")
    for (a, b) in m.leq:
        if a != b and (b, a) in m.leq:
            bad.append(f"leq not antisymmetric on {a}, {b}")
    for (a, b) in m.leq:
        for c in els:
            if (b, c) in m.leq and (a, c) not in m.leq:
                bad.append(f"leq not transitive: {a} <= {b} <= {c} but not {a} <= {c}")
    if m.unit not in eset:
        bad.append(f"unit {m.unit} is not an element")
    for a in els:
        for b in els:
            if (a, b) not in m.tensor:
                bad.append(f"tensor undefined on ({a}, {b})")
            elif m.tensor[(a, b)] not in eset:
                bad.append(f"tensor({a}, {b}) = {m.tensor[(a, b)]} is not an element")
    if bad:
        return ValidationReport("monoidal poset", tuple(bad))
    t = m.tensor
    for a in els:
        if t[(m.unit, a)] != a or t[(a, m.unit)] != a:
            bad.append(f"unit law fails at {a}")
    for a in els:
        for b in els:
            for c in els:
                if t[(t[(a, b)], c)] != t[(a, t[(b, c)])]:
                    bad.append(f"associativity fails at ({a}, {b}, {c})")
    for (a, b) in m.leq:
        for c in els:
            if (t[(a, c)], t[(b, c)]) not in m.leq:
                bad.append(f"tensor not monotone on the left: {a} <= {b}, with {c}")
            if (t[(c, a)], t[(c, b)]) not in m.leq:
                bad.append(f"tensor not monotone on the right: {a} <= {b}, with {c}")
    return ValidationReport("monoidal poset", tuple(bad))
