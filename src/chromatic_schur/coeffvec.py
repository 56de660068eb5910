"""Sparse exact coefficient vectors in the monomial or Schur basis."""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .partitions import Partition, check_partition

MONOMIAL = "monomial"
SCHUR = "schur"
_BASES = (MONOMIAL, SCHUR)


class CoefficientVector:
    """Finitely supported integer vector over partitions of one fixed size.

    Zero entries are never stored and all arithmetic stays in Python's
    arbitrary-precision integers; coefficients grow factorially, so no
    fixed-width type may enter the coefficient path.

    Read-only, unhashable (its coefficients are a dict), and equal to a
    vector of the same basis and coefficients.  Its methods are written out:
    importing ``dataclasses`` cost more than the whole package.
    """

    __slots__ = ("basis", "coeffs")
    __hash__ = None

    def __init__(self, basis: str, coeffs: Mapping[Partition, int] = MappingProxyType({})):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean: dict[Partition, int] = {}
        degree = None
        for mu, c in coeffs.items():
            mu = check_partition(mu)
            c = int(c)
            if c == 0:
                continue
            if degree is None:
                degree = sum(mu)
            elif sum(mu) != degree:
                raise ValueError("mixed degrees in coefficient vector")
            clean[mu] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", clean)

    def degree(self) -> int | None:
        """Common size of the keyed partitions, or None for the zero vector."""
        for mu in self.coeffs:
            return sum(mu)
        return None

    def __getitem__(self, mu) -> int:
        return self.coeffs.get(tuple(mu), 0)

    def __iter__(self):
        # canonical order: largest partition first
        return iter(sorted(self.coeffs, reverse=True))

    def __eq__(self, other):
        if other.__class__ is CoefficientVector:
            return self.basis == other.basis and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"CoefficientVector(basis={self.basis!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return CoefficientVector, (self.basis, self.coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def items(self) -> list[tuple[Partition, int]]:
        return [(mu, self.coeffs[mu]) for mu in self]

    def min_entry(self) -> int:
        return min(self.coeffs.values(), default=0)

    def to_json_dict(self) -> dict:
        # values serialize as decimal strings so readers without big-integer
        # JSON support stay exact
        return {
            "basis": self.basis,
            "coeffs": [{"partition": list(mu), "value": str(c)} for mu, c in self.items()],
        }
