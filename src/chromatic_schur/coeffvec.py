"""Sparse exact coefficient vectors in the monomial or Schur basis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .partitions import Partition, check_partition

MONOMIAL = "monomial"
SCHUR = "schur"
_BASES = (MONOMIAL, SCHUR)


@dataclass(frozen=True, eq=True)
class CoefficientVector:
    """Finitely supported integer vector over partitions of one fixed size.

    Zero entries are never stored and all arithmetic stays in Python's
    arbitrary-precision integers; coefficients grow factorially, so no
    fixed-width type may enter the coefficient path.
    """

    basis: str
    coeffs: Mapping[Partition, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        clean: dict[Partition, int] = {}
        degree = None
        for mu, c in self.coeffs.items():
            mu = check_partition(mu)
            c = int(c)
            if c == 0:
                continue
            if degree is None:
                degree = sum(mu)
            elif sum(mu) != degree:
                raise ValueError("mixed degrees in coefficient vector")
            clean[mu] = c
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

    def __len__(self) -> int:
        return len(self.coeffs)

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

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CoefficientVector":
        coeffs = {tuple(e["partition"]): int(e["value"]) for e in payload["coeffs"]}
        return cls(payload["basis"], coeffs)
