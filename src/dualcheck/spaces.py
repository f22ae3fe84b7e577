"""Space tags for the symbolic regime.

A tag records the analytic facts downstream checks need: whether the
space is a Fréchet space, finite-dimensional, and whether it is the zero
space.  Nothing else about an infinite-dimensional space is
ever computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class SpaceTag:
    kind: str  # "finite" | "lp" | "lpR" | "banach" | "lcs" | "product"
    dim: Optional[int] = None  # finite kind only
    p: Optional[Fraction] = None  # sequence-space exponent
    label: str = ""
    factors: tuple["SpaceTag", ...] = ()

    @property
    def finite_dim(self) -> bool:
        if self.kind == "finite":
            return True
        if self.kind == "product":
            return all(f.finite_dim for f in self.factors)
        return False

    @property
    def frechet(self) -> bool:
        if self.kind == "lcs":
            return False
        if self.kind == "product":
            return all(f.frechet for f in self.factors)
        return True  # R^n, l^p(N), l^p(R), named Banach spaces

    @property
    def is_zero(self) -> bool:
        return self.kind == "finite" and self.dim == 0


def finite(n: int) -> SpaceTag:
    return SpaceTag("finite", dim=n)


def lp_space(p=2) -> SpaceTag:
    return SpaceTag("lp", p=Fraction(p))


def lp_uncountable(p=2) -> SpaceTag:
    return SpaceTag("lpR", p=Fraction(p))


def banach(label: str = "X") -> SpaceTag:
    return SpaceTag("banach", label=label)


def lcs(label: str = "X") -> SpaceTag:
    return SpaceTag("lcs", label=label)


def product(a: SpaceTag, b: SpaceTag) -> SpaceTag:
    return SpaceTag("product", factors=(a, b))
