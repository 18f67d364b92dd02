"""Elementary conformal maps and composable chains.

Every step knows its forward action and its local inverse; a
:class:`Chain` composes steps and can be run in both directions.  Chains
realize the slit-disc uniformization and the planar embedding witnesses.
Every step acts on a complex scalar, or elementwise on a complex array.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = ["Mobius", "PrincipalSqrt", "Square", "Chain"]


def _sqrt(z):
    # np.sqrt and cmath.sqrt agree bit for bit, signed-zero branch cut
    # included; cmath keeps scalar calls off numpy's per-call overhead
    return np.sqrt(z) if isinstance(z, np.ndarray) else cmath.sqrt(z)


@dataclass(frozen=True)
class Mobius:
    """Fractional linear map z -> (a z + b) / (c z + d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("degenerate Mobius map (zero determinant)")

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def unapply(self, w: complex) -> complex:
        return (self.d * w - self.b) / (-self.c * w + self.a)

    @staticmethod
    def cayley_disc_to_halfplane() -> "Mobius":
        # z -> i (1 + z) / (1 - z); sends 0 to i.
        return Mobius(1j, 1j, -1, 1)


@dataclass(frozen=True)
class PrincipalSqrt:
    """Principal square root; inverse is squaring."""

    def apply(self, z: complex) -> complex:
        return _sqrt(z)

    def unapply(self, w: complex) -> complex:
        return w * w


@dataclass(frozen=True)
class Square:
    """Squaring; inverse is the principal square root."""

    def apply(self, z: complex) -> complex:
        return z * z

    def unapply(self, w: complex) -> complex:
        return _sqrt(w)


@dataclass(frozen=True)
class Chain:
    """Composition of elementary maps, applied left to right."""

    steps: tuple

    def apply(self, z: complex) -> complex:
        for step in self.steps:
            z = step.apply(z)
        return z

    def unapply(self, w: complex) -> complex:
        for step in reversed(self.steps):
            w = step.unapply(w)
        return w
