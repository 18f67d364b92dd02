"""Kobayashi geometry of the punctured disc through its universal cover.

The cover is the upper half-plane with projection ``z -> exp(i z)``; deck
transformations are the horizontal translations ``z -> z + 2 pi k``.
Distances on the punctured disc descend as an infimum over deck
translates.  The distance to the slit ``(-1, 0]`` and the translation
length of the deck generator at a point (the ``circle_supremum``, which
bounds the distance over the centred circle through that point) both
reduce to elementary closed forms, and a composed chain of elementary maps
realizes the uniformization of the slit disc by the disc.  The chain is
returned bare: :class:`biholo.invariants.EmbeddingWitness` validates it
where it is used as a witness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hyperbolic import halfplane_distance
from .maps import Chain, Mobius, PrincipalSqrt, Square

__all__ = [
    "TWO_PI",
    "SlitMapError",
    "principal_lift",
    "punctured_distance",
    "deck_minimum",
    "slit_distance",
    "circle_supremum",
    "DeckRangeWarning",
    "DeckDistance",
    "punctured_distance_detail",
    "deck_minimum_enumerated",
    "grid_slit_distance",
    "grid_circle_supremum",
    "build_slit_map",
]

TWO_PI = 2.0 * math.pi


class SlitMapError(RuntimeError):
    """The slit-disc uniformization pulled its basepoint back outside the disc."""


def principal_lift(q: complex) -> complex:
    """Principal preimage of ``q`` under ``z -> exp(i z)``.

    The result has real part in ``[0, 2 pi)`` and imaginary part
    ``-log |q| > 0``.
    """
    q = complex(q)
    m = abs(q)
    if m == 0.0:
        raise ValueError("the puncture has no preimage")
    if m >= 1.0:
        raise ValueError(f"point {q!r} is not in the punctured unit disc")
    x = math.atan2(q.imag, q.real) % TWO_PI
    if x >= TWO_PI:  # a tiny negative phase can round up to the period
        x = 0.0
    return complex(x, -math.log(m))


def punctured_distance(p: complex, q: complex) -> float:
    """Punctured-disc distance: the minimum over deck translates of the lifts.

    Both principal lifts have real part in ``[0, 2 pi)``, so their
    horizontal offset lies in ``(-2 pi, 2 pi)``; at fixed heights the
    half-plane distance grows with the absolute horizontal offset, so the
    translate nearest in real part is one of ``k = -1, 0, 1`` and the
    minimum over those three is the minimum over all deck translates.
    """
    zp = principal_lift(p)
    zq = principal_lift(q)
    return min(halfplane_distance(zp, zq + TWO_PI * k) for k in (-1, 0, 1))


def deck_minimum(p: float, theta: float) -> float:
    """Closed form of the lifted distance at horizontal offset ``theta``:

        log((theta^2 + 2 (log p)^2 + theta sqrt(theta^2 + 4 (log p)^2))
            / (2 (log p)^2)) / 2

    The argument of the log equals ``(u + sqrt(u^2 + 1))^2`` with
    ``u = theta / (2 |log p|)``, so the value is ``asinh(u)``; that form
    keeps full relative precision at tiny ``theta``, where the log of an
    argument near 1 loses it to cancellation.

    For ``theta <= pi`` this equals the deck infimum, hence the
    punctured-disc distance between two points of modulus ``p`` with that
    angular offset.  For larger offsets the infimum wraps around the
    puncture (deck index -1), so the metric distance is the closed form at
    ``2 pi - theta``; the form itself keeps increasing and its value at
    ``theta = 2 pi`` is the deck translation length :func:`circle_supremum`.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("modulus must lie in (0, 1)")
    if not 0.0 <= theta <= TWO_PI:
        raise ValueError("angular offset must lie in [0, 2*pi]")
    return math.asinh(theta / (-2.0 * math.log(p)))


def slit_distance(p: float) -> float:
    """Distance from ``p`` in (0, 1) to the slit ``(-1, 0]``:

        log(x + sqrt(x^2 + 1)) / 2,  x = -pi / log p.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("base point must lie in (0, 1)")
    x = -math.pi / math.log(p)
    return 0.5 * math.asinh(x)


def circle_supremum(p: float) -> float:
    """Translation length of the deck generator at ``p`` in (0, 1), the
    half-plane distance ``d(z_p, z_p + 2 pi) = deck_minimum(p, 2 pi)``.
    That is ``asinh(x)`` with ``x = -pi / log p``: twice
    :func:`slit_distance`, computed as such, so it keeps that form's
    relative precision (doubling is exact).

    Despite the name this is not the supremum over the circle ``|q| = p``
    of the distance from ``p``: that supremum is reached at the antipode
    and equals ``deck_minimum(p, pi)`` (1.557 against 2.217 at p = 0.5).
    It is an upper bound for it, so the metric ball of this radius around
    ``p`` contains the circle.
    """
    return 2.0 * slit_distance(p)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


# Hard ceiling for automatic widening of the deck enumeration.
_DECK_RANGE_CAP = 1 << 16


class DeckRangeWarning(UserWarning):
    """The deck-transform argmin hit the enumeration boundary; range widened."""


@dataclass(frozen=True)
class DeckDistance:
    """Distance together with the achieving deck index and range used."""

    value: float
    deck_index: int
    deck_range: int
    widened: bool


def punctured_distance_detail(p: complex, q: complex, deck_range: int = 100) -> DeckDistance:
    """Oracle for :func:`punctured_distance`: enumeration of deck translates.

    Enumerates ``k`` in ``[-K, K]``; if the argmin lands on the boundary the
    range is doubled (with a :class:`DeckRangeWarning`) until it is interior.
    """
    if deck_range < 1:
        raise ValueError("deck_range must be >= 1")
    zp = principal_lift(p)
    zq = principal_lift(q)
    k_range = deck_range
    widened = False
    while True:
        best = math.inf
        best_k = 0
        for k in range(-k_range, k_range + 1):
            d = halfplane_distance(zp, zq + TWO_PI * k)
            if d < best:
                best, best_k = d, k
        if abs(best_k) < k_range or k_range >= _DECK_RANGE_CAP:
            return DeckDistance(best, best_k, k_range, widened)
        warnings.warn(
            f"deck argmin k={best_k} hit the enumeration boundary K={k_range}; widening",
            DeckRangeWarning,
            stacklevel=2,
        )
        k_range *= 2
        widened = True


def _s_rows(dx, y1: float, y2):
    """The ``s`` of the acosh form ``arccosh(1 + s) / 2`` of the half-plane
    distance, at horizontal offsets ``dx`` and heights ``y1`` and ``y2``.
    The distance is increasing in ``s``, so a grid's extremum of the
    distance is the acosh form at the grid's extremum of ``s``."""
    return (dx * dx + (y1 - y2) ** 2) / (2.0 * y1 * y2)


def _acosh_form(s: float) -> float:
    """``arccosh(1 + s) / 2``, through log1p."""
    return 0.5 * math.log1p(s + math.sqrt(s * (s + 2.0)))


def deck_minimum_enumerated(p: float, theta: float, deck_range: int = 100) -> float:
    """Oracle for :func:`deck_minimum`: direct enumeration of deck translates.

    The lifts ``i y`` and ``theta + 2 pi k + i y`` (``y = -log p``) for
    ``k`` in ``[-K, K]``, all in one array; the distance is the acosh form
    at the smallest ``s``, not the asinh form of :func:`halfplane_distance`.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("modulus must lie in (0, 1)")
    y = -math.log(p)
    dx = theta + TWO_PI * np.arange(-deck_range, deck_range + 1)
    return _acosh_form(float(_s_rows(dx, y, y).min()))


def grid_slit_distance(p: float, grid: int = 100_000, deck_range: int = 5) -> float:
    """Oracle for :func:`slit_distance`: minimize the punctured-disc distance
    from ``p`` over a grid of points of the slit ``(-1, 0)`` and the deck
    translates ``k`` in ``[-K, K]`` of their lifts.  The acosh form is
    applied once, to the smallest ``s`` over the grid and the translates."""
    if not 0.0 < p < 1.0:
        raise ValueError("base point must lie in (0, 1)")
    yp = -math.log(p)
    moduli = np.linspace(0.0, 1.0, grid + 2)[1:-1]
    yq = -np.log(moduli)
    s = min(float(_s_rows(math.pi + TWO_PI * k, yp, yq).min()) for k in range(-deck_range, deck_range + 1))
    return _acosh_form(s)


def grid_circle_supremum(p: float, grid: int = 1_000_000) -> tuple[float, float]:
    """Oracle for :func:`circle_supremum`: maximize the half-plane distance
    between the lifts ``i y`` and ``theta + i y`` (``y = -log p``) over an
    angular grid of ``[0, 2 pi)``.  The distance is the acosh form at the
    largest ``s`` of the grid, not the closed form of :func:`deck_minimum`.
    There is no wrap-around at ``theta > pi``, so this is the distance
    between lifts, not between points of the punctured disc.  Returns
    ``(maximum, argmax angle)``; the argmax is the far end of the grid."""
    if not 0.0 < p < 1.0:
        raise ValueError("base point must lie in (0, 1)")
    theta = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    y = -math.log(p)
    s = _s_rows(theta, y, y)
    idx = int(s.argmax())
    return _acosh_form(float(s[idx])), float(theta[idx])


# ---------------------------------------------------------------------------
# the slit-disc uniformization
# ---------------------------------------------------------------------------


def _base_slit_chain() -> Chain:
    return Chain(
        (
            Mobius.cayley_disc_to_halfplane(),  # disc -> upper half-plane
            PrincipalSqrt(),  # half-plane -> first quadrant
            Mobius.quadrant_to_upper_half_disc(),  # quadrant -> upper half-disc
            Mobius.rotation(-1j),  # -> right half-disc
            Square(),  # right half-disc -> disc minus (-1, 0]
        )
    )


def build_slit_map(p: float) -> Chain:
    """The uniformization of the slit disc sending 0 to ``p`` in (0, 1).

    The chain is: disc automorphism, Cayley transform to the half-plane,
    principal square root to the first quadrant, a Mobius map to the upper
    half-disc, rotation to the right half-disc, and the squaring map onto
    the slit disc.  It acts on a complex scalar or elementwise on a complex
    array; ``unapply`` is the inverse.  A basepoint that pulls back outside
    the disc raises :class:`SlitMapError`.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("target must lie in (0, 1)")
    base = _base_slit_chain()
    a = base.unapply(complex(p))
    if not abs(a) < 1.0:
        raise SlitMapError(f"pulled-back basepoint {a!r} is not inside the disc")
    return Chain((Mobius.disc_automorphism(a),) + base.steps)
