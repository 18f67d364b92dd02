"""Kobayashi geometry of the punctured disc through its universal cover.

The cover is the upper half-plane with projection ``z -> exp(i z)``; deck
transformations are the horizontal translations ``z -> z + 2 pi k``.
Distances on the punctured disc descend as an infimum over deck
translates, attained at the translate nearest in real part: one half-plane
distance per pair, of points or of rows.  The distance to the slit
``(-1, 0]`` and the translation length of the deck generator at a point
(``deck_minimum(|p|, 2 pi)``, which bounds the distance over the centred
circle through that point) reduce to elementary closed forms, and a
composed chain of elementary maps realizes the uniformization of the slit
disc by the disc.  The chain is returned bare: as the certified witness
``slit_embedding_of_disc`` it is not validated where it is used, and
:meth:`biholo.invariants.EmbeddingWitness.validate` checks it as an oracle
in the tier-1 tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import GRID_BLOCK, _acosh_form, _linspace_blocks, _s_rows, halfplane_distance
from .maps import Chain, Mobius, PrincipalSqrt, Square

__all__ = [
    "TWO_PI",
    "SlitMapError",
    "principal_lift",
    "punctured_distance",
    "deck_minimum",
    "slit_distance",
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


def principal_lift(q):
    """Principal preimage of ``q`` under ``z -> exp(i z)``.

    The result has real part in ``[0, 2 pi)`` and imaginary part
    ``-log |q| > 0``; of a complex array ``q``, the array of the lifts.
    """
    rows = isinstance(q, np.ndarray)
    q = q if rows else complex(q)
    m = abs(q)
    if not (((0.0 < m) & (m < 1.0)).all() if rows else 0.0 < m < 1.0):
        raise ValueError("every point must lie in the unit disc, off the puncture")
    atan2, log = (np.arctan2, np.log) if rows else (math.atan2, math.log)
    x = atan2(q.imag, q.real) % TWO_PI
    x = x * (x < TWO_PI)  # a tiny negative phase can round up to the period
    return x - 1j * log(m)


def punctured_distance(p: complex, q):
    """Punctured-disc distance: the half-plane distance from the lift of
    ``p`` to the nearest deck translate of the lift of ``q``, a point or a
    complex array (a column of rows, one distance per entry).

    Both principal lifts have real part in ``[0, 2 pi)``, so their
    horizontal offset ``dx`` lies in ``(-2 pi, 2 pi)``; at fixed heights the
    half-plane distance grows with the absolute horizontal offset, so the
    infimum over deck translates is at the translate by ``2 pi k``, with
    ``k = 1`` if ``dx > pi``, ``-1`` if ``dx < -pi`` and 0 otherwise.
    """
    zp = principal_lift(p)
    zq = principal_lift(q)
    dx = zp.real - zq.real
    k = 1 * (dx > math.pi) - 1 * (dx < -math.pi)
    return halfplane_distance(zp, zq + TWO_PI * k)


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
    ``theta = 2 pi`` is the deck translation length at ``p``, which bounds
    the distance from ``p`` over the circle ``|q| = p`` (its value at pi).
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


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


DECK_RANGE = 100
SLIT_GRID = 100_000
SLIT_DECK_RANGE = 5
CIRCLE_GRID = 1_000_000


@dataclass(frozen=True)
class DeckDistance:
    """Distance together with the achieving deck index and range used."""

    value: float
    deck_index: int
    deck_range: int


def punctured_distance_detail(p: complex, q: complex) -> DeckDistance:
    """Oracle for :func:`punctured_distance`: enumeration of deck translates.

    The translates ``z_q + 2 pi k``, ``|k| <= DECK_RANGE``, of the lift of
    ``q`` go in one array; the distance is the acosh form at the smallest
    ``s``, not the asinh form of :func:`halfplane_distance`.  ``s`` is
    convex in ``k``, so an argmin inside the range is the minimum over all
    translates; an argmin on the range's edge raises ``RuntimeError``.
    """
    zp = principal_lift(p)
    zq = principal_lift(q)
    ks = np.arange(-DECK_RANGE, DECK_RANGE + 1)
    s = _s_rows(zp.real - (zq.real + TWO_PI * ks), zp.imag, zq.imag)
    i = int(s.argmin())
    best_k = int(ks[i])
    if abs(best_k) == DECK_RANGE:
        raise RuntimeError(f"deck argmin k={best_k} is on the enumeration boundary K={DECK_RANGE}")
    return DeckDistance(_acosh_form(float(s[i])), best_k, DECK_RANGE)


def deck_minimum_enumerated(p, theta):
    """Oracle for :func:`deck_minimum`: direct enumeration of deck translates.

    The lifts ``i y`` and ``theta + 2 pi k + i y`` (``y = -log p``) for
    ``|k| <= DECK_RANGE``, all in one array; the distance is the acosh form
    at the smallest ``s``, not the asinh form of :func:`halfplane_distance`.
    ``p`` and ``theta`` may be 1-d arrays of one length: then one distance
    per entry, the rows of translates swept in blocks of at most
    ``GRID_BLOCK`` entries, never one array of them all.
    """
    rows = isinstance(p, np.ndarray)
    if not (((0.0 < p) & (p < 1.0)).all() if rows else 0.0 < p < 1.0):
        raise ValueError("modulus must lie in (0, 1)")
    shifts = TWO_PI * np.arange(-DECK_RANGE, DECK_RANGE + 1)
    if not rows:
        y = -math.log(p)
        return _acosh_form(float(_s_rows(theta + shifts, y, y).min()))
    y = -np.log(p)[:, None]
    s = np.empty(len(p))
    step = GRID_BLOCK // len(shifts)
    for i in range(0, len(p), step):
        b = slice(i, i + step)
        s[b] = _s_rows(theta[b, None] + shifts, y[b], y[b]).min(axis=1)
    return _acosh_form(s)


def grid_slit_distance(p: float) -> float:
    """Oracle for :func:`slit_distance`: minimize the punctured-disc distance
    from ``p`` over a grid of ``SLIT_GRID`` points of the slit ``(-1, 0)``
    and the translates ``|k| <= SLIT_DECK_RANGE`` of their lifts.  The acosh
    form is applied once, to the smallest ``s`` over grid and translates.
    The grid is swept in blocks, like the circle's."""
    if not 0.0 < p < 1.0:
        raise ValueError("base point must lie in (0, 1)")
    yp = -math.log(p)
    ks = range(-SLIT_DECK_RANGE, SLIT_DECK_RANGE + 1)
    s = math.inf
    for moduli in _linspace_blocks(0.0, 1.0, SLIT_GRID + 2):
        # the grid's ends, the puncture and the unit circle, are off the slit
        yq = -np.log(moduli[(0.0 < moduli) & (moduli < 1.0)])
        s = min(s, min(float(_s_rows(math.pi + TWO_PI * k, yp, yq).min()) for k in ks))
    return _acosh_form(s)


def grid_circle_supremum(p: float) -> tuple[float, float]:
    """Oracle for the deck translation length ``deck_minimum(p, 2 pi)``:
    maximize the half-plane distance between the lifts ``i y`` and
    ``theta + i y`` (``y = -log p``) over a grid of ``CIRCLE_GRID`` angles
    of ``[0, 2 pi)``.  The distance is the acosh form at the largest ``s``
    of the grid, not the closed form of :func:`deck_minimum`.  There is no
    wrap-around at ``theta > pi``, so this is the distance between lifts,
    not between points of the punctured disc.  Returns ``(maximum, argmax
    angle)``; the argmax is the far end of the grid.  The grid is swept in
    blocks, never built whole; a later block replaces the maximum only when
    strictly larger, so the argmax is the first, as one ``argmax`` over the
    grid would give."""
    if not 0.0 < p < 1.0:
        raise ValueError("base point must lie in (0, 1)")
    y = -math.log(p)
    best, arg = -math.inf, math.nan
    for theta in _linspace_blocks(0.0, TWO_PI, CIRCLE_GRID, endpoint=False):
        s = _s_rows(theta, y, y)
        idx = int(s.argmax())
        if s[idx] > best:
            best, arg = float(s[idx]), float(theta[idx])
    return _acosh_form(best), arg


# ---------------------------------------------------------------------------
# the slit-disc uniformization
# ---------------------------------------------------------------------------


def _base_slit_chain() -> Chain:
    return Chain(
        (
            Mobius.cayley_disc_to_halfplane(),  # disc -> upper half-plane
            PrincipalSqrt(),  # half-plane -> first quadrant
            Mobius(1, -1, 1, 1),  # u -> (u - 1) / (u + 1): quadrant -> upper half-disc
            Mobius(-1j, 0, 0, 1),  # rotation by -i -> right half-disc
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
    return Chain((Mobius(1, a, a.conjugate(), 1),) + base.steps)  # disc automorphism 0 -> a
