"""Hyperbolic geometry of the unit disc and the upper half-plane.

Two normalizations of the same metric are used side by side in this
package, so every distance function takes a :class:`MetricMode`:

* ``MetricMode.POINCARE`` -- the curvature -1 metric, density
  ``|dz| / Im z`` on the half-plane.  Its distance has the log-ratio
  closed form ``log((|z - conj w| + |z - w|) / (|z - conj w| - |z - w|))``
  and on the disc ``d(0, s) = 2 artanh(s)``.
* ``MetricMode.KOBAYASHI`` -- the Kobayashi convention, exactly half of
  the above, with ``d(0, s) = artanh(s)`` on the disc, so the metric ball
  of radius r around 0 has euclidean radius tanh(r).

Conversion between the modes is multiplication by exactly 2.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = [
    "MetricMode",
    "halfplane_distance",
    "halfplane_distance_acosh",
    "disc_distance",
    "cayley_disc_to_halfplane",
    "cayley_halfplane_to_disc",
    "vertical_line_distance",
    "halfplane_metric_circle",
]


class MetricMode(Enum):
    """Normalization of the hyperbolic metric; POINCARE = 2 * KOBAYASHI.

    ``mode.scale`` is the factor taking a POINCARE distance to ``mode``,
    1.0 or 0.5, and the only place that factor is written.  Both values are
    powers of two, so converting by it is exact and the two modes differ by
    exactly 2 bit for bit.
    """

    POINCARE = "poincare"
    KOBAYASHI = "kobayashi"

    def __init__(self, value: str) -> None:
        # a member attribute rather than a property: every distance call
        # reads it, and an attribute lookup costs a sixth of a property call
        self.scale = 1.0 if value == "poincare" else 0.5


# Below this ratio of (|z - conj w| - |z - w|) to |z - conj w| the log-ratio
# form loses more than ~2e-13 to cancellation (error grows like eps * e^d),
# so the algebraically equal acosh form takes over.
_LOG_RATIO_CUTOFF = 1e-3


def _require_halfplane(z: complex) -> complex:
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"point {z!r} is not in the open upper half-plane")
    return z


def _require_disc(a: complex) -> complex:
    a = complex(a)
    if not abs(a) < 1:
        raise ValueError(f"point {a!r} is not in the open unit disc")
    return a


def halfplane_distance(z: complex, w: complex, mode: MetricMode = MetricMode.POINCARE) -> float:
    """Distance between two points of the upper half-plane.

    In POINCARE mode this is the log-ratio closed form
    ``log((|z - conj w| + |z - w|) / (|z - conj w| - |z - w|))``; for nearly
    ideal pairs, where the denominator cancels, the equivalent stabilized
    acosh form is used instead.
    """
    z = _require_halfplane(z)
    w = _require_halfplane(w)
    a = abs(z - w.conjugate())
    b = abs(z - w)
    if b == 0.0:
        return 0.0
    den = a - b
    if den < _LOG_RATIO_CUTOFF * a:
        return mode.scale * halfplane_distance_acosh(z, w)
    return mode.scale * math.log((a + b) / den)


def halfplane_distance_acosh(z: complex, w: complex, mode: MetricMode = MetricMode.POINCARE) -> float:
    """Independent acosh form of the half-plane distance.

    Evaluates ``arccosh(1 + |z - w|^2 / (2 Im z Im w))`` through log1p so it
    is stable for both close and nearly ideal pairs.
    """
    z = _require_halfplane(z)
    w = _require_halfplane(w)
    s = abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
    return mode.scale * math.log1p(s + math.sqrt(s * (s + 2.0)))


def disc_distance(a: complex, b: complex, mode: MetricMode = MetricMode.POINCARE) -> float:
    """Mobius-invariant distance on the unit disc.

    ``d(0, s) = artanh(s)`` in KOBAYASHI mode and twice that in POINCARE
    mode.
    """
    a = _require_disc(a)
    b = _require_disc(b)
    t = abs(a - b) / abs(1.0 - a.conjugate() * b)
    return 2.0 * mode.scale * math.atanh(t)


def cayley_disc_to_halfplane(a: complex) -> complex:
    """Conformal equivalence disc -> upper half-plane with 0 -> i."""
    a = _require_disc(a)
    return 1j * (1 + a) / (1 - a)


def cayley_halfplane_to_disc(z: complex) -> complex:
    """Inverse of :func:`cayley_disc_to_halfplane`."""
    z = _require_halfplane(z)
    return (z - 1j) / (z + 1j)


def vertical_line_distance(z: complex, c: float, mode: MetricMode = MetricMode.POINCARE) -> float:
    """Distance from ``z`` to the vertical geodesic ``{Re w = c}``.

    The unique geodesic through ``z`` orthogonal to the line is the
    half-circle centred at ``c`` of radius ``|z - c|``; it meets the line at
    the foot ``c + i |z - c|``, and the distance is realized there.
    """
    z = _require_halfplane(z)
    foot = complex(c, abs(z - c))
    return halfplane_distance(z, foot, mode)


def halfplane_metric_circle(center: complex, radius: float, mode: MetricMode = MetricMode.POINCARE) -> tuple[complex, float]:
    """Euclidean (center, radius) of a metric circle in the half-plane.

    A hyperbolic circle around ``x0 + i y0`` of curvature -1 radius t is the
    euclidean circle with center ``x0 + i y0 cosh t`` and radius
    ``y0 sinh t``.
    """
    center = _require_halfplane(center)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    t = radius / mode.scale
    return complex(center.real, center.imag * math.cosh(t)), center.imag * math.sinh(t)
