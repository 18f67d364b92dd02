"""Hyperbolic geometry of the unit disc and the upper half-plane.

Every distance here is the Kobayashi distance, the normalization in which
the Fridman invariant and the squeezing function are stated: on the disc
``d(0, s) = artanh(s)``, so the metric ball of radius r around 0 has
euclidean radius tanh(r), and on the half-plane
``d(z, w) = asinh(|z - w| / (2 sqrt(Im z Im w)))``.  That is half the
curvature -1 (Poincare) distance, density ``|dz| / Im z``, whose circles
:func:`halfplane_metric_circle` gives point by point, in one form that does
not cancel; the metric spheres and balls of the half-planes are its points.

:class:`MetricMode` is an output choice only: ``mode.factor`` takes a
Kobayashi distance to the Poincare one and back, exactly.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = [
    "MetricMode",
    "halfplane_distance",
    "halfplane_distance_acosh",
    "disc_distance",
    "vertical_line_distance",
    "halfplane_metric_circle",
]


class MetricMode(Enum):
    """Output normalization of the hyperbolic metric; POINCARE = 2 * KOBAYASHI.

    ``mode.factor`` is the factor taking a KOBAYASHI distance to ``mode``,
    1.0 or 2.0, and the only place that factor is written: a distance is
    multiplied by it, a Fridman value (a reciprocal radius) divided by it.
    Both values are powers of two, so converting by it is exact.
    """

    POINCARE = "poincare"
    KOBAYASHI = "kobayashi"

    def __init__(self, value: str) -> None:
        self.factor = 2.0 if value == "poincare" else 1.0


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


def halfplane_distance(z: complex, w):
    """Distance between two points of the upper half-plane.

    ``asinh(|z - w| / (2 sqrt(Im z) sqrt(Im w)))``, one form without
    cancellation for every pair, nearly equal or nearly ideal.  Taking the
    square roots separately keeps the ratio scale-invariant and symmetric in
    ``z`` and ``w``: no overflow or underflow for very large or very small
    coordinates, and a finite value for distances up to about 700.  ``w``
    may be a complex array, a column of rows: then one distance per entry.
    """
    z = _require_halfplane(z)
    if isinstance(w, np.ndarray):
        if not (w.imag > 0).all():
            raise ValueError("every point must lie in the open upper half-plane")
        sqrt, asinh = np.sqrt, np.arcsinh
    else:
        w = _require_halfplane(w)
        sqrt, asinh = math.sqrt, math.asinh
    return asinh(abs(z - w) / (2.0 * (sqrt(z.imag) * sqrt(w.imag))))


def _s_rows(dx, y1: float, y2):
    """The ``s`` of the acosh form ``arccosh(1 + s) / 2`` of the half-plane
    distance, at horizontal offsets ``dx`` and heights ``y1`` and ``y2``.
    The distance is increasing in ``s``, so a grid's extremum of the
    distance is the acosh form at the grid's extremum of ``s``."""
    return (dx * dx + (y1 - y2) ** 2) / (2.0 * y1 * y2)


# entries per block of a swept grid: the oracles' million-point grids are
# never built whole, so a sweep holds a few blocks, not a few grids.  At
# 2^14 (128 KiB) glibc's malloc keeps reusing a sweep's freed blocks; at
# 2^15 it returned them to the system and faulted them back in (on a
# 2-vCPU Xeon, 13,590 page faults and 53 ms per vertical-line suite,
# against 17 faults and 34 ms at 2^14)
GRID_BLOCK = 1 << 14


def _linspace_blocks(start: float, stop: float, num: int, endpoint: bool = True):
    """``np.linspace(start, stop, num, endpoint=endpoint)`` for ``num >= 2``
    and ``start != stop``, as consecutive blocks of at most ``GRID_BLOCK``
    entries that concatenate to it bit for bit: numpy's
    ``arange * step + start`` taken per block, the last entry pinned to
    ``stop`` when ``endpoint``."""
    step = (stop - start) / (num - 1 if endpoint else num)
    for i in range(0, num, GRID_BLOCK):
        block = np.arange(i, min(i + GRID_BLOCK, num), dtype=float)
        block *= step
        block += start
        if endpoint and i + GRID_BLOCK >= num:
            block[-1] = stop
        yield block


def _geomspace_blocks(start: float, stop: float, num: int):
    """``np.geomspace(start, stop, num)`` for positive ``start != stop`` and
    ``num >= 2``, in the blocks of :func:`_linspace_blocks`, bit for bit:
    ten to the power of the log10 grid, both ends pinned to the arguments."""
    blocks = _linspace_blocks(np.log10(start), np.log10(stop), num)
    for i, exponents in zip(range(0, num, GRID_BLOCK), blocks):
        block = 10.0**exponents
        if i == 0:
            block[0] = start
        if i + GRID_BLOCK >= num:
            block[-1] = stop
        yield block


def _acosh_form(s):
    """``arccosh(1 + s) / 2``, through log1p: the oracles' half-plane
    distance.  ``s`` may be an array: numpy's log1p then, which can differ
    from ``math.log1p`` by an ulp."""
    lib = np if isinstance(s, np.ndarray) else math
    return 0.5 * lib.log1p(s + lib.sqrt(s * (s + 2.0)))


def halfplane_distance_acosh(z, w):
    """Independent acosh form of the half-plane distance: the oracle that
    :func:`halfplane_distance` is checked against, not a fallback for it.

    Evaluates :func:`_acosh_form`, ``arccosh(1 + s) / 2`` through log1p, at
    ``s = (|z - w| / (sqrt(2 Im z) sqrt(Im w)))^2 = |z - w|^2 / (2 Im z Im w)``:
    the ratio is formed before it is squared, so ``s`` neither underflows
    nor overflows at very small or very large coordinates.  ``z`` and ``w``
    may be complex arrays of one shape: then one distance per entry, by the
    same formula in numpy.
    """
    if isinstance(z, np.ndarray):
        if not ((z.imag > 0).all() and (w.imag > 0).all()):
            raise ValueError("every point must lie in the open upper half-plane")
        sqrt = np.sqrt
    else:
        z = _require_halfplane(z)
        w = _require_halfplane(w)
        sqrt = math.sqrt
    return _acosh_form((abs(z - w) / (sqrt(2.0 * z.imag) * sqrt(w.imag))) ** 2)


def disc_distance(a: complex, b):
    """Mobius-invariant distance on the unit disc.

    ``d(0, s) = artanh(s)``.  Evaluated as
    ``asinh(|a - b| / sqrt((1 - |a|^2)(1 - |b|^2)))`` with
    ``1 - |a|^2 = (1 - |a|)(1 + |a|)``: no subtraction of nearly equal
    quantities for nearly equal points or for points near the circle.

    ``b`` may be a complex array, such as a column of rows: the result is
    then the array of the distances from ``a`` to each entry, by the same
    formula in numpy.
    """
    a = _require_disc(a)
    if isinstance(b, np.ndarray):
        rb = np.abs(b)
        if not (rb < 1.0).all():
            raise ValueError("every point must lie in the open unit disc")
        sqrt, asinh = np.sqrt, np.arcsinh
    else:
        b = _require_disc(b)
        rb = abs(b)
        sqrt, asinh = math.sqrt, math.asinh
    ra = abs(a)
    s = abs(a - b) / sqrt((1.0 - ra) * (1.0 + ra) * (1.0 - rb) * (1.0 + rb))
    return asinh(s)


def vertical_line_distance(z: complex, c: float) -> float:
    """Distance from ``z`` to the vertical geodesic ``{Re w = c}``.

    The unique geodesic through ``z`` orthogonal to the line is the
    half-circle centred at ``c`` of radius ``|z - c|``; it meets the line at
    the foot ``c + i |z - c|``, and the distance is realized there.
    """
    z = _require_halfplane(z)
    foot = complex(c, abs(z - c))
    return halfplane_distance(z, foot)


def halfplane_metric_circle(center: complex, angles: np.ndarray, radius) -> np.ndarray:
    """The points at ``angles`` of the metric circle of ``radius`` around
    ``x0 + i y0``; the radius is a float or one per angle, checked by the caller.

    The Kobayashi circle of radius r is the euclidean circle with center
    ``x0 + i y0 cosh t`` and radius ``y0 sinh t``, ``t = 2 r``.  Its heights
    are ``y0 (e^-t + 2 sinh t sin^2(angle/2 + pi/4))``, a sum of nonnegative
    terms: ``y0 cosh t + y0 sinh t sin(angle)`` cancels on the lower arc.
    """
    center = _require_halfplane(center)
    t = 2.0 * radius
    lib = np if isinstance(t, np.ndarray) else math
    s = center.imag * lib.sinh(t)
    w = np.empty(len(angles), dtype=complex)
    w.real = center.real + s * np.cos(angles)
    w.imag = center.imag * lib.exp(-t) + 2.0 * s * np.sin(0.5 * angles + 0.25 * math.pi) ** 2
    return w
