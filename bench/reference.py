"""40-digit reference distances for the ``distance`` workload.

Each function recomputes a Kobayashi distance in mpmath from the float
inputs the program received, by a route chosen to avoid the program's own
formulas where that is possible:

* ball and Siegel: the direct invariant
  ``1 - (1 - |a|^2)(1 - |b|^2) / |1 - <a, b>|^2`` (Siegel after the Cayley
  transform to the ball);
* half-planes: the acosh form;
* punctured disc: the minimum over deck translates, enumerated;
* slit disc: the uniformizing chain run backwards in mpmath.

Values are in POINCARE normalization; ``reference_distance`` applies the
factor 1/2 for KOBAYASHI.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpc, mpf

from workloads.distance import HALFPLANE_C_COEFF

DIGITS = 40

# Both principal lifts have real part in [0, 2 pi), so the deck minimum is
# attained at k in {-1, 0, 1}; the wider range costs little and does not
# rely on that argument.
_DECK_K = 3


def _c(z: complex) -> mpc:
    return mpc(z.real, z.imag)


def _halfplane(z: mpc, w: mpc) -> mpf:
    s = abs(z - w) ** 2 / (2 * z.imag * w.imag)
    return mpmath.acosh(1 + s)


def _ball(a: list[mpc], b: list[mpc]) -> mpf:
    na = sum(abs(x) ** 2 for x in a)
    nb = sum(abs(x) ** 2 for x in b)
    inner = sum(x * mpmath.conj(y) for x, y in zip(a, b))
    t2 = 1 - (1 - na) * (1 - nb) / abs(1 - inner) ** 2
    return 2 * mpmath.atanh(mpmath.sqrt(max(t2, mpf(0))))


def _disc(a: mpc, b: mpc) -> mpf:
    return 2 * mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(a) * b))


def _lift(q: mpc) -> mpc:
    x = mpmath.atan2(q.imag, q.real) % (2 * mp.pi)
    return mpc(x, -mpmath.log(abs(q)))


def _punctured(p: mpc, q: mpc) -> mpf:
    zp, zq = _lift(p), _lift(q)
    return min(_halfplane(zp, zq + 2 * mp.pi * k) for k in range(-_DECK_K, _DECK_K + 1))


def _slit_to_disc(w: mpc) -> mpc:
    # Inverse of: Cayley disc -> half-plane, principal sqrt, (u - 1)/(u + 1),
    # rotation by -i, squaring.  Any Riemann map of the slit disc gives the
    # same distance, so the normalizing automorphism is left out.
    u = mpmath.sqrt(w)
    u = 1j * u
    u = (u + 1) / (1 - u)
    u = u * u
    return (u - 1j) / (u + 1j)


def _siegel_to_ball(z: list[mpc]) -> list[mpc]:
    zn = z[-1]
    root2 = mpmath.sqrt(2)
    return [c * root2 / (1 - zn) for c in z[:-1]] + [(1 + zn) / (1 - zn)]


def reference_distance(variant: str, p: tuple, q: tuple, kobayashi: bool) -> mpf:
    """Distance between the float points ``p`` and ``q`` to ``DIGITS`` digits."""
    with mp.workdps(DIGITS):
        a = [_c(z) for z in p]
        b = [_c(z) for z in q]
        if variant == "halfplane":
            d = _halfplane(a[0], b[0])
        elif variant == "halfplaneC":
            coeff = _c(HALFPLANE_C_COEFF)
            d = _halfplane(1j * (mpf("0.5") - coeff * a[0]), 1j * (mpf("0.5") - coeff * b[0]))
        elif variant in ("disc", "ball2"):
            d = _ball(a, b)
        elif variant == "polydisc3":
            d = max(_disc(x, y) for x, y in zip(a, b))
        elif variant == "punctured":
            d = _punctured(a[0], b[0])
        elif variant == "slit":
            d = _disc(_slit_to_disc(a[0]), _slit_to_disc(b[0]))
        elif variant == "siegel2":
            d = _ball(_siegel_to_ball(a), _siegel_to_ball(b))
        else:
            raise ValueError(f"no reference for variant {variant!r}")
        return d / 2 if kobayashi else +d
