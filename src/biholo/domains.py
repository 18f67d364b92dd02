"""Model domains, weighted homogeneous polynomials and multitype weights.

A domain is one of a fixed list of variants, each with a canonical signed
defining function (negative inside, zero on the boundary):

* ``Ball(n)``          -- ``|z|^2 - 1``
* ``Polydisc(n)``      -- ``max_k |z_k|^2 - 1``
* ``UpperHalfPlane``   -- ``-Im z``
* ``HalfPlaneC(a)``    -- ``2 Re(a z) - 1``
* ``PuncturedDisc``    -- ``max(|z|^2 - 1, -|z|)``
* ``SlitDisc``         -- disc minus the slit (-1, 0]
* ``Siegel(n)``        -- ``2 Re z_n + |z_1|^2 + ... + |z_{n-1}|^2``
* ``WeightedModel``    -- ``2 Re z_n + P('z, conj 'z)``

Each variant is a class that owns its ``dim``, ``label``, its one sampler
``sample_rows(rng, m)`` and its one defining formula ``defining(z)``; the
module functions below only hand over to them.

Points are plain tuples of complex numbers; planar domains also accept a
bare complex scalar.  ``as_point`` is the one scalar coercion: it makes the
tuple and checks that it is nonempty, finite and of the asked dimension, so
a caller that holds its result calls ``d.defining(pt)`` with no second
coercion.  Many points at once are rows: a complex array of shape
``[m, n]``.  ``defining_rows``/``contains_rows`` run the formula of
``defining_value``/``contains`` on the columns of the rows.  Sampling is on
rows only: ``sample_rows`` draws them, and ``sample_point`` is its first row
of one.  A single point is otherwise pure Python, because a one-row array
costs more than the whole scalar call.

Rows agree with points to rounding, not bit for bit: numpy's array kernels
for ``abs`` and complex ``*``/``**`` (SIMD paths on AVX-512) can differ from
Python's scalar arithmetic by an ulp, so a defining value on rows can differ
from the point's in the last place (relatively more near a zero crossing),
and the two memberships can disagree for a point on the boundary to within
rounding.  ``np.hypot`` matches Python's ``abs`` bit for bit, but the sums of
squares still differ for ``Ball`` and ``Siegel``.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Point",
    "as_point",
    "as_rows",
    "parse_complex_literal",
    "format_complex",
    "UnsupportedDomainError",
    "Ball",
    "Polydisc",
    "UpperHalfPlane",
    "HalfPlaneC",
    "PuncturedDisc",
    "SlitDisc",
    "Siegel",
    "WeightedModel",
    "ModelDomain",
    "defining_value",
    "contains",
    "sample_point",
    "defining_rows",
    "contains_rows",
    "sample_rows",
    "random_unit_vectors",
    "Multitype",
    "Term",
    "WeightedPolynomial",
    "modulus_power",
    "poly_eval",
    "symbolic_weight_check",
    "numeric_scaling_check",
    "parse_polynomial",
]

Point = tuple[complex, ...]


class UnsupportedDomainError(ValueError):
    """An operation has no implementation for the given domain variant."""


def as_point(p: Union[complex, float, Sequence[complex]], dim: int | None = None) -> Point:
    """Coerce scalars or sequences to a point tuple, checking the dimension."""
    if isinstance(p, (int, float, complex)):
        pt: Point = (complex(p),)
    else:
        pt = tuple(map(complex, p))
    if len(pt) < 1:
        raise ValueError("a point needs at least one coordinate")
    if not all(map(cmath.isfinite, pt)):
        raise ValueError(f"point {pt!r} has non-finite coordinates")
    if dim is not None and len(pt) != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {len(pt)}")
    return pt


def _coordinates(z, dim: int | None = None):
    """A point as its tuple, or the columns of rows (an array of shape
    ``[dim, m]`` or a tuple of ``dim`` arrays) unchanged: the argument of a
    formula that serves both."""
    if isinstance(z, np.ndarray) or isinstance(z, tuple) and z and isinstance(z[0], np.ndarray):
        if dim is not None and len(z) != dim:
            raise ValueError(f"expected the {dim} columns of rows, got {len(z)}")
        return z
    return as_point(z, dim)


def as_rows(rows, dim: int) -> np.ndarray:
    """Coerce an array-like of points to a complex array of shape ``[m, dim]``,
    checking that every row is finite."""
    z = np.asarray(rows, dtype=complex)
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"expected rows of dimension {dim}, got an array of shape {z.shape}")
    if not np.isfinite(z).all():  # the per-row reduction costs 4x more, so only on failure
        k = int(np.argmin(np.isfinite(z).all(axis=1)))
        raise ValueError(f"row {k} {tuple(z[k].tolist())} has non-finite coordinates")
    return z


_BARE_I = re.compile(r"(?<![0-9.])i")


def parse_complex_literal(s: str) -> complex:
    """Parse complex literals in ``a+bi`` notation (also accepts ``j``)."""
    t = s.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    if not t:
        raise ValueError("empty complex literal")
    t = _BARE_I.sub("1i", t).replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {s!r}") from exc


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}i"
    sign = "+" if z.imag > 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


# ---------------------------------------------------------------------------
# multitype weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Multitype:
    """Weight list ``(1, m_2, ..., m_n)``; coordinate ``z_k`` (k < n) carries
    weight ``1/m_{n+1-k}`` and the distinguished coordinate ``z_n`` weight 1."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Sequence) -> None:
        ent = tuple(Fraction(e) for e in entries)
        if len(ent) < 2:
            raise ValueError("a multitype needs at least two entries")
        if ent[0] != 1:
            raise ValueError("the first multitype entry must be 1")
        if any(m < 2 for m in ent[1:]):
            raise ValueError("multitype entries after the first must be >= 2")
        object.__setattr__(self, "entries", ent)
        # the dilations read the float weights on every call: convert once
        object.__setattr__(self, "_exponents", tuple(float(w) for w in self.tangential_weights()))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def tangential_weights(self) -> tuple[Fraction, ...]:
        """Weights of z_1, ..., z_{n-1} in order."""
        n = self.dim
        return tuple(Fraction(1) / self.entries[n - 1 - k] for k in range(n - 1))

    def tangential_exponents(self) -> tuple[float, ...]:
        return self._exponents


# ---------------------------------------------------------------------------
# weighted polynomials P('z, conj 'z)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Monomial ``coeff * z^alpha * conj(z)^beta`` in the tangential variables."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    coeff: complex

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")
        if any(a < 0 for a in self.alpha) or any(b < 0 for b in self.beta):
            raise ValueError("multi-indices must be nonnegative")
        if not cmath.isfinite(self.coeff):
            raise ValueError(f"coefficient {self.coeff!r} is not finite")


@dataclass(frozen=True)
class WeightedPolynomial:
    """Sparse real-valued polynomial in ``'z`` and ``conj 'z``.

    Terms are stored per monomial so weighted homogeneity is decidable
    exactly; real-valuedness is the conjugate-pair condition (for every
    term (alpha, beta, c) the term (beta, alpha, conj c) is present), which
    is not enforced here: :func:`poly_eval` checks that each value it
    computes is real and raises otherwise.
    """

    terms: tuple[Term, ...]
    nvars: int

    @classmethod
    def from_terms(cls, terms: Sequence[Term], nvars: int | None = None) -> "WeightedPolynomial":
        terms = list(terms)
        if not terms:
            raise ValueError("a polynomial needs at least one term")
        nv = nvars if nvars is not None else len(terms[0].alpha)
        merged: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
        for t in terms:
            if len(t.alpha) != nv:
                raise ValueError("inconsistent number of variables across terms")
            key = (t.alpha, t.beta)
            merged[key] = merged.get(key, 0j) + complex(t.coeff)
        kept = tuple(
            Term(a, b, c) for (a, b), c in sorted(merged.items()) if c != 0
        )
        if not kept:
            raise ValueError("polynomial is identically zero")
        return cls(kept, nv)

    def __add__(self, other: "WeightedPolynomial") -> "WeightedPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("cannot add polynomials in different numbers of variables")
        return WeightedPolynomial.from_terms(self.terms + other.terms, self.nvars)


def modulus_power(nvars: int, var: int, half_degree: int, coeff: float = 1.0) -> WeightedPolynomial:
    """The polynomial ``coeff * |z_var|^(2 m)`` (``var`` is zero-based)."""
    if not 0 <= var < nvars:
        raise ValueError("variable index out of range")
    idx = tuple(half_degree if k == var else 0 for k in range(nvars))
    return WeightedPolynomial.from_terms([Term(idx, idx, coeff)], nvars)


def _max(*values):
    """The largest of the values, elementwise when they are arrays."""
    return functools.reduce(np.maximum, values) if isinstance(values[0], np.ndarray) else max(values)


# largest imaginary part, relative to max(|Re P|, 1), of a real polynomial value
_IMAG_TOL = 1e-12


def _poly_value(poly: WeightedPolynomial, w):
    """``P`` at the point ``w`` (a tuple of complex numbers), or at every row
    whose columns ``w`` holds (``poly.nvars`` arrays), as checked real values."""
    total = 0j
    for t in poly.terms:
        m = t.coeff
        for c, a, b in zip(w, t.alpha, t.beta):
            if a:
                m *= c**a
            if b:
                m *= c.conjugate() ** b
        total += m
    bad = abs(total.imag) > _IMAG_TOL * _max(abs(total.real), 1.0)
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        first = complex(np.ravel(total)[np.argmax(bad)])
        raise ValueError(
            f"polynomial evaluated to a non-real value {first!r}; "
            "the term list is not conjugate-pair symmetric"
        )
    return total.real


def poly_eval(poly: WeightedPolynomial, w: Sequence[complex]) -> float:
    """Evaluate a polynomial, returning the (checked) real value."""
    w = tuple(complex(c) for c in w)
    if len(w) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} variables, got {len(w)}")
    return _poly_value(poly, w)


def symbolic_weight_check(poly: WeightedPolynomial, multitype: Multitype) -> bool:
    """Exact per-term check that every monomial has weighted degree one."""
    if poly.nvars != multitype.dim - 1:
        raise ValueError("polynomial and multitype dimensions do not match")
    weights = multitype.tangential_weights()
    one = Fraction(1)
    return all(
        sum((a + b) * wgt for a, b, wgt in zip(t.alpha, t.beta, weights)) == one
        for t in poly.terms
    )


# relative tolerance of numeric_scaling_check on P(delta^w . 'z) = delta P('z)
_SCALING_TOL = 1e-10


def numeric_scaling_check(
    poly: WeightedPolynomial,
    multitype: Multitype,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> bool:
    """Randomized check of ``P(delta^w . 'z) = delta P('z)`` for delta in (0, 2]."""
    if poly.nvars != multitype.dim - 1:
        raise ValueError("polynomial and multitype dimensions do not match")
    rng = rng if rng is not None else np.random.default_rng(0)
    exps = multitype.tangential_exponents()
    for _ in range(trials):
        delta = float(rng.uniform(0.0, 2.0)) or 1.0
        z = tuple(complex(a, b) for a, b in rng.normal(size=(poly.nvars, 2)))
        scaled = tuple(c * delta**e for c, e in zip(z, exps))
        base = poly_eval(poly, z)
        if abs(poly_eval(poly, scaled) - delta * base) > _SCALING_TOL * (1.0 + abs(base)):
            return False
    return True


def parse_polynomial(text: str) -> WeightedPolynomial:
    """Parse the line-based term format ``coeff a1 a2 ... | b1 b2 ...``."""
    terms: list[Term] = []
    nvars: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "|" not in line:
            raise ValueError(f"line {lineno}: missing '|' separator")
        left, right = line.split("|", 1)
        left_tokens = left.split()
        if not left_tokens:
            raise ValueError(f"line {lineno}: missing coefficient")
        coeff = parse_complex_literal(left_tokens[0])
        alpha = tuple(int(tok) for tok in left_tokens[1:])
        beta = tuple(int(tok) for tok in right.split())
        if nvars is None:
            nvars = len(alpha)
        if len(alpha) != nvars or len(beta) != nvars:
            raise ValueError(f"line {lineno}: inconsistent multi-index length")
        terms.append(Term(alpha, beta, coeff))
    if not terms:
        raise ValueError("no polynomial terms found")
    return WeightedPolynomial.from_terms(terms, nvars)


# ---------------------------------------------------------------------------
# domain variants
# ---------------------------------------------------------------------------
#
# Each variant owns its dimension, label, row sampler and one ``defining(z)``.
# ``z`` is a point tuple or the columns of rows (``rows.T``): the same
# formula text runs on Python numbers for a point and on numpy arrays for
# rows, with ``_max`` and ``_segment_distance`` picking the library by type.


def _segment_distance(z):
    """Euclidean distance from z to the closed segment [-1, 0] of the real axis."""
    x, y = z.real, z.imag
    if isinstance(z, np.ndarray):
        return np.hypot(x - np.clip(x, -1.0, 0.0), y)
    return math.hypot(x - min(max(x, -1.0), 0.0), y)


def _disc_rows(rng: np.random.Generator, shape) -> np.ndarray:
    """Points drawn uniformly from the unit disc, in an array of ``shape``."""
    r = np.sqrt(rng.uniform(size=shape))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=shape))


def random_unit_vectors(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniformly distributed unit vectors of ``C^n``, as rows.

    One ``normal((count, n, 2))`` draw, the same stream as ``count`` draws
    of ``normal((n, 2))``; each row is divided by the norm that
    ``np.linalg.norm`` gives it, bit for bit.  A zero draw becomes the
    first basis vector.
    """
    raw = rng.normal(size=(count, n, 2))
    re, im = raw[..., 0], raw[..., 1]
    # stacked dot products add up in the order np.linalg.norm uses
    norm = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
    zero = norm == 0.0
    raw[zero, 0, 0] = 1.0
    norm[zero] = 1.0
    return (raw / norm[:, None, None]).view(np.complex128)[..., 0]


def _disc_rows_inside(d, rng: np.random.Generator, m: int) -> np.ndarray:
    """``m`` rows drawn uniformly from the unit disc and kept where the
    planar domain ``d`` holds them, by rejection."""
    parts, need = [], m
    while need:
        z = _disc_rows(rng, need)
        z = z[d.defining((z,)) < 0.0]
        parts.append(z)
        need -= len(z)
    return np.concatenate(parts)[:, None]


def _rows_below_graph(
    d, rng: np.random.Generator, m: int, spread: float, depth: float, height: float
) -> np.ndarray:
    """``m`` rows of ``{2 Re z_n + P('z) < 0}`` (``Siegel``, ``WeightedModel``):
    normal tangential coordinates times ``spread``, then ``z_n`` an
    exponential depth of mean ``depth`` below the boundary, with a normal
    imaginary part of scale ``height``."""
    tang = rng.normal(size=(m, d.dim - 1, 2)).view(np.complex128)[..., 0] * spread
    below = rng.exponential(scale=depth, size=m)
    graph = d.defining((*tang.T, 0.0))  # the defining value at z_n = 0 is P('z)
    zn = -(graph / 2.0 + below) + 1j * rng.normal(scale=height, size=m)
    return np.column_stack((tang, zn))


@dataclass(frozen=True)
class Ball:
    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def label(self) -> str:
        return f"ball{self.dim}"

    def defining(self, z):
        return sum(abs(c) ** 2 for c in z) - 1.0

    def sample_rows(self, rng: np.random.Generator, m: int) -> np.ndarray:
        radius = rng.uniform(size=m) ** (1.0 / (2 * self.dim))
        return random_unit_vectors(self.dim, m, rng) * radius[:, None]


@dataclass(frozen=True)
class Polydisc:
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def label(self) -> str:
        return f"polydisc{self.dim}"

    def defining(self, z):
        return _max(*(abs(c) ** 2 for c in z)) - 1.0

    def sample_rows(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return _disc_rows(rng, (m, self.dim))


@dataclass(frozen=True)
class UpperHalfPlane:
    dim = 1
    label = "halfplane"

    def defining(self, z):
        return -z[0].imag

    def sample_rows(self, rng: np.random.Generator, m: int) -> np.ndarray:
        x = rng.normal(scale=2.0, size=m)
        return (x + 1j * np.exp(rng.normal(size=m)))[:, None]


@dataclass(frozen=True)
class HalfPlaneC:
    """Planar half-plane ``{z : 2 Re(a z) - 1 < 0}`` with linear part ``a``."""

    linear_coeff: complex
    dim = 1

    def __post_init__(self) -> None:
        if self.linear_coeff == 0:
            raise ValueError("the linear coefficient must be nonzero")

    @property
    def label(self) -> str:
        return f"halfplane-linear({format_complex(self.linear_coeff)})"

    def defining(self, z):
        return 2.0 * (self.linear_coeff * z[0]).real - 1.0

    def to_halfplane(self, z):
        """The affine bijection ``z -> i (1/2 - a z)`` onto the upper half-plane."""
        return 1j * (0.5 - self.linear_coeff * z)

    def from_halfplane(self, w):
        """The inverse of :meth:`to_halfplane`, ``w -> (1/2 + i w) / a``."""
        return (0.5 + 1j * w) / self.linear_coeff

    def sample_rows(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return self.from_halfplane(UpperHalfPlane().sample_rows(rng, m))


@dataclass(frozen=True)
class PuncturedDisc:
    dim = 1
    label = "punctured"

    def defining(self, z):
        m = abs(z[0])
        return _max(m * m - 1.0, -m)

    def sample_rows(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return _disc_rows_inside(self, rng, m)


@dataclass(frozen=True)
class SlitDisc:
    dim = 1
    label = "slit"

    def defining(self, z):
        m = abs(z[0])
        return _max(m * m - 1.0, -_segment_distance(z[0]))

    def sample_rows(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return _disc_rows_inside(self, rng, m)


@dataclass(frozen=True)
class Siegel:
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("the Siegel domain needs dimension >= 2")

    @property
    def label(self) -> str:
        return f"siegel{self.dim}"

    def defining(self, z):
        return 2.0 * z[-1].real + sum(abs(c) ** 2 for c in z[:-1])

    def sample_rows(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return _rows_below_graph(self, rng, m, spread=1.0, depth=0.5, height=2.0)


@dataclass(frozen=True)
class WeightedModel:
    """Model domain ``{z : 2 Re z_n + P('z, conj 'z) < 0}``."""

    multitype: Multitype
    poly: WeightedPolynomial

    def __post_init__(self) -> None:
        if self.poly.nvars != self.multitype.dim - 1:
            raise ValueError("polynomial and multitype dimensions do not match")

    @property
    def dim(self) -> int:
        return self.multitype.dim

    @property
    def label(self) -> str:
        return f"weighted-model(dim={self.dim})"

    def defining(self, z):
        return 2.0 * z[-1].real + _poly_value(self.poly, z[:-1])

    def sample_rows(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return _rows_below_graph(self, rng, m, spread=0.7, depth=0.3, height=1.0)


ModelDomain = Union[
    Ball, Polydisc, UpperHalfPlane, HalfPlaneC, PuncturedDisc, SlitDisc, Siegel, WeightedModel
]


def defining_value(d: ModelDomain, p) -> float:
    """Canonical signed defining function; negative exactly on the domain."""
    return d.defining(as_point(p, d.dim))


def contains(d: ModelDomain, p) -> bool:
    """True iff the defining inequality holds strictly."""
    return defining_value(d, p) < 0.0


def sample_point(d: ModelDomain, rng: np.random.Generator) -> Point:
    """Draw one interior point of the domain: the first row of
    :func:`sample_rows`."""
    return tuple(d.sample_rows(rng, 1)[0].tolist())


def defining_rows(d: ModelDomain, rows) -> np.ndarray:
    """:func:`defining_value` of every row of ``rows`` (shape ``[m, dim]``),
    to rounding."""
    return d.defining(as_rows(rows, d.dim).T)


def contains_rows(d: ModelDomain, rows) -> np.ndarray:
    """:func:`contains` of every row: one bool per row."""
    return defining_rows(d, rows) < 0.0


def sample_rows(d: ModelDomain, rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw ``m`` interior points as rows; the distribution is the variant's:
    uniform on ``Ball``, ``Polydisc``, ``PuncturedDisc`` and ``SlitDisc``,
    spread over the half-planes and below the graph of the Siegel and weighted
    models."""
    return d.sample_rows(rng, m)
