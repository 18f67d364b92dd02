"""Tests for domain membership, defining functions and weighted polynomials."""

import re
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biholo import domains
from biholo.domains import (
    Ball,
    HalfPlaneC,
    ModelDomain,
    Multitype,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    Term,
    UpperHalfPlane,
    WeightedModel,
    WeightedPolynomial,
    as_point,
    contains,
    contains_rows,
    defining_rows,
    defining_value,
    format_complex,
    modulus_power,
    numeric_scaling_check,
    parse_complex_literal,
    parse_polynomial,
    poly_eval,
    random_unit_vectors,
    sample_point,
    sample_rows,
    symbolic_weight_check,
)


class TestMembership:
    """Defining inequalities of the individual variants."""

    def test_polydisc_center(self):
        assert contains(Polydisc(2), (0j, 0j))

    def test_siegel_basepoint(self):
        assert contains(Siegel(2), (0j, -1.0 + 0j))
        assert defining_value(Siegel(2), (0j, -1.0 + 0j)) == -2.0

    def test_puncture_is_excluded(self):
        assert not contains(PuncturedDisc(), 0j)
        assert contains(PuncturedDisc(), 0.5 + 0j)

    def test_ball_defining_value(self):
        assert defining_value(Ball(1), 0.5) == pytest.approx(-0.75, abs=1e-15)

    def test_weighted_model_defining_value(self):
        model = WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2))
        assert defining_value(model, (1.0 + 0j, -1.0 + 0j)) == pytest.approx(-1.0, abs=1e-15)

    def test_halfplane_variants(self):
        assert contains(UpperHalfPlane(), 1j)
        assert not contains(UpperHalfPlane(), -1j)
        hp = HalfPlaneC(1.0)
        assert contains(hp, 0j) and not contains(hp, 1.0 + 0j)
        assert defining_value(hp, 0.25) == pytest.approx(-0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(Ball(2), 0.5)

    def test_slit_disc_excludes_the_slit(self):
        assert not contains(SlitDisc(), -0.5 + 0j)
        assert not contains(SlitDisc(), 0j)
        assert contains(SlitDisc(), -0.5 + 0.1j)
        assert contains(SlitDisc(), 0.5 + 0j)

    def test_slit_is_punctured_minus_interval(self):
        """Set identity on a grid crossing the real axis."""
        axis = np.linspace(-1.2, 1.2, 241)
        for a in axis:
            for b in (-0.4, 0.0, 0.4):
                z = complex(a, b)
                expected = contains(PuncturedDisc(), z) and not (
                    z.imag == 0.0 and -1.0 < z.real <= 0.0
                )
                assert contains(SlitDisc(), z) == expected

    def test_defining_sign_matches_membership_on_samples(self):
        rng = np.random.default_rng(1)
        variants = [Ball(3), Polydisc(2), Siegel(3), PuncturedDisc(), SlitDisc(), HalfPlaneC(2.0 - 1j)]
        for dom in variants:
            for _ in range(500):
                p = sample_point(dom, rng)
                assert defining_value(dom, p) < 0.0
                assert contains(dom, p)


NON_FINITE = [
    complex(float("nan"), 0.0),
    complex(0.5, float("nan")),
    complex(float("inf"), 0.0),
    complex(0.0, float("-inf")),
    complex(float("-inf"), 1.0),
    complex(0.0, float("inf")),
    float("nan"),
    float("-inf"),
]


class TestAsPoint:
    """The one scalar coercion: a tuple of complex numbers, finite and of the
    asked dimension."""

    @pytest.mark.parametrize(
        "point",
        [0.5, 2, 0.5j, (0.5, 1j), [0.5, 1j], np.array([0.5, 1j]), np.array([1.0, 2.0])],
        ids=["float", "int", "complex", "tuple", "list", "complex-array", "float-array"],
    )
    def test_coerces_to_a_tuple_of_complex(self, point):
        pt = as_point(point)
        assert type(pt) is tuple and all(type(c) is complex for c in pt)
        assert pt == tuple(complex(c) for c in np.atleast_1d(point))

    @pytest.mark.parametrize(
        "scalar",
        [np.float32(0.3), np.int64(0), np.complex64(0.3 + 0.1j), np.float64(0.5), np.uint8(1)],
        ids=["float32", "int64", "complex64", "float64", "uint8"],
    )
    def test_coerces_a_numpy_scalar(self, scalar):
        """A numpy scalar is a number, not a sequence: all but float64 (a
        float) raised TypeError (not iterable)."""
        assert as_point(scalar) == (complex(scalar),)
        assert contains(PuncturedDisc(), scalar) == contains(PuncturedDisc(), complex(scalar))

    def test_a_non_number_that_is_not_a_sequence_still_raises(self):
        with pytest.raises(TypeError, match="not iterable"):
            as_point(None)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    @pytest.mark.parametrize(
        "wrap",
        [lambda c: c, lambda c: (0j, c), lambda c: [c, 0j], lambda c: np.array([0j, c])],
        ids=["scalar", "tuple", "list", "array"],
    )
    def test_rejects_non_finite_coordinates(self, wrap, bad):
        with pytest.raises(ValueError, match=r"^point \(.*\) has non-finite coordinates$"):
            as_point(wrap(bad))

    @pytest.mark.parametrize("empty", [(), [], np.array([], dtype=complex)], ids=["tuple", "list", "array"])
    def test_rejects_an_empty_point(self, empty):
        with pytest.raises(ValueError, match="^a point needs at least one coordinate$"):
            as_point(empty)

    def test_dimension_message(self):
        with pytest.raises(ValueError, match="^expected a point of dimension 2, got 1$"):
            as_point(0.5, 2)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    @pytest.mark.parametrize(
        "wrap, dim",
        [(lambda c: c, 2), (lambda c: (0j, c), 3), (lambda c: [c, 0j, 0j], 1)],
        ids=["scalar", "tuple", "list"],
    )
    def test_non_finite_is_named_before_the_dimension(self, wrap, dim, bad):
        """A point both non-finite and of the wrong dimension raises the
        non-finite message: the checks run empty, non-finite, dimension."""
        with pytest.raises(ValueError, match=r"^point \(.*\) has non-finite coordinates$"):
            as_point(wrap(bad), dim)

    @pytest.mark.parametrize("empty", [(), [], np.array([], dtype=complex)], ids=["tuple", "list", "array"])
    def test_empty_is_named_before_the_dimension(self, empty):
        with pytest.raises(ValueError, match="^a point needs at least one coordinate$"):
            as_point(empty, 2)

    @pytest.mark.parametrize(
        "text", ["12", b"12", bytearray(b"12"), np.str_("12"), "", "0.5"], ids=repr
    )
    @pytest.mark.parametrize("dim", [None, 1, 2])
    def test_rejects_text(self, text, dim):
        """A string is not a sequence of coordinates: ``"12"`` gave
        ``(1, 2)`` and ``b"12"`` the character codes ``(49, 50)``."""
        name = type(text).__name__
        with pytest.raises(TypeError, match=f"^a point is a number or a sequence of numbers, not {name}$"):
            as_point(text, dim)

    def test_a_namedtuple_is_a_sequence(self):
        """A tuple subclass takes the tuple path and gives a plain tuple."""
        pair = typing.NamedTuple("Pair", [("x", complex), ("y", complex)])(0.5, 1j)
        pt = as_point(pair, 2)
        assert type(pt) is tuple and pt == (0.5 + 0j, 1j)


# one instance of every variant, with the dimension and the label that CLI
# records print
CONTRACT = {
    Ball: (Ball(2), 2, "ball2"),
    Polydisc: (Polydisc(3), 3, "polydisc3"),
    Siegel: (Siegel(2), 2, "siegel2"),
    UpperHalfPlane: (UpperHalfPlane(), 1, "halfplane"),
    HalfPlaneC: (HalfPlaneC(1.0 + 0.5j), 1, "halfplane-linear(1.0+0.5i)"),
    PuncturedDisc: (PuncturedDisc(), 1, "punctured"),
    SlitDisc: (SlitDisc(), 1, "slit"),
    WeightedModel: (WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2)), 2, "weighted-model(dim=2)"),
}
# Quartiles (25%, 50%, 75%) of the real and of the imaginary part of each
# coordinate of 10^6 points drawn from the CONTRACT instances by the scalar
# point samplers the row samplers replaced (numpy default_rng(2024)).
POINT_QUARTILES = {
    Ball: (
        [[-0.309, 0.0, 0.309], [-0.309, -0.0, 0.309]],
        [[-0.308, 0.001, 0.31], [-0.308, 0.0, 0.309]],
    ),
    Polydisc: (
        [[-0.405, -0.001, 0.404], [-0.404, -0.001, 0.404], [-0.405, -0.001, 0.403]],
        [[-0.403, 0.001, 0.404], [-0.405, -0.001, 0.404], [-0.405, -0.0, 0.403]],
    ),
    Siegel: (
        [[-0.675, -0.001, 0.676], [-2.013, -1.231, -0.694]],
        [[-0.674, 0.001, 0.676], [-1.345, 0.003, 1.348]],
    ),
    UpperHalfPlane: ([[-1.346, 0.002, 1.35]], [[0.509, 0.999, 1.962]]),
    HalfPlaneC: ([[-1.489, -0.581, 0.148]], [[-0.743, 0.403, 1.577]]),
    PuncturedDisc: ([[-0.405, -0.002, 0.403]], [[-0.405, 0.001, 0.405]]),
    SlitDisc: ([[-0.405, -0.002, 0.403]], [[-0.405, 0.001, 0.405]]),
    WeightedModel: (
        [[-0.472, -0.001, 0.473], [-1.323, -0.608, -0.277]],
        [[-0.472, 0.001, 0.473], [-0.672, 0.001, 0.674]],
    ),
}


class TestVariantContract:
    """What every variant owns: dimension, label, sampler, defining function."""

    @pytest.mark.parametrize("kind", typing.get_args(ModelDomain), ids=lambda kind: kind.__name__)
    def test_variant_owns_its_facts(self, kind):
        dom, dim, label = CONTRACT[kind]  # a new variant needs an entry
        assert type(dom) is kind
        assert (dom.dim, dom.label) == (dim, label)
        rows = sample_rows(dom, np.random.default_rng(4), 300)
        assert rows.shape == (300, dim) and contains_rows(dom, rows).all()
        assert all(contains(dom, tuple(r)) for r in rows)
        # a point is the first row of a one-row draw
        point = sample_point(dom, np.random.default_rng(4))
        assert point == tuple(sample_rows(dom, np.random.default_rng(4), 1)[0])
        assert all(type(c) is complex for c in point)

    @pytest.mark.parametrize("kind", typing.get_args(ModelDomain), ids=lambda kind: kind.__name__)
    def test_row_sampler_has_the_point_law(self, kind):
        """The quartiles of every real coordinate of 100,000 rows lie within
        2.5% of that coordinate's interquartile range (about four standard
        errors) of the point sampler's, in ``POINT_QUARTILES``."""
        dom = CONTRACT[kind][0]
        rows = sample_rows(dom, np.random.default_rng(5), 100_000)
        expected = np.array(POINT_QUARTILES[kind])  # [re/im, coordinate, quartile]
        got = np.moveaxis(np.quantile(np.stack([rows.real, rows.imag]), [0.25, 0.5, 0.75], axis=1), 0, -1)
        iqr = expected[..., 2] - expected[..., 0]
        assert (np.abs(got - expected).max(axis=-1) <= 0.025 * iqr).all()

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Ball(0), "dimension must be >= 1"),
            (lambda: Polydisc(0), "dimension must be >= 1"),
            (lambda: Siegel(1), "the Siegel domain needs dimension >= 2"),
        ],
        ids=["Ball(0)", "Polydisc(0)", "Siegel(1)"],
    )
    def test_constructor_rejects_bad_dimension(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize(
        "make", [lambda: Ball(2.5), lambda: Ball(True), lambda: Polydisc(2.0), lambda: Siegel(2.5)],
        ids=["Ball(2.5)", "Ball(True)", "Polydisc(2.0)", "Siegel(2.5)"],
    )
    def test_constructor_rejects_a_dimension_that_is_not_an_integer(self, make):
        """A float or bool dimension would build a label such as ``ball2.5``
        on which every distance fails."""
        with pytest.raises(ValueError, match="dimension must be an integer"):
            make()

    def test_constructor_takes_a_numpy_integer_dimension(self):
        assert Ball(np.int64(2)) == Ball(2) and Siegel(np.int32(3)).label == "siegel3"

    @pytest.mark.parametrize("coeff", [0, float("nan"), float("inf"), complex(1.0, -float("inf"))])
    def test_halfplane_needs_a_finite_nonzero_coefficient(self, coeff):
        """``HalfPlaneC(nan)`` would contain no point, ``HalfPlaneC(inf)``
        -5 but not 0."""
        with pytest.raises(ValueError, match="finite and nonzero"):
            HalfPlaneC(coeff)


ROW_VARIANTS = [
    Ball(2),
    Polydisc(2),
    UpperHalfPlane(),
    HalfPlaneC(1.0 + 0.5j),
    PuncturedDisc(),
    SlitDisc(),
    Siegel(2),
    WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2)),
]


def _near_boundary(dom, rng, m: int) -> np.ndarray:
    """Rows whose defining value is within about 2e-12 of zero, on both
    sides, at least 1e-13 away from it."""
    eps = rng.choice([-1.0, 1.0], size=m) * rng.uniform(1e-13, 1e-12, size=m)
    t = rng.uniform(-1.5, 1.5, size=m)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
    if isinstance(dom, Ball):
        return random_unit_vectors(dom.dim, m, rng) * (1.0 + eps)[:, None]
    if isinstance(dom, Polydisc):
        z = 0.99 * sample_rows(dom, rng, m)
        z[np.arange(m), rng.integers(dom.dim, size=m)] = phase * (1.0 + eps)
        return z
    if isinstance(dom, UpperHalfPlane):
        return (t + 1j * eps)[:, None]
    if isinstance(dom, HalfPlaneC):
        return ((0.5 + eps + 1j * t) / dom.linear_coeff)[:, None]
    if isinstance(dom, PuncturedDisc):
        # the unit circle, and the puncture (0 itself is outside)
        return np.where(t > 0, phase * (1.0 + eps), phase * np.abs(eps))[:, None]
    if isinstance(dom, SlitDisc):
        # the slit, its two ends, and the unit circle
        ends = np.where(t > 0, 0.0, -1.0) + eps
        z = np.select([t < -0.5, t < 0.5], [-np.abs(t) / 1.5 + 1j * eps, ends], phase * (1.0 + eps))
        return z[:, None]
    z1 = phase * rng.uniform(0.0, 1.0, size=m)  # |z1| <= 1 keeps rounding far below eps
    tangential = np.abs(z1) ** (2 if isinstance(dom, Siegel) else 4)
    return np.stack([z1, (eps - tangential) / 2.0 + 1j * t], axis=1)


class TestRows:
    """The row kernels against the scalar functions they batch."""

    @pytest.mark.parametrize("dom", ROW_VARIANTS, ids=repr)
    def test_contains_rows_matches_contains(self, dom):
        rng = np.random.default_rng(5)
        n = dom.dim
        bulk = rng.uniform(-1.6, 1.6, size=(5_000, n)) + 1j * rng.uniform(-1.6, 1.6, size=(5_000, n))
        edge = _near_boundary(dom, rng, 5_000)
        rows = np.concatenate([bulk, edge])
        scalar = [contains(dom, tuple(r)) for r in rows]
        assert contains_rows(dom, rows).tolist() == scalar
        # the edge rows fall on both sides, each within 2e-12 of the boundary
        assert 1_000 < sum(scalar[5_000:]) < 4_000
        values = defining_rows(dom, edge)
        assert np.abs(values).max() <= 2.5e-12
        assert values.tolist() == pytest.approx([defining_value(dom, tuple(r)) for r in edge], abs=1e-15)

    def test_non_finite_row_raises(self):
        rows = np.zeros((4, 2), dtype=complex)
        rows[2, 1] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="row 2 .* non-finite"):
            contains_rows(Ball(2), rows)
        with pytest.raises(ValueError, match="dimension 2"):
            contains_rows(Ball(2), np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "dom", [Ball(3), Polydisc(2), PuncturedDisc(), SlitDisc(), Siegel(3), HalfPlaneC(2.0 - 1j)], ids=repr
    )
    def test_sample_rows_lie_inside(self, dom):
        rows = sample_rows(dom, np.random.default_rng(6), 3_000)
        assert rows.shape == (3_000, dom.dim)
        assert contains_rows(dom, rows).all()

    def test_unit_vectors_keep_the_scalar_stream(self):
        """One draw of shape (count, n, 2) gives what count draws of (n, 2)
        gave, normalized by np.linalg.norm, bit for bit."""
        rows = random_unit_vectors(3, 500, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for row in rows:
            v = rng.normal(size=(3, 2)).view(np.complex128).ravel()
            assert row.tolist() == [complex(c) / float(np.linalg.norm(v)) for c in v]


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("i", 1j),
            ("-i", -1j),
            ("2i", 2j),
            ("1+2i", 1 + 2j),
            ("0.5-0.1i", 0.5 - 0.1j),
            ("-0.04321", -0.04321),
            ("1e-3i", 1e-3j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex_literal(text) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex_literal("spam")

    @given(st.complex_numbers(max_magnitude=1e6, allow_infinity=False, allow_nan=False))
    @settings(max_examples=200)
    def test_format_parse_round_trip(self, z):
        assert parse_complex_literal(format_complex(z)) == z


class TestMultitype:
    def test_weights_reverse_the_entries(self):
        mt = Multitype((1, 2, 4))
        assert mt.tangential_weights() == (Fraction(1, 4), Fraction(1, 2))

    def test_leading_entry_must_be_one(self):
        with pytest.raises(ValueError):
            Multitype((2, 4))

    def test_entries_below_two_rejected(self):
        with pytest.raises(ValueError):
            Multitype((1, 1))


class TestPolyEval:
    def test_square_modulus(self):
        assert poly_eval(modulus_power(1, 0, 1), (2j,)) == pytest.approx(4.0, abs=1e-15)

    def test_fourth_power(self):
        assert poly_eval(modulus_power(1, 0, 2), (1 + 1j,)) == pytest.approx(4.0, abs=1e-12)

    def test_sum_of_squares(self):
        p = modulus_power(2, 0, 1) + modulus_power(2, 1, 1)
        assert poly_eval(p, (1.0 + 0j, 2j)) == pytest.approx(5.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poly_eval(modulus_power(2, 0, 1), (1j,))

    def test_malformed_polynomial_raises(self):
        lopsided = WeightedPolynomial.from_terms([Term((2,), (1,), 1.0)], 1)
        with pytest.raises(ValueError, match="conjugate"):
            poly_eval(lopsided, (0.5 + 0.5j,))

    @pytest.mark.parametrize(
        "point",
        [(float("nan"),), (float("inf"),), (complex(0.5, float("-inf")),), (1j, float("nan"))],
        ids=["nan", "inf", "imaginary-inf", "second-nan"],
    )
    def test_non_finite_point_raises(self, point):
        """A NaN coordinate once evaluated to NaN and an infinite one raised
        ``OverflowError``; both are rejected as ``as_point`` rejects them."""
        poly = modulus_power(len(point), 0, 1)
        with pytest.raises(ValueError, match="non-finite coordinates"):
            poly_eval(poly, point)

    @pytest.mark.parametrize(
        "columns,message",
        [
            (np.array([np.nan]), "point ((nan+0j),) has non-finite coordinates"),
            (np.array([[np.nan, 1.0]]), "point ((nan+0j),) has non-finite coordinates"),
            (np.array([[0.5, 1j, complex(0.0, np.inf), np.nan]]), "point (infj,) has non-finite coordinates"),
        ],
        ids=["one-entry", "first-row", "third-row"],
    )
    def test_non_finite_columns_raise_the_point_error(self, columns, message):
        """Columns are checked for finite entries as a point is, and the
        first bad row is named as the point."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            poly_eval(modulus_power(1, 0, 1), columns)

    def test_columns_give_one_value_per_row(self):
        p = modulus_power(2, 0, 1) + modulus_power(2, 1, 1)
        columns = np.array([[1.0, 2j, 0.5], [2j, 0.0, 0.5j]])
        assert poly_eval(p, columns).tolist() == [poly_eval(p, tuple(w)) for w in columns.T.tolist()]

    def test_columns_must_match_the_variables(self):
        with pytest.raises(ValueError, match="expected the 2 columns of rows, got 1"):
            poly_eval(modulus_power(2, 0, 1), np.ones((1, 4), dtype=complex))

    def test_a_non_real_row_raises_the_point_error(self):
        """Of columns, the first row's value that is not real is named in
        the point's message, as a Python number."""
        lopsided = WeightedPolynomial.from_terms([Term((2,), (1,), 1.0)], 1)
        columns = np.array([[0.5, 0.5 + 0.5j, 0.25j]])
        with pytest.raises(ValueError, match=r"^polynomial evaluated to a non-real value \(0\.25\+0\.25j\); "):
            poly_eval(lopsided, columns)

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"), complex(1.0, float("nan"))])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="not finite"):
            Term((2,), (2,), coeff)

    @pytest.mark.parametrize(
        "alpha,beta",
        [((1.5,), (0.5,)), ((True,), (True,)), ((-1,), (3,)), ((2,), ("2",)), ((np.float64(2.0),), (2,))],
        ids=["half-integers", "bools", "negative", "string", "numpy-float"],
    )
    def test_multi_indices_must_be_nonnegative_integers(self, alpha, beta):
        """Half-integer indices would pass the weight check under (1, 2):
        ``|z| Re z`` as a weight-one "polynomial"."""
        with pytest.raises(ValueError, match="^multi-indices must be nonnegative integers"):
            Term(alpha, beta, 0.5)

    def test_numpy_integer_indices_accepted(self):
        assert Term((np.int64(2),), (np.int32(2),), 1.0).alpha == (2,)

    def test_nan_coefficient_is_not_parsed(self):
        with pytest.raises(ValueError, match="not finite"):
            parse_polynomial("nan 2 | 2\n")

    def test_conjugate_pairs_evaluate_real(self):
        rng = np.random.default_rng(3)
        mixed = WeightedPolynomial.from_terms(
            [Term((2,), (1,), 0.5 + 0.25j), Term((1,), (2,), 0.5 - 0.25j)], 1
        )
        for _ in range(2000):
            w = (complex(rng.normal(), rng.normal()),)
            poly_eval(mixed, w)  # must not raise


def assert_weight_one(poly, multitype, expected):
    """The production gate and its oracle each give the stated verdict."""
    assert symbolic_weight_check(poly, multitype) is expected
    assert numeric_scaling_check(poly, multitype) is expected


class TestHomogeneity:
    def test_square_modulus_weight_one(self):
        assert_weight_one(modulus_power(1, 0, 1), Multitype((1, 2)), True)

    def test_fourth_power_weight_one(self):
        assert_weight_one(modulus_power(1, 0, 2), Multitype((1, 4)), True)

    def test_cubic_encoding_fails(self):
        """alpha=(2), beta=(1) plus its conjugate has weight 3/2 for (1, 2)."""
        cubic = WeightedPolynomial.from_terms(
            [Term((2,), (1,), 1.0), Term((1,), (2,), 1.0)], 1
        )
        assert_weight_one(cubic, Multitype((1, 2)), False)

    def test_symbolic_and_numeric_agree_on_random_polynomials(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            mt = Multitype((1, 2 * m))
            good = modulus_power(1, 0, m)
            bad = good + modulus_power(1, 0, max(1, m - 1), 0.5)
            assert symbolic_weight_check(good, mt) == numeric_scaling_check(good, mt, 50, rng)
            assert symbolic_weight_check(bad, mt) == numeric_scaling_check(bad, mt, 200, rng)

    def test_numeric_check_draws_the_deltas_then_the_points(self, monkeypatch):
        """One draw of ``trials`` deltas, then one of ``trials`` points, as
        the columns of the first evaluation."""
        evaluated = []
        monkeypatch.setattr(domains, "poly_eval", lambda poly, w: evaluated.append(w) or poly_eval(poly, w))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        assert numeric_scaling_check(modulus_power(2, 0, 1) + modulus_power(2, 1, 1), Multitype((1, 2, 2)), 30, rng)
        twin.uniform(0.0, 2.0, size=30)
        points = twin.normal(size=(30, 2, 2)).view(np.complex128)[..., 0]
        assert np.array_equal(evaluated[0], points.T)
        assert rng.uniform() == twin.uniform()

    @pytest.mark.parametrize("trials", [0, -3])
    def test_numeric_check_needs_a_trial(self, trials):
        """With no trial the check would pass an inhomogeneous polynomial."""
        inhomogeneous = modulus_power(1, 0, 1) + modulus_power(1, 0, 2)
        with pytest.raises(ValueError, match="at least one trial"):
            numeric_scaling_check(inhomogeneous, Multitype((1, 2)), trials=trials)

    def test_two_variable_sum(self):
        p = modulus_power(2, 0, 1) + modulus_power(2, 1, 1)
        assert_weight_one(p, Multitype((1, 2, 2)), True)


class TestTextFormat:
    def test_parse_simple(self):
        p = parse_polynomial("1.0 2 | 2\n")
        assert p == modulus_power(1, 0, 2)

    def test_complex_coefficients(self):
        p = parse_polynomial("0.5+0.25i 2 | 1\n0.5-0.25i 1 | 2\n")
        assert p == WeightedPolynomial.from_terms(
            [Term((2,), (1,), 0.5 + 0.25j), Term((1,), (2,), 0.5 - 0.25j)], 1
        )

    def test_rejects_missing_separator(self):
        with pytest.raises(ValueError, match=r"\|"):
            parse_polynomial("1.0 2 2\n")
