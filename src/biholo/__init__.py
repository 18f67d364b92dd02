"""Hyperbolic metrics and biholomorphic invariants on model domains.

The package computes the Kobayashi distance on a family of model domains,
the Fridman invariant and squeezing function where they admit closed forms
or computable bounds, and the boundary-scaling limits that tie the two
invariants to boundary geometry.  Every closed form is paired with a
brute-force oracle (see :mod:`biholo.verify` and the test suite).
"""

from .hyperbolic import (
    MetricMode,
    disc_distance,
    halfplane_distance,
    halfplane_distance_acosh,
    vertical_line_distance,
)
from .domains import (
    Ball,
    HalfPlaneC,
    ModelDomain,
    Multitype,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    Term,
    UnsupportedDomainError,
    UpperHalfPlane,
    WeightedModel,
    WeightedPolynomial,
    contains,
    contains_rows,
    defining_rows,
    defining_value,
    modulus_power,
    parse_polynomial,
    poly_eval,
)
from .covering import (
    SlitMapError,
    build_slit_map,
    deck_minimum,
    principal_lift,
    punctured_distance,
    slit_distance,
)
from .metrics import kobayashi_distance
from .invariants import (
    BoundEstimate,
    EmbeddingWitness,
    EstimateReport,
    RadiusSearch,
    fridman_bounds_punctured,
    fridman_exact,
    fridman_upper_from_embedding,
    squeezing_exact,
    squeezing_lower_from_embedding,
)
from .scaling import (
    BoundaryApproach,
    ScaledFamily,
    ball_inclusion_check,
    convergence_experiment,
    hausdorff_check,
    invariance_check,
    make_anisotropic,
    make_isotropic,
)

__version__ = "0.1.0"
