"""``distance``: a seeded stream of ``metrics.kobayashi_distance`` queries.

Why: the distance layers (``hyperbolic``, ``covering``, the ``metrics``
dispatch, and ``domains.as_point``/``contains`` at entry) do nearly all the
work; ``invariants`` and ``scaling`` do none.  Punctured queries enumerate
201 deck translates and cost ~50x the other seven variants, so they set
``op_p99_ms``.

Inputs: ``POOL`` queries in equal shares over the 8 variants with a
distance, half in each ``MetricMode``, shuffled; one pass runs the whole
pool.  Base points range from the interior to ``1e-6`` from the boundary;
the second point sits at a separation drawn log-uniform from ``1e-12`` to
``0.5`` of the base point's distance to the boundary, so the pair stays
inside the domain.

Check: every result against a 40-digit mpmath reference
(``bench/reference.py``).  An op fails if it raises, returns a non-finite
value or misses the reference by more than ``ATOL * (1 + ref)``: a wrong
formula, branch, deck translate or mode factor.  Separately,
``rel_miss_ratio`` counts results that miss a ``1e-9`` relative tolerance:
the cancellation in the half-plane, ball and deck closed forms (ROADMAP
item 1) shows there, and close pairs are kept so that it does.
"""

from __future__ import annotations

import math

import numpy as np

from biholo import (
    Ball,
    HalfPlaneC,
    MetricMode,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    UpperHalfPlane,
    metrics,
)

from harness import Check, OpError

NAME = "distance"
WHY = (
    "Chosen because the distance layers (hyperbolic, covering, metrics dispatch, "
    "domains.as_point/contains) do nearly all the work and invariants/scaling none."
)
PREDICTIONS = {
    "item 1 (stable closed forms)": "rel_miss_ratio down; op_cost_ref, op_p50_ms unchanged",
    "item 2 (closed-form deck selection)": "op_cost_ref down, ops_per_s up, op_p99_ms down (punctured 674 -> ~9 us)",
    "item 3 (observability)": "no metric worse",
    "item 4 (batch kernels)": "op_p50_ms not worse (scalar one-row wrappers must stay cheap)",
}

HALFPLANE_C_COEFF = 1.0 + 0.5j
VARIANTS = ("halfplane", "disc", "ball2", "polydisc3", "punctured", "slit", "siegel2", "halfplaneC")
DOMAINS = {
    "halfplane": UpperHalfPlane(),
    "disc": Ball(1),
    "ball2": Ball(2),
    "polydisc3": Polydisc(3),
    "punctured": PuncturedDisc(),
    "slit": SlitDisc(),
    "siegel2": Siegel(2),
    "halfplaneC": HalfPlaneC(HALFPLANE_C_COEFF),
}
POOL = 2048
SEPARATION = (1e-12, 0.5)  # share of the base point's distance to the boundary
DEPTH = (1e-6, 1.0)  # base point's distance to the boundary (or its scale)

# A result is wrong, not merely imprecise, when it misses the reference by
# more than this.  Cancellation in the closed forms costs up to
# ~sqrt(eps / depth) absolute near the boundary: 4e-4 is the worst seen
# (slit disc next to -1, over 30 seeds), a Siegel pair of identical points
# reads 1.2e-4.
ATOL = 1e-2
RTOL = 1e-9  # the relative accuracy ROADMAP item 1 asks of every closed form


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _unit(rng: np.random.Generator, n: int) -> tuple:
    v = rng.normal(size=(n, 2)).view(np.complex128).ravel()
    v = v / np.linalg.norm(v)
    return tuple(complex(c) for c in v)


def _phase(rng: np.random.Generator) -> complex:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(t), math.sin(t))


def _segment_distance(z: complex) -> float:
    if z.real > 0:
        return abs(z)
    if z.real < -1:
        return abs(z + 1)
    return abs(z.imag)


def _base_point(variant: str, rng: np.random.Generator) -> tuple[tuple, float]:
    """A base point and its euclidean distance to the boundary (or a lower
    bound for it)."""
    depth = _log_uniform(rng, *DEPTH)
    if variant == "halfplane":
        y = _log_uniform(rng, 1e-6, 1e3)
        return (complex(rng.uniform(-10, 10), y),), y
    if variant == "halfplaneC":
        y = _log_uniform(rng, 1e-6, 1e3)
        zeta = complex(rng.uniform(-10, 10), y)
        return ((0.5 + 1j * zeta) / HALFPLANE_C_COEFF,), y / abs(HALFPLANE_C_COEFF)
    if variant == "disc":
        return ((1.0 - depth) * _phase(rng),), depth
    if variant == "ball2":
        return tuple((1.0 - depth) * c for c in _unit(rng, 2)), depth
    if variant == "polydisc3":
        depths = [depth] + [_log_uniform(rng, *DEPTH) for _ in range(2)]
        return tuple((1.0 - d) * _phase(rng) for d in depths), min(depths)
    if variant == "punctured":
        depth = min(depth, 0.5)
        modulus = 1.0 - depth if rng.uniform() < 0.5 else depth
        return (modulus * _phase(rng),), depth
    if variant == "slit":
        angle = rng.uniform(-math.pi, math.pi)
        if rng.uniform() < 0.5:  # close to the slit
            angle = math.copysign(math.pi - _log_uniform(rng, *DEPTH), angle)
        z = (1.0 - depth) * complex(math.cos(angle), math.sin(angle))
        return (z,), min(1.0 - abs(z), _segment_distance(z))
    if variant == "siegel2":
        z1 = complex(rng.normal(), rng.normal())
        margin = _log_uniform(rng, *DEPTH)
        z2 = complex(-(abs(z1) ** 2 + margin) / 2.0, rng.normal(scale=2.0))
        # 2 Re z2 + |z1|^2 = -margin, and the defining function changes by at
        # most 2 (1 + |z1|) h + h^2 over a step of length h <= 1
        return (z1, z2), margin / (4.0 * (1.0 + abs(z1)))
    raise ValueError(variant)


def _inside(variant: str, q: tuple) -> bool:
    z = q[0]
    if variant == "halfplane":
        return z.imag > 0
    if variant == "halfplaneC":
        return 2.0 * (HALFPLANE_C_COEFF * z).real - 1.0 < 0
    if variant in ("disc", "ball2"):
        return sum(abs(c) ** 2 for c in q) < 1.0
    if variant == "polydisc3":
        return max(abs(c) for c in q) < 1.0
    if variant == "punctured":
        return 0.0 < abs(z) < 1.0
    if variant == "slit":
        return abs(z) < 1.0 and _segment_distance(z) > 0.0
    return 2.0 * q[1].real + abs(q[0]) ** 2 < 0.0


def make_queries(seed: int, pool: int = POOL) -> list[tuple[str, tuple, tuple, bool]]:
    """``pool`` queries ``(variant, p, q, kobayashi)`` generated from ``seed``."""
    rng = np.random.default_rng(seed)
    per_variant = pool // len(VARIANTS)
    queries = []
    for variant in VARIANTS:
        for k in range(per_variant):
            while True:
                p, scale = _base_point(variant, rng)
                sep = _log_uniform(rng, *SEPARATION) * scale
                u = _unit(rng, len(p))
                q = tuple(a + sep * b for a, b in zip(p, u))
                if _inside(variant, p) and _inside(variant, q):
                    break
            queries.append((variant, p, q, k % 2 == 1))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


class Distance:
    name = NAME

    def __init__(self, seed: int, workdir) -> None:
        self.queries = make_queries(seed)
        self.labels = [variant for variant, *_ in self.queries]
        self._calls = [
            (DOMAINS[v], p, q, MetricMode.KOBAYASHI if kob else MetricMode.POINCARE)
            for v, p, q, kob in self.queries
        ]
        self._refs: dict[int, float] = {}  # reference distances, computed once per query

    def run(self, i: int) -> float:
        d, p, q, mode = self._calls[i]
        # through the module, so that the traced run sees the call
        return metrics.kobayashi_distance(d, p, q, mode)

    def check(self, records) -> Check:
        from reference import reference_distance  # mpmath: not part of set-up

        refs = self._refs
        failed = missed = 0
        messages = []
        missed_by_variant = dict.fromkeys(VARIANTS, 0)
        ops_by_variant = dict.fromkeys(VARIANTS, 0)
        for i, out in records:
            variant, p, q, kob = self.queries[i]
            ops_by_variant[variant] += 1
            if i not in refs:
                refs[i] = float(reference_distance(variant, p, q, kob))
            ref = refs[i]
            if isinstance(out, OpError) or not (isinstance(out, float) and math.isfinite(out)):
                failed += 1
                messages.append(f"{variant} {p} {q}: {out!r}")
                continue
            err = abs(out - ref)
            if err > ATOL * (1 + ref):
                failed += 1
                messages.append(f"{variant} {p} {q}: {out!r} vs reference {ref!r}")
            if err > RTOL * ref:
                missed += 1
                missed_by_variant[variant] += 1
        stats = {"rel_miss_ratio": missed / max(len(records), 1)}
        for v in VARIANTS:
            stats[f"rel_miss_ratio.{v}"] = missed_by_variant[v] / max(ops_by_variant[v], 1)
        return Check(failed, messages, stats)


def build(seed: int, workdir) -> Distance:
    return Distance(seed, workdir)
