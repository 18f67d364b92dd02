"""The benchmark's per-layer tracer (``bench/layers.py``) wraps ``biholo``
functions and methods by name, so renaming or deleting one breaks every
``bench/run.py --trace 1`` run.  This installs the wrappers and removes them
again; it reads ``bench/`` and changes nothing there."""

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bindings() -> dict:
    """Every binding of every ``biholo`` module and of the classes whose
    methods the tracer wraps, by (owner, name)."""
    from biholo import invariants, maps, scaling

    owners = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "biholo"}
    owners.update(witness=invariants.EmbeddingWitness, chain=maps.Chain, family=scaling.ScaledFamily)
    return {(owner, key): value for owner, obj in owners.items() for key, value in vars(obj).items()}


def test_traced_names_exist_and_uninstall_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    import biholo.cli  # noqa: F401  (load every module install() imports before the snapshot)

    before = _bindings()
    tracer = Tracer()
    try:
        layers.install(tracer)  # raises if a wrapped name is gone
        wrapped = {key for _, key, _ in tracer._patches}
        assert {"sample_point", "_euclidean_sphere", "_independent_membership", "validate"} <= wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_distance_records_reach_the_wrapped_layers(monkeypatch):
    """The distance entries look their layers up when called, so the tracer
    counts the calls under them; an entry that stored a function object at
    import would call the unwrapped original, and the counts would read 0."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    from biholo import Ball, PuncturedDisc, UpperHalfPlane, metrics

    tracer = Tracer()
    try:
        layers.install(tracer)
        metrics.kobayashi_distance(PuncturedDisc(), 0.5, -0.3 + 0.2j)
        metrics.kobayashi_distance(UpperHalfPlane(), 1j, 2.0 + 1j)
        metrics.kobayashi_distance(Ball(1), 0.3, -0.5j)
    finally:
        tracer.uninstall()
    # the nearest deck translate under the punctured query, one half-plane query
    assert tracer.calls("covering.punctured_distance") == 1
    assert tracer.calls("hyperbolic.halfplane_distance") == 2
    assert tracer.calls("hyperbolic.disc_distance") == 1


def test_boundary_entry_reaches_the_wrapped_sampler(monkeypatch):
    """The polydisc's ``boundary`` rows look ``polydisc_sphere_sample`` up
    when called, so a squeezing estimate on ``Polydisc(2)`` from an
    uncertified copy of the witness counts its one boundary draw, and the
    certified witness, scored on its seeds alone, counts none;
    ``invariants.predicate_evals_per_op`` is read from it."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    from biholo import Polydisc, invariants

    witness = invariants.scaled_polydisc_into_ball(2)
    counts = []
    for w in (witness, dataclasses.replace(witness)):
        tracer = Tracer()
        try:
            layers.install(tracer)
            invariants.squeezing_lower_from_embedding(Polydisc(2), (0j, 0j), w, invariants.RadiusSearch(r_max=1.0))
        finally:
            tracer.uninstall()
        counts.append(tracer.calls("metrics.polydisc_sphere_sample"))
    assert counts == [0, 1]
