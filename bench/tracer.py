"""Spans and counts recorded around the public functions of ``biholo``.

The wrappers live here, in the benchmark; nothing under ``src/biholo``
changes.  The package binds names with ``from .domains import contains``
and the like, so a function is replaced in every ``biholo`` module
namespace that holds it, not only in the module that defines it.

Two kinds of wrapper:

* a span records name, start, end, parent span and op id.  Spans stay in
  memory (typed arrays) and are written out when the run ends.  A span's
  self time is its duration minus the time its child spans cover.
* a count records the call under the name of the enclosing span.  It is
  used for leaf calls where a timing wrapper would cost as much as the call
  (``halfplane_distance`` runs ~200 times per punctured query).

Wrapped calls cost 1-3 us more each, so span durations include the
wrappers inside them.  Times per call are therefore measured separately:
both kinds keep a thinning sample of their arguments, and ``calibrate``
times the original functions on those arguments after the traced phase,
with every wrapper removed.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT = "<root>"


def _noop(*args, **kwargs) -> None:
    return None


class _Sampler:
    """Keeps between ``keep`` and ``2 * keep`` arguments, evenly spread over
    the calls: the stride doubles whenever ``2 * keep`` are held."""

    def __init__(self, keep: int) -> None:
        self.keep = keep
        self.held: list = []
        self.stride = self.countdown = 1

    def take(self, args, kwargs) -> None:
        self.held.append((args, kwargs))
        if len(self.held) >= 2 * self.keep:
            del self.held[::2]
            self.stride *= 2
        self.countdown = self.stride


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.self_time: dict[int, float] = defaultdict(float)
        # name id -> {enclosing span's name id -> calls}, for counted leaves
        self.counts: dict[int, dict[int, int]] = {}
        # (what, name id, enclosing span's name id) -> amount, from result hooks
        self.amounts: dict[tuple[str, int, int], float] = defaultdict(float)
        self.samplers: dict[int, _Sampler] = {}
        self.originals: dict[int, object] = {}
        self.op = -1
        # open spans: [span id, name id, time covered by child spans]
        self.stack: list[list] = [[-1, self.name_id(ROOT), 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _sampler(self, nid: int, fn, keep: int) -> _Sampler | None:
        if not keep:
            return None
        self.originals[nid] = fn
        return self.samplers.setdefault(nid, _Sampler(keep))

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, after=None, keep: int = 0):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of the
        call's arguments; ``after(tracer, nid, parent_nid, args, result)``
        records amounts; ``keep`` sets the argument sample for ``calibrate``."""
        stack, clock = self.stack, time.perf_counter
        names, t0s, t1s, parents, ops = (
            self.span_name, self.span_t0, self.span_t1, self.span_parent, self.span_op,
        )
        self_time = self.self_time
        fixed = self.name_id(name) if isinstance(name, str) else None
        samplers = {}

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(*args, **kwargs))
            sampler = samplers.get(nid, False)
            if sampler is False:
                sampler = samplers[nid] = self._sampler(nid, fn, keep)
            if sampler is not None:
                sampler.countdown -= 1
                if not sampler.countdown:
                    sampler.take(args, kwargs)
            top = stack[-1]
            sid = len(names)
            frame = [sid, nid, 0.0]
            names.append(nid)
            parents.append(top[0])
            ops.append(self.op)
            t1s.append(0.0)
            stack.append(frame)
            t0 = clock()
            t0s.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t1s[sid] = t1
                dur = t1 - t0
                stack[-1][2] += dur
                self_time[nid] += dur - frame[2]
            if after is not None:
                after(self, nid, top[1], args, result)
            return result

        return wrapper

    def count(self, name: str, fn, after=None, keep: int = 256):
        """Wrap ``fn`` to count its calls by enclosing span.  ``keep=0``
        samples no arguments, for calls with side effects."""
        nid = self.name_id(name)
        stack = self.stack
        counts = self.counts.setdefault(nid, defaultdict(int))
        sampler = self._sampler(nid, fn, keep)

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            counts[parent] += 1
            if sampler is not None:
                sampler.countdown -= 1
                if not sampler.countdown:
                    sampler.take(args, kwargs)
            if after is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            after(self, nid, parent, args, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def patch_function(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` by ``make(original)`` in every ``biholo``
        module namespace that binds the same object."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for modname, mod in list(sys.modules.items()):
            if modname != "biholo" and not modname.startswith("biholo."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _span_names(self) -> np.ndarray:
        return np.frombuffer(self.span_name, dtype=np.int32)

    def calls(self, name: str) -> int:
        """Calls of a counted function, or spans of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        if nid in self.counts:
            return sum(self.counts[nid].values())
        return int(np.count_nonzero(self._span_names() == nid))

    def counted_under(self, name: str, parents) -> int:
        """Calls of a counted function made directly inside the named spans."""
        by_parent = self.counts.get(self._ids.get(name), {})
        return sum(by_parent.get(self._ids[p], 0) for p in parents if p in self._ids)

    def amount(self, what: str, name: str | None = None, parents=None) -> float:
        total = 0.0
        for (w, nid, pid), value in self.amounts.items():
            if w != what or (name is not None and self.names[nid] != name):
                continue
            if parents is not None and self.names[pid] not in parents:
                continue
            total += value
        return total

    def spans_under(self, name: str, parents) -> int:
        """Spans of ``name`` whose parent span is one of ``parents``."""
        nid = self._ids.get(name)
        pids = [self._ids[p] for p in parents if p in self._ids]
        if nid is None or not pids:
            return 0
        names = self._span_names()
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[names == nid]
        parent = parent[parent >= 0]
        return int(np.isin(names[parent], pids).sum())

    def calibrate(self, min_seconds: float = 0.02, min_calls: int = 3) -> dict[str, float]:
        """Seconds per call of each sampled function, timed on its sampled
        arguments with every wrapper removed, net of the timing loop.

        Runs evenly spaced samples until ``min_seconds`` have passed and at
        least ``min_calls`` (or all samples) have run.
        """
        per_call = {}
        clock = time.perf_counter
        for nid, sampler in self.samplers.items():
            held = sampler.held
            if not held:
                continue
            need = min(min_calls, len(held))
            order = held[:: max(len(held) // need, 1)] + held
            costs = []
            for fn in (self.originals[nid], _noop):
                calls = 0
                start = clock()
                while True:
                    args, kwargs = order[calls % len(order)]
                    fn(*args, **kwargs)
                    calls += 1
                    elapsed = clock() - start
                    if elapsed >= min_seconds and calls >= need:
                        break
                costs.append(elapsed / calls)
            per_call[self.names[nid]] = max(costs[0] - costs[1], 0.0)
        return per_call

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self._span_names(),
            start=np.frombuffer(self.span_t0),
            end=np.frombuffer(self.span_t1),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
